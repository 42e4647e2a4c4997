"""In-memory model of weighted bipolar argumentation graphs (BAGs).

A BAG is an ordered list of named arguments, each with an initial weight in
[0, 1], plus two disjoint sets of directed edges: attacks and supports.
Arguments are addressed by dense 0-based index everywhere inside the library;
names only matter at the I/O boundary.

The edges are stored once, as compressed sparse rows (CSR) grouped by target:
the parents of argument ``i`` are ``src[indptr[i]:indptr[i + 1]]``, and
``sign`` holds -1.0 for an attacker and +1.0 for a supporter. Within a row
the supporters come first, then the attackers, each in ascending source
order, so every kernel visits parents in one fixed order.
"""
from __future__ import annotations

import heapq
from collections import Counter
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

Edge = tuple[int, int]


class BagValidationError(ValueError):
    """A BAG violated a structural invariant during construction."""


def _distinct(a: np.ndarray) -> np.ndarray:
    # np.unique(a), written out: np.unique imports numpy.ma on first use,
    # which adds ~2 MB to the peak memory of a short solve process
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _edge_codes(edges: Iterable[Edge], n: int, label: str) -> np.ndarray:
    # target * n + source for every distinct pair, sorted by (target, source)
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    if flat.size % 2:
        raise BagValidationError(f"{label} edges must be (source, target) pairs")
    pairs = flat.reshape(-1, 2)
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        u, v = pairs[outside[0]].tolist()
        raise BagValidationError(
            f"{label} edge ({u},{v}) references a missing argument")
    return _distinct(pairs[:, 1] * n + pairs[:, 0])


def _segments(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Positions of the entries of CSR rows ``rows``, concatenated in row
    # order, and for each the index into ``rows`` of the row holding it.
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    positions = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
    return positions, np.repeat(np.arange(rows.size), counts)


class Bag:
    """Immutable weighted bipolar argumentation graph.

    Parameters
    ----------
    names:
        Argument names in declaration order. Must be unique.
    weights:
        Initial weight per argument, each in [0, 1].
    attacks, supports:
        (source, target) index pairs. Duplicates collapse; the same ordered
        pair may not appear in both relations because a parent is either an
        attacker or a supporter, never both.

    The edges are kept only as the read-only CSR arrays ``indptr``, ``src``
    and ``sign`` (see the module docstring); ``attacks``, ``supports`` and
    the per-argument accessors are computed from them.
    """

    __slots__ = ("names", "weights", "indptr", "src", "sign")

    def __init__(
        self,
        names: Sequence[str],
        weights: Sequence[float],
        attacks: Iterable[Edge] = (),
        supports: Iterable[Edge] = (),
    ):
        names = tuple(names)
        if len(set(names)) != len(names):
            dupes = sorted(x for x, c in Counter(names).items() if c > 1)
            raise BagValidationError(f"duplicate argument names: {dupes}")
        weight_arr = np.array(weights, dtype=float)
        if weight_arr.shape != (len(names),):
            raise BagValidationError(
                f"expected {len(names)} weights, got shape {weight_arr.shape}"
            )
        # written as a negated test so that NaN is rejected too
        bad = np.flatnonzero(~((weight_arr >= 0.0) & (weight_arr <= 1.0)))
        if bad.size:
            raise BagValidationError(
                f"weights outside [0,1] for arguments {[names[i] for i in bad]}"
            )

        n = len(names)
        attack_codes = _edge_codes(attacks, n, "attack")
        support_codes = _edge_codes(supports, n, "support")
        collisions = np.intersect1d(attack_codes, support_codes,
                                    assume_unique=True)
        if collisions.size:
            pretty = sorted((names[c % n], names[c // n])
                            for c in collisions.tolist())
            raise BagValidationError(
                f"edges declared as both attack and support: {pretty}"
            )

        # A stable sort by target keeps the supporters (listed first) ahead
        # of the attackers in each row, and each group in source order.
        codes = np.concatenate([support_codes, attack_codes])
        order = np.argsort(codes // max(n, 1), kind="stable")
        tgt, src = np.divmod(codes[order], max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(tgt, minlength=n), out=indptr[1:])
        src = src.astype(np.intp, copy=False)
        sign = np.where(order < support_codes.size, 1.0, -1.0)

        for arr in (weight_arr, indptr, src, sign):
            arr.setflags(write=False)
        self.names = names
        self.weights = weight_arr
        self.indptr = indptr
        self.src = src
        self.sign = sign

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown argument {name!r}") from None

    def targets(self) -> np.ndarray:
        """Target of every edge, aligned with ``src`` and ``sign``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def row_edges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edges into the arguments ``rows``, in CSR order: their positions in
        ``src``/``sign``, and for each the index into ``rows`` of its target."""
        return _segments(self.indptr, np.asarray(rows, dtype=np.intp))

    def _relation(self, sign: float) -> frozenset[Edge]:
        mask = self.sign == sign
        return frozenset(zip(self.src[mask].tolist(),
                             self.targets()[mask].tolist()))

    @property
    def attacks(self) -> frozenset[Edge]:
        """(source, target) pairs of the attack relation."""
        return self._relation(-1.0)

    @property
    def supports(self) -> frozenset[Edge]:
        """(source, target) pairs of the support relation."""
        return self._relation(1.0)

    def _parents(self, i: int, attackers: bool) -> tuple[int, ...]:
        row = slice(self.indptr[i], self.indptr[i + 1])
        return tuple(self.src[row][(self.sign[row] < 0.0) == attackers].tolist())

    def attackers_of(self, i: int) -> tuple[int, ...]:
        return self._parents(i, attackers=True)

    def supporters_of(self, i: int) -> tuple[int, ...]:
        return self._parents(i, attackers=False)

    def indegree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.sign, other.sign)
        )

    def __hash__(self) -> int:
        return hash((self.names, self.weights.tobytes(), self.indptr.tobytes(),
                     self.src.tobytes(), self.sign.tobytes()))

    def __repr__(self) -> str:
        attacks = int(np.count_nonzero(self.sign < 0.0))
        return (f"Bag(n={self.n}, attacks={attacks}, "
                f"supports={self.src.size - attacks})")


def parent_vector(bag: Bag, i: int) -> np.ndarray:
    """Signed parent row for argument ``i``: -1 attacker, +1 supporter, 0 else.

    Raises IndexError when ``i`` is out of range.
    """
    if not 0 <= i < bag.n:
        raise IndexError(f"argument index {i} out of range for n={bag.n}")
    v = np.zeros(bag.n, dtype=int)
    row = slice(bag.indptr[i], bag.indptr[i + 1])
    v[bag.src[row]] = bag.sign[row]
    return v


def max_indegree(bag: Bag) -> int:
    """Largest number of parents (attackers plus supporters) of any argument."""
    return int(np.diff(bag.indptr).max(initial=0))


def _children(bag: Bag) -> tuple[np.ndarray, np.ndarray]:
    # the edges regrouped by source, as CSR (child_ptr, children)
    by_source = np.argsort(bag.src, kind="stable")
    child_ptr = np.zeros(bag.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(bag.src, minlength=bag.n), out=child_ptr[1:])
    return child_ptr, bag.targets()[by_source]


def topological_order(bag: Bag) -> Optional[list[int]]:
    """Topological order over attacks+supports, or None when the graph is cyclic.

    Every edge (u, v) satisfies position(u) < position(v) in the returned
    order. Among the ready arguments the smallest index is emitted first, so
    the order is deterministic.
    """
    child_ptr, children = _children(bag)
    child_ptr, children = child_ptr.tolist(), children.tolist()
    pending = np.diff(bag.indptr).tolist()

    ready = [i for i in range(bag.n) if pending[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in children[child_ptr[u]:child_ptr[u + 1]]:
            pending[v] -= 1
            if pending[v] == 0:
                heapq.heappush(ready, v)
    if len(order) < bag.n:
        return None
    return order


def topological_levels(bag: Bag) -> Optional[list[np.ndarray]]:
    """Arguments grouped by depth, or None when the graph is cyclic.

    Level 0 holds the parentless arguments and level k those whose longest
    path from a parentless argument has k edges, so every parent of an
    argument sits in an earlier level. Each level is sorted by index. The
    cost is O(n + edges) plus a few numpy calls per level.
    """
    child_ptr, children = _children(bag)
    pending = np.diff(bag.indptr)
    level = np.flatnonzero(pending == 0)
    levels: list[np.ndarray] = []
    placed = 0
    while level.size:
        levels.append(level)
        placed += level.size
        reached = children[_segments(child_ptr, level)[0]]
        np.subtract.at(pending, reached, 1)
        level = _distinct(reached[pending[reached] == 0])
    return levels if placed == bag.n else None
