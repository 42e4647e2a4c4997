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

The update kernel reads the same edges regrouped as indegree blocks: sets
of arguments whose indegrees have the same bit length (1, 2-3, 4-7, ...),
each padded to the largest such indegree d and holding a C-contiguous
(d, m) array of codes that lists, column by column, the arguments' parents
in CSR order with their signs folded in (see ``IndegreeBlock``). A
reduction over axis 0 then folds every argument's parents one at a time,
in that order.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

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


def _indegree_groups(degree: np.ndarray) -> list[tuple[np.ndarray, int]]:
    # (positions, indegree) of each block, positions ascending: arguments
    # whose indegrees have the same bit length share a block, padded to the
    # largest of them. So there are at most max(degree).bit_length() blocks,
    # and every column is more than half parents: fewer than 2 x edges slots.
    length = np.frexp(degree)[1]  # bit length; 0 for the parentless
    groups = []
    for b in range(1, int(length.max(initial=0)) + 1):
        pos = np.flatnonzero(length == b)
        if pos.size:
            groups.append((pos, int(degree[pos].max())))
    return groups


class IndegreeBlock(NamedTuple):
    """The arguments ``pos``, each with at most d >= 1 parents, and their
    edges as a (d, len(pos)) array ``code``: row k of column j codes the
    k-th parent (CSR order) of ``pos[j]``. A code indexes a table of
    2n + 1 entries built from the n strengths: supporter p is coded p, an
    attacker p is n + 1 + p, and n pads a column of fewer than d parents
    (the kernel puts each fold's identity there)."""

    pos: np.ndarray
    code: np.ndarray


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
    and ``sign`` (see the module docstring); ``attacks``, ``supports``, the
    per-argument accessors and the indegree ``blocks`` are computed from
    them.
    """

    __slots__ = ("names", "weights", "indptr", "src", "sign", "_blocks",
                 "_memo")

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
        self._blocks = None
        self._memo = None

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

    @property
    def blocks(self) -> tuple[IndegreeBlock, ...]:
        """Indegree blocks of all arguments, built on first use and kept."""
        if self._blocks is None:
            starts = self.indptr[:-1]
            degree = np.diff(self.indptr)
            blocks = []
            for pos, d in _indegree_groups(degree):
                k_th = np.arange(d)[:, None]
                slots = k_th + starts[pos]
                live = k_th < degree[pos]
                slots[~live] = 0
                at = self.src[slots]
                code = np.where(self.sign[slots] < 0.0, at + (self.n + 1), at)
                code[~live] = self.n
                for arr in (pos, code):
                    arr.setflags(write=False)
                blocks.append(IndegreeBlock(pos, code))
            self._blocks = tuple(blocks)
        return self._blocks

    def memo(self, key: Any, build: Callable[["Bag", Any], Any]) -> Any:
        """``build(self, key)``, kept until a call with another key: the
        update kernel's constants for one semantics. One entry bounds the
        memory of a sweep over many; it is replaced, never changed."""
        entry = self._memo
        if entry is None or (entry[0] is not key and entry[0] != key):
            entry = self._memo = (key, build(self, key))
        return entry[1]

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


def max_indegree(bag: Bag) -> int:
    """Largest number of parents (attackers plus supporters) of any argument."""
    return int(np.diff(bag.indptr).max(initial=0))


def _depths(bag: Bag) -> Optional[np.ndarray]:
    # Level of every argument by one FIFO Kahn sweep over Python lists, or
    # None when the graph is cyclic. The queue is consumed in order of
    # level: it starts with the level-0 arguments, and each consumed
    # argument of level k appends only arguments of level k + 1. So the
    # parent that releases an argument, its last parent to leave the queue,
    # is one of its deepest parents, and the argument's level is that
    # parent's + 1.
    n = bag.n
    by_source = np.argsort(bag.src)  # the order of children changes no level
    child_ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(bag.src, minlength=n), out=child_ptr[1:])
    child_ptr = child_ptr.tolist()
    children = bag.targets()[by_source].tolist()
    indegree = np.diff(bag.indptr)
    pending = indegree.tolist()
    depth = [0] * n
    queue = np.flatnonzero(indegree == 0).tolist()
    for u in queue:  # also visits what the loop appends
        below = depth[u] + 1
        for v in children[child_ptr[u]:child_ptr[u + 1]]:
            left = pending[v] - 1
            pending[v] = left
            if not left:
                depth[v] = below
                queue.append(v)
    if len(queue) < n:
        return None
    # numpy sorts integers of up to 16 bits by radix, in linear time
    return np.array(depth, dtype=np.min_scalar_type(n))


def topological_order(bag: Bag) -> Optional[list[int]]:
    """Topological order over attacks+supports, or None when the graph is cyclic.

    Every edge (u, v) satisfies position(u) < position(v) in the returned
    order. It lists the levels of ``topological_levels`` one after the
    other, so the order is deterministic: by level, then by index.
    """
    depth = _depths(bag)
    return None if depth is None else np.argsort(depth, kind="stable").tolist()


def topological_levels(bag: Bag) -> Optional[list[np.ndarray]]:
    """Arguments grouped by depth, or None when the graph is cyclic.

    Level 0 holds the parentless arguments and level k those whose longest
    path from a parentless argument has k edges, so every parent of an
    argument sits in an earlier level. Each level is sorted by index. The
    cost is O(n + edges): one sweep finds every level, and one stable sort
    groups them.
    """
    depth = _depths(bag)
    if depth is None:
        return None
    order = np.argsort(depth, kind="stable")
    ends = np.cumsum(np.bincount(depth)).tolist()
    return [order[lo:hi] for lo, hi in zip([0, *ends], ends)]
