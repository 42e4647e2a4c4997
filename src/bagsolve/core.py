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

from collections import Counter
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

Edge = tuple[int, int]


class BagValidationError(ValueError):
    """A BAG violated a structural invariant during construction."""


def _distinct(a: np.ndarray) -> np.ndarray:
    # np.unique(a), written out: np.unique imports numpy.ma on first use,
    # which adds ~2 MB to the peak memory of a short solve process
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _edge_keys(edges: Union[Iterable[Edge], np.ndarray], n: int,
               label: str, is_attack: int) -> np.ndarray:
    # The key (2 * target + is_attack) * max(n, 1) + source of every pair:
    # sorted keys put each row's supporters, then its attackers, each by
    # source. An array is taken whole. Pairs are zipped into two long
    # columns first, which numpy reads in 2/3 of the time of as many short
    # rows; the strict zip refuses ragged pairs.
    message = f"{label} edges must be (source, target) pairs"
    try:
        pairs = (edges if isinstance(edges, np.ndarray)
                 else np.asarray(list(zip(*edges, strict=True))).T)
    except (TypeError, ValueError):  # not pairs, or ragged ones
        raise BagValidationError(message) from None
    if not pairs.size:
        return np.empty(0, dtype=np.int64)
    if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise BagValidationError(message)
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        u, v = pairs[outside[0]].tolist()
        raise BagValidationError(
            f"{label} edge ({u},{v}) references a missing argument")
    pairs = pairs.astype(np.int64, copy=False)  # in range, so no wrap
    # n is max(n, 1) here: a pair in range needs an argument
    return (pairs[:, 1] * 2 + is_attack) * n + pairs[:, 0]


class Bag:
    """Immutable weighted bipolar argumentation graph.

    Parameters
    ----------
    names:
        Argument names in declaration order: unique strings.
    weights:
        Initial weight per argument, each in [0, 1].
    attacks, supports:
        (source, target) index pairs: a (k, 2) integer ndarray, or an
        iterable of integer pairs, which is read as one such array.
        Duplicates collapse; the same ordered pair may not appear in both
        relations because a parent is either an attacker or a supporter,
        never both.

    The edges are kept only as the read-only CSR arrays ``indptr``, ``src``
    and ``sign`` (see the module docstring); ``targets()`` is computed from
    them.
    """

    __slots__ = ("names", "weights", "indptr", "src", "sign", "_memo")

    def __init__(
        self,
        names: Sequence[str],
        weights: Sequence[float],
        attacks: Union[Iterable[Edge], np.ndarray] = (),
        supports: Union[Iterable[Edge], np.ndarray] = (),
    ):
        names = tuple(names)
        for name in names:
            if not isinstance(name, str):
                raise BagValidationError(
                    f"argument names must be strings, got {name!r}")
        if len(set(names)) != len(names):
            dupes = sorted(x for x, c in Counter(names).items() if c > 1)
            raise BagValidationError(f"duplicate argument names: {dupes}")
        # -0.0 + 0.0 is 0.0: a weight -0.0 would equal 0.0 but hash apart
        weight_arr = np.array(weights, dtype=float) + 0.0
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
        m = max(n, 1)
        keys = _distinct(np.concatenate([
            _edge_keys(attacks, n, "attack", 1),
            _edge_keys(supports, n, "support", 0)]))
        attack = keys % (2 * m) >= m  # key // m = 2 * target + 1 is odd
        # attack (u, v) collides with support (u, v) exactly when its key
        # minus m, the support's key, is a key too
        probe = keys[attack] - m
        shared = probe[keys[np.searchsorted(keys, probe)] == probe]
        if shared.size:
            pretty = sorted((names[c % m], names[c // (2 * m)])
                            for c in shared.tolist())
            raise BagValidationError(
                f"edges declared as both attack and support: {pretty}"
            )
        del probe  # freed before src and sign are built
        # the keys below 2 * i * m are those of the rows before i
        indptr = np.searchsorted(keys, np.arange(n + 1) * (2 * m))
        src = (keys % m).astype(np.intp, copy=False)
        sign = np.where(attack, -1.0, 1.0)

        for arr in (weight_arr, indptr, src, sign):
            arr.setflags(write=False)
        self.names = names
        self.weights = weight_arr
        self.indptr = indptr
        self.src = src
        self.sign = sign
        self._memo = {}

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

    def memo(self, build: Callable[["Bag"], Any]) -> Any:
        """``build(self)``, built on first use and kept with the Bag:
        ``update``'s plan, which no semantics changes. An entry is never
        replaced: threads that build one at once all get the first one
        stored."""
        try:
            return self._memo[build]
        except KeyError:
            return self._memo.setdefault(build, build(self))

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


def topological_levels(bag: Bag) -> Optional[np.ndarray]:
    """Level of every argument, or None when the graph is cyclic.

    Level 0 holds the parentless arguments and level k those whose longest
    path from a parentless argument has k edges, so every parent of an
    argument has a lower level. The levels come in the smallest unsigned
    dtype that holds n; ``update_levels`` takes them as they are. The cost
    is O(n + edges): one FIFO Kahn sweep over Python lists.
    """
    # The queue is consumed in order of level: it starts with the level-0
    # arguments, and each consumed argument of level k appends only
    # arguments of level k + 1. So the parent that releases an argument,
    # its last parent to leave the queue, is one of its deepest parents,
    # and the argument's level is that parent's + 1.
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
    order. It is the stable argsort of ``topological_levels``, so the order
    is deterministic: by level, then by index.
    """
    level = topological_levels(bag)
    return None if level is None else np.argsort(level, kind="stable").tolist()
