"""Scalar reference for the semantics, used only by the tests.

The library writes the aggregation and the influence once, as the vector
kernel of ``bagsolve.semantics``. This module folds one argument at a time
in plain Python floats, from a parent vector over {-1, 0, +1}: supporters
first, then attackers, each in index order, which is the order the kernel
folds in. So the aggregations agree with the kernel bit for bit (up to the
sign of a zero sum), while ``euler`` and ``pmax`` may differ by round-off,
since ``math.exp`` and ``**`` are not numpy's ``exp`` and ``power``.

The benchmark generators are here too, written with sets of edge tuples,
as the library wrote them before it built their edges as arrays.
"""
from __future__ import annotations

import math
import random
import sys
from typing import Optional, Sequence

import numpy as np

from bagsolve import (
    Bag,
    SemanticsSpec,
    lipschitz_aggregation,
    lipschitz_influence,
)
from bagsolve.analysis import DUALITY_TOL, LIPSCHITZ_SLACK

# math.exp overflows past this; the euler influence saturates to its upper
# limit there, so we short-circuit instead of raising OverflowError.
_EXP_MAX = 709.0
# 1 / kappa overflows from here down
_KAPPA_MIN = 2.0 ** -1024


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


def relations(bag: Bag) -> tuple[frozenset, frozenset]:
    """The attacks and the supports of ``bag`` as sets of (source, target)
    pairs, read row by row from its CSR arrays."""
    attacks, supports = set(), set()
    indptr, src, sign = (a.tolist() for a in (bag.indptr, bag.src, bag.sign))
    for v in range(bag.n):
        for k in range(indptr[v], indptr[v + 1]):
            (attacks if sign[k] < 0 else supports).add((src[k], v))
    return frozenset(attacks), frozenset(supports)


# ---------------------------------------------------------------------------
# aggregation

def _split_parents(v: Sequence[int]) -> tuple[list[int], list[int]]:
    att = [j for j, x in enumerate(v) if x == -1]
    sup = [j for j, x in enumerate(v) if x == 1]
    return att, sup


def _agg_sum(att, sup, s) -> float:
    total = 0.0
    for j in sup:
        total += s[j]
    for j in att:
        total -= s[j]
    return total


def _agg_product(att, sup, s) -> float:
    # Empty products are 1, so no parents gives 1 - 1 = 0.
    pa = 1.0
    for j in att:
        pa *= 1.0 - s[j]
    ps = 1.0
    for j in sup:
        ps *= 1.0 - s[j]
    return pa - ps


def _agg_top(att, sup, s) -> float:
    best_sup = 0.0
    for j in sup:
        if s[j] > best_sup:
            best_sup = s[j]
    best_att = 0.0
    for j in att:
        if s[j] > best_att:
            best_att = s[j]
    return best_sup - best_att


_AGG_FUNCS = {"sum": _agg_sum, "product": _agg_product, "top": _agg_top}


def aggregate(spec: SemanticsSpec, v: Sequence[int], s: Sequence[float]) -> float:
    """Fold parent strengths into one signed real.

    ``v`` is a parent vector over {-1, 0, +1}; only coordinates with nonzero
    entries are read, and the result is 0 whenever ``v`` is all zero.
    """
    att, sup = _split_parents(v)
    return _AGG_FUNCS[spec.aggregation](att, sup, s)


# ---------------------------------------------------------------------------
# influence

def _h(x: float, p: int) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        # 1 / (1 + x^-p) is the same value but immune to overflow of x^p
        return 1.0 / (1.0 + x ** (-p))
    xp = x ** p
    return xp / (1.0 + xp)


def _infl_linear(w: float, a: float, kappa: float) -> float:
    if abs(a) > kappa * (1.0 + 1e-9):
        raise ValueError(
            f"linear influence got aggregate {a!r} outside [-kappa, kappa] "
            f"with kappa={kappa}; validate the semantics against the graph"
        )
    if a == 0.0:
        # w / kappa overflows for a subnormal kappa, and inf * 0 is NaN
        return w
    a = min(max(a, -kappa), kappa)  # absorb float round-off at the boundary
    if kappa <= _KAPPA_MIN:  # w / kappa overflows; |a / kappa| <= 1
        out = w + (w if a < 0.0 else 1.0 - w) * (a / kappa)
    elif a < 0.0:
        out = w + (w / kappa) * a
    else:
        out = w + ((1.0 - w) / kappa) * a
    # w + (w / kappa) * a can round below 0 at a = -kappa
    return min(max(out, 0.0), 1.0)


def _infl_euler(w: float, a: float) -> float:
    if a == 0.0:
        return w  # stability must hold bit-exactly, not just to round-off
    if a > _EXP_MAX:
        return 1.0 if w > 0.0 else 0.0
    return 1.0 - (1.0 - w * w) / (1.0 + w * math.exp(a))


def _infl_pmax(w: float, a: float, kappa: float, p: int) -> float:
    return w - w * _h(-a / kappa, p) + (1.0 - w) * _h(a / kappa, p)


def influence(spec: SemanticsSpec, w: float, a: float) -> float:
    """Move the initial weight ``w`` according to the aggregate ``a``.

    Returns a value in [0, 1]; an aggregate of 0 always returns ``w``
    unchanged. The linear influence is only defined for |a| <= kappa and
    raises otherwise.
    """
    kind = spec.influence
    if kind == "linear":
        return _infl_linear(w, a, spec.kappa)
    if kind == "euler":
        return _infl_euler(w, a)
    if kind == "pmax":
        return _infl_pmax(w, a, spec.kappa, spec.p)
    return w  # constant


# ---------------------------------------------------------------------------
# property checks

def check(prop: str, part: str, spec: SemanticsSpec, trials: int,
          seed: int) -> tuple[bool, int, Optional[dict]]:
    """(passed, trials, counterexample) of ``check_<prop>_<part>``, one
    trial at a time with the scalar folds: the same draws from
    ``random.Random(seed)``, and a trial fails unless gap <= bound, so that
    a NaN fails."""
    rng = random.Random(seed)
    span = (min(spec.kappa, sys.float_info.max / 2)
            if spec.influence == "linear" else 10.0)
    for t in range(trials):
        if part == "aggregation":
            n = rng.randint(1, 8)
            v = [rng.choice((-1, 0, 1)) for _ in range(n)]
            s = [rng.random() for _ in range(n)]
            if prop == "duality":
                lhs = aggregate(spec, v, s)
                rhs = -aggregate(spec, [-x for x in v], s)
                example = {"v": v, "s": s, "alpha_v": lhs, "-alpha_-v": rhs}
            else:
                s2 = [rng.random() for _ in range(n)]
                gap = abs(aggregate(spec, v, s) - aggregate(spec, v, s2))
                bound = (lipschitz_aggregation(spec, sum(x != 0 for x in v))
                         * max(abs(a - b) for a, b in zip(s, s2)))
                example = {"v": v, "s1": s, "s2": s2, "gap": gap,
                           "bound": bound}
        else:
            w = rng.random()
            if prop == "duality":
                a = rng.uniform(-span, span)
                lhs = 1.0 - influence(spec, 1.0 - w, a)
                rhs = influence(spec, w, -a)
                example = {"w": w, "a": a, "1-iota_(1-w)(a)": lhs,
                           "iota_w(-a)": rhs}
            else:
                a1, a2 = rng.uniform(-span, span), rng.uniform(-span, span)
                gap = abs(influence(spec, w, a1) - influence(spec, w, a2))
                bound = (lipschitz_influence(spec, w) * abs(a1 - a2)
                         if a1 != a2 else 0.0)
                example = {"w": w, "a1": a1, "a2": a2, "gap": gap,
                           "bound": bound}
        if prop == "duality":
            ok = abs(lhs - rhs) <= DUALITY_TOL
        else:
            ok = gap <= bound + LIPSCHITZ_SLACK
        if not ok:
            return False, t + 1, example
    return True, trials, None


# ---------------------------------------------------------------------------
# generators, built from sets of (source, target) tuples

def generate_family(k: int, va: float, vb: float) -> Bag:
    """``bagsolve.generate_family``, one edge tuple at a time."""
    names = [f"a{i + 1}" for i in range(k)] + [f"b{i + 1}" for i in range(k)]
    weights = [va] * k + [vb] * k
    a_idx = range(k)
    b_idx = range(k, 2 * k)
    attacks = {(i, j) for i in a_idx for j in a_idx}
    attacks |= {(i, j) for i in b_idx for j in b_idx}
    supports = {(i, j) for i in a_idx for j in b_idx}
    supports |= {(i, j) for i in b_idx for j in a_idx}
    return Bag(names, weights, attacks, supports)


def generate_star(k: int, w_center: float, w_leaf: float) -> Bag:
    """``bagsolve.generate_star``, one edge tuple at a time."""
    names = ["a"] + [f"b{i + 1}" for i in range(k)]
    weights = [w_center] + [w_leaf] * k
    attacks = {(i, 0) for i in range(1, k + 1)}
    return Bag(names, weights, attacks, supports=())
