"""Modular gradual semantics: aggregation and influence building blocks.

A semantics is a pair of functions. The aggregation folds the strengths of an
argument's attackers and supporters into one signed real (negative = net
attack). The influence then moves the argument's initial weight according to
that aggregate, staying inside [0, 1]. Composing the two per argument gives
the synchronous update map whose iterates (or continuization) define the
final strength values.

Every building block ships with an analytic Lipschitz constant and a codomain
bound; the solvers use those for contraction certificates and for validating
parameter choices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Bag

SUM = "sum"
PRODUCT = "product"
TOP = "top"
AGGREGATIONS = (SUM, PRODUCT, TOP)

LINEAR = "linear"
EULER = "euler"
PMAX = "pmax"
CONSTANT = "constant"
INFLUENCES = (LINEAR, EULER, PMAX, CONSTANT)

# math.exp overflows past this; the euler influence saturates to its upper
# limit there, so we short-circuit instead of raising OverflowError.
_EXP_MAX = 709.0


class SemanticsConfigError(ValueError):
    """An aggregation/influence combination is invalid for the given BAG."""


@dataclass(frozen=True)
class SemanticsSpec:
    """Chosen aggregation + influence with their parameters.

    kappa is the conservativeness of the linear and p-max influences: larger
    kappa means smaller weight movement and stronger convergence guarantees.
    p sharpens the p-max response (p=2 is the quadratic energy influence).
    """

    aggregation: str
    influence: str
    kappa: float = 1.0
    p: int = 2

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise SemanticsConfigError(
                f"unknown aggregation {self.aggregation!r}; "
                f"expected one of {AGGREGATIONS}"
            )
        if self.influence not in INFLUENCES:
            raise SemanticsConfigError(
                f"unknown influence {self.influence!r}; "
                f"expected one of {INFLUENCES}"
            )
        if self.influence in (LINEAR, PMAX) and not self.kappa > 0:
            raise SemanticsConfigError(f"kappa must be positive, got {self.kappa}")
        if self.influence == PMAX and (self.p < 1 or self.p != int(self.p)):
            raise SemanticsConfigError(f"p must be a positive integer, got {self.p}")


def dfq(kappa: float = 1.0) -> SemanticsSpec:
    """DF-QuAD style semantics: product aggregation with linear influence."""
    return SemanticsSpec(PRODUCT, LINEAR, kappa=kappa)


def euler_semantics() -> SemanticsSpec:
    """Euler-based semantics: sum aggregation with the exponential influence."""
    return SemanticsSpec(SUM, EULER)


def qe(kappa: float = 1.0) -> SemanticsSpec:
    """Quadratic energy semantics: sum aggregation with 2-max influence."""
    return SemanticsSpec(SUM, PMAX, kappa=kappa, p=2)


PRESETS = {"dfq": dfq, "euler": euler_semantics, "qe": qe}


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


_AGG_FUNCS = {SUM: _agg_sum, PRODUCT: _agg_product, TOP: _agg_top}


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


def _linear_domain_error(a: float, kappa: float) -> ValueError:
    return ValueError(
        f"linear influence got aggregate {a!r} outside [-kappa, kappa] "
        f"with kappa={kappa}; validate the semantics against the graph"
    )


def _infl_linear(w: float, a: float, kappa: float) -> float:
    if abs(a) > kappa * (1.0 + 1e-9):
        raise _linear_domain_error(a, kappa)
    a = min(max(a, -kappa), kappa)  # absorb float round-off at the boundary
    if a < 0.0:
        return w + (w / kappa) * a
    return w + ((1.0 - w) / kappa) * a


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
    raises otherwise (validate_spec rules that out for well-configured runs).
    """
    kind = spec.influence
    if kind == LINEAR:
        return _infl_linear(w, a, spec.kappa)
    if kind == EULER:
        return _infl_euler(w, a)
    if kind == PMAX:
        return _infl_pmax(w, a, spec.kappa, spec.p)
    return w  # constant


# ---------------------------------------------------------------------------
# update map
#
# The vector kernels below compute, for all arguments at once, what
# ``aggregate`` and ``influence`` above compute for one; those stay as the
# scalar reference. The aggregations fold the parents in the scalar order,
# so they agree exactly; ``euler`` and ``pmax`` may differ by round-off,
# since numpy's exp and power are not the C library's. Edges arrive as
# parallel arrays in the CSR order of ``Bag``: the row each edge points
# into, its sign and the current strength of its source.

def _aggregate_rows(kind: str, m: int, rows: np.ndarray, sign: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    if kind == SUM:
        # bincount adds in edge order, which puts each row's supporters
        # before its attackers as the scalar sum does: the results are equal
        return np.bincount(rows, weights=sign * values, minlength=m)
    # index arrays, not boolean masks: a random mask indexes ~5x slower
    att = np.flatnonzero(sign < 0.0)
    sup = np.flatnonzero(sign > 0.0)
    if kind == PRODUCT:
        # the empty product 1 for parentless rows, as in the scalar fold
        pa = np.ones(m)
        np.multiply.at(pa, rows[att], 1.0 - values[att])
        ps = np.ones(m)
        np.multiply.at(ps, rows[sup], 1.0 - values[sup])
        return pa - ps
    # top: every row starts at 0.0, so rows without attackers or without
    # supporters need no masking (reduceat would misread empty segments)
    best_att = np.zeros(m)
    np.maximum.at(best_att, rows[att], values[att])
    best_sup = np.zeros(m)
    np.maximum.at(best_sup, rows[sup], values[sup])
    return best_sup - best_att


def _h_rows(x: np.ndarray, p: int) -> np.ndarray:
    # _h for x >= 0 with one formula and no overflow: y = min(x, 1/x) <= 1,
    # so y ** p stays finite, and h = y^p / (1 + y^p) below 1 and
    # 1 / (1 + y^p) from 1 on
    y = np.minimum(x, 1.0 / np.maximum(x, 1.0))
    yp = y ** p
    return np.where(x < 1.0, yp, 1.0) / (1.0 + yp)


def _influence_rows(spec: SemanticsSpec, w: np.ndarray,
                    a: np.ndarray) -> np.ndarray:
    kind = spec.influence
    if kind == LINEAR:
        kappa = spec.kappa
        outside = np.flatnonzero(np.abs(a) > kappa * (1.0 + 1e-9))
        if outside.size:
            raise _linear_domain_error(float(a[outside[0]]), kappa)
        a = np.clip(a, -kappa, kappa)
        return np.where(a < 0.0, w + (w / kappa) * a,
                        w + ((1.0 - w) / kappa) * a)
    if kind == EULER:
        e = np.exp(np.minimum(a, _EXP_MAX))
        out = 1.0 - (1.0 - w * w) / (1.0 + w * e)
        out = np.where(a > _EXP_MAX, np.where(w > 0.0, 1.0, 0.0), out)
        return np.where(a == 0.0, w, out)
    if kind == PMAX:
        # only one of the two _h terms of the scalar form is nonzero
        x = a / spec.kappa
        h = _h_rows(np.abs(x), spec.p)
        return np.where(x < 0.0, w - w * h, w + (1.0 - w) * h)
    return w.copy()  # constant


def _apply(spec: SemanticsSpec, w: np.ndarray, rows: np.ndarray,
           sign: np.ndarray, values: np.ndarray) -> np.ndarray:
    a = _aggregate_rows(spec.aggregation, w.size, rows, sign, values)
    return _influence_rows(spec, w, a)


def update(bag: Bag, spec: SemanticsSpec, s: Sequence[float]) -> np.ndarray:
    """One synchronous update: every argument recomputed from the old state."""
    s = np.asarray(s, dtype=float)
    return _apply(spec, bag.weights, bag.targets(), bag.sign, s[bag.src])


def update_rows(bag: Bag, spec: SemanticsSpec, s: Sequence[float],
                rows: Sequence[int]) -> np.ndarray:
    """``update(bag, spec, s)[rows]``, reading only the edges into ``rows``.

    Costs O(len(rows) + their parents), which lets a caller evaluate a graph
    piece by piece, such as one topological level at a time.
    """
    s = np.asarray(s, dtype=float)
    rows = np.asarray(rows, dtype=np.intp)
    edges, owner = bag.row_edges(rows)
    return _apply(spec, bag.weights[rows], owner, bag.sign[edges],
                  s[bag.src[edges]])


# ---------------------------------------------------------------------------
# analytic constants
#
# Each takes a scalar or an array (elementwise) and returns the same shape.

def _same_shape(out: np.ndarray) -> float | np.ndarray:
    return out if np.ndim(out) else float(out)


def lipschitz_aggregation(spec: SemanticsSpec,
                          indegree: int | np.ndarray) -> float | np.ndarray:
    """Max-norm Lipschitz constant of the aggregation over ``indegree`` parents."""
    d = np.asarray(indegree, dtype=float)
    return _same_shape(np.minimum(d, 2.0) if spec.aggregation == TOP else d)


def lipschitz_influence(spec: SemanticsSpec,
                        w: float | np.ndarray) -> float | np.ndarray:
    """Lipschitz constant of the influence for weight parameter ``w``."""
    w = np.asarray(w, dtype=float)
    if spec.influence == LINEAR:
        return _same_shape(np.maximum(w, 1.0 - w) / spec.kappa)
    if spec.influence == EULER:
        return _same_shape(np.full_like(w, 0.25))
    if spec.influence == PMAX:
        return _same_shape(spec.p * np.maximum(w, 1.0 - w) / spec.kappa)
    return _same_shape(np.zeros_like(w))  # constant


def codomain_bound(spec: SemanticsSpec,
                   indegree: int | np.ndarray) -> float | np.ndarray:
    """Bound B with aggregation values in [-B, B] over ``indegree`` parents."""
    d = np.asarray(indegree, dtype=float)
    # product and top are confined to [-1, 1], and every aggregation is 0
    # without parents
    return _same_shape(d if spec.aggregation == SUM else np.minimum(d, 1.0))


def validate_spec(bag: Bag, spec: SemanticsSpec) -> None:
    """Reject combinations whose influence domain the aggregation can escape.

    The linear influence only accepts aggregates in [-kappa, kappa], so every
    argument's aggregation bound must stay below kappa. The other influences
    accept any real and always validate.
    """
    if spec.influence != LINEAR:
        return
    bounds = codomain_bound(spec, np.diff(bag.indptr))
    too_wide = np.flatnonzero(bounds > spec.kappa)
    if too_wide.size:
        i = too_wide[0]
        bound = float(bounds[i])
        raise SemanticsConfigError(
            f"linear influence with kappa={spec.kappa:g} cannot absorb "
            f"argument {bag.names[i]!r}: its {spec.aggregation} "
            f"aggregation spans [-{bound:g}, {bound:g}], which exceeds "
            f"kappa; raise kappa to at least {bound:g} or switch the "
            f"aggregation/influence"
        )
