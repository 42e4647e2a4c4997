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

    def describe(self) -> str:
        parts = [self.aggregation, self.influence]
        if self.influence in (LINEAR, PMAX):
            parts.append(f"kappa={self.kappa:g}")
        if self.influence == PMAX:
            parts.append(f"p={self.p}")
        return "+".join(parts[:2]) + (
            f" ({', '.join(parts[2:])})" if len(parts) > 2 else ""
        )


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


def _infl_linear(w: float, a: float, kappa: float) -> float:
    if abs(a) > kappa * (1.0 + 1e-9):
        raise ValueError(
            f"linear influence got aggregate {a!r} outside [-kappa, kappa] "
            f"with kappa={kappa}; validate the semantics against the graph"
        )
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

def update(bag: Bag, spec: SemanticsSpec, s: Sequence[float]) -> np.ndarray:
    """One synchronous update: every argument recomputed from the old state."""
    values = np.asarray(s, dtype=float).tolist()
    agg = _AGG_FUNCS[spec.aggregation]
    weights = bag.weights.tolist()
    out = [0.0] * bag.n
    for i in range(bag.n):
        a = agg(bag.attackers_of(i), bag.supporters_of(i), values)
        out[i] = influence(spec, weights[i], a)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# analytic constants

def lipschitz_aggregation(spec: SemanticsSpec, indegree: int) -> float:
    """Max-norm Lipschitz constant of the aggregation over ``indegree`` parents."""
    if spec.aggregation == TOP:
        return float(min(2, indegree))
    return float(indegree)


def lipschitz_influence(spec: SemanticsSpec, w: float) -> float:
    """Lipschitz constant of the influence for weight parameter ``w``."""
    if spec.influence == LINEAR:
        return max(w, 1.0 - w) / spec.kappa
    if spec.influence == EULER:
        return 0.25
    if spec.influence == PMAX:
        return spec.p * max(w, 1.0 - w) / spec.kappa
    return 0.0  # constant


def codomain_bound(spec: SemanticsSpec, indegree: int) -> float:
    """Bound B with aggregation values in [-B, B] over ``indegree`` parents."""
    if indegree == 0:
        return 0.0
    if spec.aggregation == SUM:
        return float(indegree)
    return 1.0  # product and top are confined to [-1, 1]


def validate_spec(bag: Bag, spec: SemanticsSpec) -> None:
    """Reject combinations whose influence domain the aggregation can escape.

    The linear influence only accepts aggregates in [-kappa, kappa], so every
    argument's aggregation bound must stay below kappa. The other influences
    accept any real and always validate.
    """
    if spec.influence != LINEAR:
        return
    for i in range(bag.n):
        bound = codomain_bound(spec, bag.indegree(i))
        if bound > spec.kappa:
            raise SemanticsConfigError(
                f"linear influence with kappa={spec.kappa:g} cannot absorb "
                f"argument {bag.names[i]!r}: its {spec.aggregation} "
                f"aggregation spans [-{bound:g}, {bound:g}], which exceeds "
                f"kappa; raise kappa to at least {bound:g} or switch the "
                f"aggregation/influence"
            )
