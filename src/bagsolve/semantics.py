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
    if a == 0.0:
        # w / kappa overflows for a subnormal kappa, and inf * 0 is NaN
        return w
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
# The vector kernel below computes, for all arguments at once, what
# ``aggregate`` and ``influence`` above compute for one; those stay as the
# scalar reference. The aggregations fold the parents in the scalar order,
# so they agree exactly; ``euler`` and ``pmax`` may differ by round-off,
# since numpy's exp and power are not the C library's.

def _paired(pos: np.ndarray, code: np.ndarray):
    # Numpy reduces axis 0 of a C-contiguous (d, m) array one row at a time,
    # so each argument folds its parents in CSR order, supporters then
    # attackers, as the scalar fold does; but it would sum a lone column as
    # a 1-D array, pairwise, so that one is folded (and written) twice.
    if code.shape[1] == 1:
        return pos.repeat(2), code.repeat(2, axis=1)
    return pos, code


def _build_kernel(bag: Bag, spec: SemanticsSpec):
    # What update needs of (bag, spec) but the strengths, all read-only:
    # the blocks (see _paired), whether one holds every argument in order,
    # the tables' identity entries and the influence's constants
    blocks = tuple(_paired(pos, code) for pos, code in bag.blocks)
    whole = len(blocks) == 1 and np.array_equal(blocks[0][0],
                                                np.arange(bag.n))
    pad = np.full(1 if spec.aggregation == SUM else bag.n + 1,
                  1.0 if spec.aggregation == PRODUCT else 0.0)
    w, consts = bag.weights, ()
    if spec.influence == LINEAR:
        with np.errstate(over="ignore"):  # inf for a subnormal kappa
            consts = (w / spec.kappa, (1.0 - w) / spec.kappa)
    elif spec.influence == EULER:
        consts = (1.0 - w * w, np.where(w > 0.0, 1.0, 0.0))
    elif spec.influence == PMAX:
        consts = (-w, 1.0 - w)
    for arr in (pad, *consts, *(x for block in blocks for x in block)):
        arr.setflags(write=False)
    return blocks, whole, pad, (w, *consts)


def _tables(kind: str, x: np.ndarray,
            pad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The supporter and attacker tables that the codes of ``Bag.blocks``
    # index, for the strengths x: [x | 0 | -x] for the sum (one table serves
    # both sides), which adds -x exactly as the scalar fold subtracts x; for
    # product and top one table per side, whose other half and padding hold
    # the fold's identity (1.0 - 0.0 = 1.0 and 0.0, which the scalar fold
    # starts from).
    if kind == SUM:
        sup = np.concatenate((x, pad, -x))
        return sup, sup
    u = 1.0 - x if kind == PRODUCT else x
    return np.concatenate((u, pad)), np.concatenate((pad, u))


def _fold(kind: str, sup: np.ndarray, att: np.ndarray,
          code: np.ndarray) -> np.ndarray:
    # The aggregate of every column of one block's codes (see _paired);
    # take gathers fast, into a C-contiguous array whatever the codes' layout
    if kind == SUM:
        return np.add.reduce(sup.take(code), axis=0)
    if kind == PRODUCT:
        return (np.multiply.reduce(att.take(code), axis=0)
                - np.multiply.reduce(sup.take(code), axis=0))
    return (np.maximum.reduce(sup.take(code), axis=0, initial=0.0)
            - np.maximum.reduce(att.take(code), axis=0, initial=0.0))


def _influence(spec: SemanticsSpec, consts: tuple[np.ndarray, ...],
               a: np.ndarray) -> np.ndarray:
    # iota_w(a) for every argument from the kernel's constants: w, then
    # w / kappa and (1 - w) / kappa for linear, 1 - w^2 and the saturation
    # values for euler, -w and 1 - w for pmax
    kind = spec.influence
    w = consts[0]
    if kind == LINEAR:
        kappa = spec.kappa
        outside = np.flatnonzero(np.abs(a) > kappa * (1.0 + 1e-9))
        if outside.size:
            raise _linear_domain_error(float(a[outside[0]]), kappa)
        a = np.clip(a, -kappa, kappa)
        with np.errstate(invalid="ignore"):  # inf * 0 for a subnormal kappa
            out = w + np.where(a < 0.0, consts[1], consts[2]) * a
    elif kind == EULER:
        out = 1.0 - consts[1] / (1.0 + w * np.exp(np.minimum(a, _EXP_MAX)))
        np.copyto(out, consts[2], where=a > _EXP_MAX)
    elif kind == PMAX:
        with np.errstate(over="ignore"):  # inf saturates h to 1
            x = a / spec.kappa
        # _h(|x|) without overflow: y = min(|x|, 1/|x|) <= 1, and h is
        # y^p / (1 + y^p) below 1, 1 / (1 + y^p) from 1 on; only one _h term
        # of the scalar form is nonzero, and w + (-w) * h is w - w * h
        ax = np.abs(x)
        yp = np.minimum(ax, 1.0 / np.maximum(ax, 1.0)) ** spec.p
        h = np.where(ax < 1.0, yp, 1.0) / (1.0 + yp)
        return w + np.where(x < 0.0, consts[1], consts[2]) * h
    else:
        return w.copy()  # constant
    np.copyto(out, w, where=a == 0.0)  # as in _infl_linear and _infl_euler
    return out


def update(bag: Bag, spec: SemanticsSpec, s: Sequence[float]) -> np.ndarray:
    """One synchronous update: every argument recomputed from the old state."""
    kind = spec.aggregation
    blocks, whole, pad, consts = bag.memo(spec, _build_kernel)
    tables = _tables(kind, np.asarray(s, dtype=float), pad)
    if whole:
        a = _fold(kind, *tables, blocks[0][1])
    else:
        a = np.zeros(bag.n)  # parentless arguments aggregate to 0
        for pos, code in blocks:
            a[pos] = _fold(kind, *tables, code)
    del tables  # freed before the influence allocates its temporaries
    return _influence(spec, consts, a)


def update_levels(bag: Bag, spec: SemanticsSpec,
                  levels: Sequence[Sequence[int]]) -> np.ndarray:
    """The strengths after updating the disjoint argument sets ``levels``
    in turn, starting from the weights; other arguments keep their weight.

    Each level is recomputed at once from the strengths the levels before
    it left, so over ``topological_levels`` this is the exact acyclic
    evaluation. The columns of each block of ``bag.blocks`` are ordered by
    level once; a level then costs a few numpy calls per block it has
    arguments in, plus O(its arguments and their parents).
    """
    kind = spec.aggregation
    _, _, pad, consts = bag.memo(spec, _build_kernel)
    values = bag.weights.copy()
    count = len(levels)
    level = np.full(bag.n, count, dtype=np.min_scalar_type(count))
    for j, rows in enumerate(levels):
        level[rows] = j
    plan = []  # per block: positions and codes by level, and level bounds
    for pos, code in bag.blocks:
        order = np.argsort(level[pos], kind="stable")
        ends = np.searchsorted(level[pos][order], np.arange(count + 1))
        plan.append((pos[order], code[:, order], ends.tolist()))
    sup, att = _tables(kind, values, pad)
    n = bag.n
    for j in range(count):
        rows, folds = [], []
        for pos, code, ends in plan:
            lo, hi = ends[j], ends[j + 1]
            if lo < hi:
                at, codes = _paired(pos[lo:hi], code[:, lo:hi])
                rows.append(at)
                folds.append(_fold(kind, sup, att, codes))
        if rows:
            rows = np.concatenate(rows)
            new = _influence(spec, tuple(c[rows] for c in consts),
                             np.concatenate(folds))
            values[rows] = new
            # enter the new strengths into the tables, as _tables does
            u = 1.0 - new if kind == PRODUCT else new
            sup[rows] = u
            att[rows + (n + 1)] = -u if kind == SUM else u
    return values


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
    with np.errstate(over="ignore"):  # inf for a subnormal kappa
        if spec.influence == LINEAR:
            return _same_shape(np.maximum(w, 1.0 - w) / spec.kappa)
        if spec.influence == PMAX:
            return _same_shape(spec.p * np.maximum(w, 1.0 - w) / spec.kappa)
    if spec.influence == EULER:
        return _same_shape(np.full_like(w, 0.25))
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
