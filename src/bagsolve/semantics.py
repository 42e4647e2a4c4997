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

_EXP_MAX = 709.0  # exp overflows past this; euler saturates there
_KAPPA_MIN = 2.0 ** -1024  # 1 / kappa overflows from here down


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
# update kernel
#
# The aggregation (``_tables``/``_fold``) and the influence (``_influence``)
# are written once: ``update`` and ``update_levels`` run them on a Bag's
# cached blocks, ``aggregate`` and ``influence`` on parent vectors and
# (w, a) pairs, which is what the property checks of ``analysis`` sample.

def _paired(pos: np.ndarray, code: np.ndarray):
    # Numpy reduces axis 0 of a C-contiguous (d, m) array one row at a time,
    # so each column folds its parents in order, supporters then attackers,
    # one at a time; but it would sum a lone column as a 1-D array,
    # pairwise, so that one is folded (and written) twice.
    if code.shape[1] == 1:
        return pos.repeat(2), code.repeat(2, axis=1)
    return pos, code


def _identity_pad(kind: str, n: int) -> np.ndarray:
    # The entries of the tables besides the n strengths (see _tables)
    return np.full(1 if kind == SUM else n + 1, 1.0 if kind == PRODUCT else 0.0)


def _influence_constants(spec: SemanticsSpec,
                         w: np.ndarray) -> tuple[np.ndarray, ...]:
    # w, then what _influence reads besides it
    if spec.influence == LINEAR:
        with np.errstate(over="ignore"):  # inf for a subnormal kappa
            return w, w / spec.kappa, (1.0 - w) / spec.kappa
    if spec.influence == EULER:
        return w, 1.0 - w * w, np.where(w > 0.0, 1.0, 0.0)
    if spec.influence == PMAX:
        return w, -w, 1.0 - w
    return (w,)


def _build_kernel(bag: Bag, spec: SemanticsSpec):
    # What update needs of (bag, spec) but the strengths, all read-only:
    # the blocks (see _paired), whether one holds every argument in order,
    # the tables' identity entries and the influence's constants
    blocks = tuple(_paired(pos, code) for pos, code in bag.blocks)
    whole = len(blocks) == 1 and np.array_equal(blocks[0][0],
                                                np.arange(bag.n))
    pad = _identity_pad(spec.aggregation, bag.n)
    consts = _influence_constants(spec, bag.weights)
    for arr in (pad, *consts, *(x for block in blocks for x in block)):
        arr.setflags(write=False)
    return blocks, whole, pad, consts


def _tables(kind: str, x: np.ndarray,
            pad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The supporter and attacker tables that the codes of ``Bag.blocks``
    # index, for the strengths x: [x | 0 | -x] for the sum (one table serves
    # both sides; adding -x subtracts x exactly); for product and top one
    # table per side, whose other half and padding hold the fold's identity
    # (1.0 - 0.0 = 1.0 and 0.0).
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
    # iota_w(a) (see influence) for every argument from its constants
    kind = spec.influence
    w = consts[0]
    if kind == LINEAR:
        kappa = spec.kappa
        outside = np.flatnonzero(np.abs(a) > kappa * (1.0 + 1e-9))
        if outside.size:
            raise ValueError(
                f"linear influence got aggregate {float(a[outside[0]])!r} "
                f"outside [-kappa, kappa] with kappa={kappa}; validate the "
                f"semantics against the graph")
        a = np.clip(a, -kappa, kappa)
        if kappa <= _KAPPA_MIN:  # w / kappa overflows; |a / kappa| <= 1
            out = w + np.where(a < 0.0, w, 1.0 - w) * (a / kappa)
        else:
            with np.errstate(invalid="ignore"):  # 0 * inf at kappa = inf
                out = w + np.where(a < 0.0, consts[1], consts[2]) * a
    elif kind == EULER:
        out = 1.0 - consts[1] / (1.0 + w * np.exp(np.minimum(a, _EXP_MAX)))
        np.copyto(out, consts[2], where=a > _EXP_MAX)
    elif kind == PMAX:
        with np.errstate(over="ignore"):  # inf saturates h to 1
            x = a / spec.kappa
        # h(|x|) without overflow: y = min(|x|, 1/|x|) <= 1, and h is
        # y^p / (1 + y^p) below 1, 1 / (1 + y^p) from 1 on; only one h term
        # of the pmax form is nonzero, and w + (-w) * h is w - w * h
        ax = np.abs(x)
        yp = np.minimum(ax, 1.0 / np.maximum(ax, 1.0)) ** spec.p
        h = np.where(ax < 1.0, yp, 1.0) / (1.0 + yp)
        return w + np.where(x < 0.0, consts[1], consts[2]) * h
    else:
        return w.copy()  # constant
    np.copyto(out, w, where=a == 0.0)
    return out


def aggregate(spec: SemanticsSpec, v, s) -> float | np.ndarray:
    """Fold parent strengths into one signed real.

    ``v`` is a parent vector over {-1, 0, +1} and ``s`` the strengths, of
    the same length; only coordinates with nonzero entries are read, and
    the result is 0 whenever ``v`` is all zero. Given (m, n) arrays, one
    parent vector and one state per row, it returns the m aggregates. Each
    row is folded as ``update`` folds a column of ``Bag.blocks``: its
    supporters, then its attackers, each by index, then the padding.
    """
    rows = np.atleast_2d(v)
    x = np.asarray(s, dtype=float).reshape(rows.size)
    size, kind = x.size, spec.aggregation
    # codes into the tables of x; the padding sorts last as 2 size + 1
    at = np.arange(size).reshape(rows.shape)
    code = np.where(rows == 1, at,
                    np.where(rows == -1, at + (size + 1), 2 * size + 1))
    code.sort(axis=1)
    pos, code = _paired(np.arange(len(rows)),
                        np.where(code.T > 2 * size, size, code.T))
    a = np.empty(len(rows))
    a[pos] = _fold(kind, *_tables(kind, x, _identity_pad(kind, size)), code)
    return float(a[0]) if np.ndim(v) == 1 else a


def influence(spec: SemanticsSpec, w, a) -> float | np.ndarray:
    """Move the initial weight ``w`` according to the aggregate ``a``.

    linear: w + w a / kappa for a < 0, else w + (1 - w) a / kappa; euler:
    1 - (1 - w^2) / (1 + w e^a); pmax: w - w h(-a / kappa) +
    (1 - w) h(a / kappa), with h(x) = x^p / (1 + x^p) for x > 0, else 0;
    constant: w. Takes scalars or arrays, elementwise, and returns the same
    shape, in [0, 1], bit for bit what ``update`` computes for an argument
    of weight ``w`` and aggregate ``a``. An aggregate of 0 always returns
    ``w`` unchanged. The linear influence is only defined for |a| <= kappa
    and raises otherwise (validate_spec rules that out for well-configured
    runs).
    """
    w, a = np.broadcast_arrays(np.asarray(w, float), np.asarray(a, float))
    out = _influence(spec, _influence_constants(spec, w.ravel()), a.ravel())
    return _same_shape(out.reshape(w.shape))


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
