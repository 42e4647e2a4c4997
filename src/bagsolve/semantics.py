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
                f"expected one of {AGGREGATIONS}")
        if self.influence not in INFLUENCES:
            raise SemanticsConfigError(
                f"unknown influence {self.influence!r}; "
                f"expected one of {INFLUENCES}")
        if self.influence in (LINEAR, PMAX) and not self.kappa > 0:
            raise SemanticsConfigError(f"kappa must be positive, got {self.kappa}")
        if self.influence == PMAX:
            try:
                p = self.p * 1.0  # float() would also read a string
            except OverflowError:  # an integer past float range
                raise SemanticsConfigError(
                    "p must be a positive integer within float range") from None
            if not (p >= 1.0 and p.is_integer()):
                raise SemanticsConfigError(
                    f"p must be a positive integer, got {self.p}")


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
# The aggregation (``_tables``/``_fold``), the influence (``_influence``) and
# their update map (``_sweep``) are written once; ``aggregate`` and
# ``influence`` run them on what the checks of ``analysis`` sample.

def _tables(kind: str, x: np.ndarray, tables=None, rows=slice(None)):
    # The tables of x, or ``tables`` with x entered for ``rows``: supporter
    # p at p, attacker p at n + 1 + p, the fold's identity elsewhere (so the
    # sum's one table is [x | 0 | -x], and adding -x subtracts x exactly)
    if tables is None:
        n, sup = x.size, np.empty(2 * x.size + 1)
        tables = sup, sup if kind == SUM else np.empty(2 * n + 1)
        if kind == SUM:
            sup[n] = 0.0
        else:
            sup[n:] = tables[1][:n + 1] = 1.0 if kind == PRODUCT else 0.0
    sup, att = tables
    n = sup.size // 2
    u = 1.0 - x if kind == PRODUCT else x
    sup[:n][rows] = u
    att[n + 1:][rows] = -u if kind == SUM else u
    return tables


def _fold(kind: str, sup: np.ndarray, att: np.ndarray,
          code: np.ndarray) -> np.ndarray:
    # The aggregate of each column of a block's codes, parents in CSR order:
    # numpy reduces axis 0 row by row, but a lone column pairwise, so pair it
    if code.shape[1] == 1:
        return _fold(kind, sup, att, code.repeat(2, axis=1))[:1]
    if kind == SUM:
        return np.add.reduce(sup.take(code), axis=0)
    if kind == PRODUCT:
        return (np.multiply.reduce(att.take(code), axis=0)
                - np.multiply.reduce(sup.take(code), axis=0))
    return (np.maximum.reduce(sup.take(code), axis=0, initial=0.0)
            - np.maximum.reduce(att.take(code), axis=0, initial=0.0))


def _influence(spec: SemanticsSpec, w: np.ndarray,
               a: np.ndarray) -> np.ndarray:
    # iota_w(a) (see influence) for every weight w and aggregate a
    kind = spec.influence
    if kind == LINEAR:
        kappa = spec.kappa
        outside = np.flatnonzero(np.abs(a) > kappa * (1.0 + 1e-9))
        if outside.size:
            raise ValueError(
                f"linear influence got aggregate {float(a[outside[0]])!r} "
                f"outside [-kappa, kappa] with kappa={kappa}; validate the "
                f"semantics against the graph")
        a = np.clip(a, -kappa, kappa)
        side = np.where(a < 0.0, w, 1.0 - w)
        if kappa <= _KAPPA_MIN:  # w / kappa overflows; |a / kappa| <= 1
            out = w + side * (a / kappa)
        else:
            with np.errstate(invalid="ignore"):  # 0 * inf at kappa = inf
                out = w + side / kappa * a
        # w + w / kappa * a can round below 0 at a = -kappa
        np.clip(out, 0.0, 1.0, out=out)
    elif kind == EULER:
        out = 1.0 - (1.0 - w * w) / (1.0 + w * np.exp(np.minimum(a, _EXP_MAX)))
        np.copyto(out, w > 0.0, where=a > _EXP_MAX)
    elif kind == PMAX:
        with np.errstate(over="ignore"):  # inf saturates h to 1
            x = a / spec.kappa
        # h(|x|) without overflow: y = min(|x|, 1/|x|) <= 1, and h is
        # y^p / (1 + y^p) below 1, 1 / (1 + y^p) from 1 on; only one h term
        # of the pmax form is nonzero, and w + (-w) * h is w - w * h
        ax = np.abs(x)
        yp = np.minimum(ax, 1.0 / np.maximum(ax, 1.0)) ** spec.p
        h = np.where(ax < 1.0, yp, 1.0) / (1.0 + yp)
        return w + np.where(x < 0.0, -w, 1.0 - w) * h
    else:
        return w.copy()  # constant
    np.copyto(out, w, where=a == 0.0)
    return out


def _joined(parts: list) -> np.ndarray:  # a deep DAG's levels have one part
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sweep(bag: Bag, spec: SemanticsSpec, start: np.ndarray, plans):
    # The update map from tables of ``start``, one plan (codes per block,
    # arguments in block order, their weights) per level, into a copy
    # of the weights and, but the last level's, the tables. The first plan,
    # the tables and the copy are made in turn, so their peaks do not add.
    plans = iter(plans)
    plan, values = next(plans, None), None
    tables = _tables(spec.aggregation, start)
    while plan is not None:
        codes, rows, w = plan
        a = _joined([_fold(spec.aggregation, *tables, code) for code in codes])
        if (plan := next(plans, None)) is None:
            del tables  # freed before the influence allocates its temporaries
        new = _influence(spec, w, a)
        values = bag.weights.copy() if values is None else values
        values[rows] = new
        if plan is not None:
            _tables(spec.aggregation, new, tables, rows)
    return bag.weights.copy() if values is None else values


def _plans(bag: Bag, level: np.ndarray):
    # The sweep's plans over ``level``, one integer in [0, n) per argument,
    # made as the sweep reaches them: for each level with arguments with
    # parents (at aggregate 0 every influence returns w), its columns of the
    # indegree blocks, their arguments and their weights. Arguments whose
    # indegrees have the same bit length share a block, sorted by (level,
    # index) and padded to the largest indegree d among them: so there are
    # at most max_indegree.bit_length() blocks, and fewer than 2 x edges
    # slots. Row k of a block's (d, len(pos)) array ``code`` codes each
    # argument's k-th parent (CSR order) into the tables, and n pads a
    # column of fewer than d parents.
    n, starts, degree = bag.n, bag.indptr[:-1], np.diff(bag.indptr)
    length = np.frexp(degree)[1]  # bit length; 0 for the parentless
    bounds = np.arange(int(level.max(initial=0)) + 2)  # level j: [j, j + 1)
    blocks = []
    for b in range(1, int(length.max(initial=0)) + 1):
        pos = np.flatnonzero(length == b)
        if not pos.size:
            continue
        pos = pos[np.argsort(level[pos], kind="stable")]
        k_th = np.arange(degree[pos].max())[:, None]
        slots = k_th + starts[pos]
        live = k_th < degree[pos]
        slots[~live] = 0
        at = bag.src[slots]
        code = np.where(bag.sign[slots] < 0.0, at + (n + 1), at)
        code[~live] = n
        ends = np.searchsorted(level[pos], bounds).tolist()
        blocks.append((pos, code, ends))
        del slots, live, at  # the sweep holds only the blocks
    del starts, degree, length
    for j in range(bounds.size - 1):
        codes, rows = [], []
        for pos, code, ends in blocks:
            lo, hi = ends[j], ends[j + 1]
            if lo < hi:
                codes.append(code[:, lo:hi])
                rows.append(pos[lo:hi])
        if codes:
            rows = _joined(rows)
            yield codes, rows, bag.weights[rows]


def _update_plan(bag: Bag):
    # update's plans: those of one level holding every argument; the only
    # kernel entry kept on the Bag, shared by threads and by every spec, so
    # read-only
    plans = tuple(_plans(bag, np.zeros(bag.n, np.uint8)))
    for codes, rows, w in plans:
        for arr in (rows, w, *codes):
            arr.setflags(write=False)
    return plans


def aggregate(spec: SemanticsSpec, v, s) -> float | np.ndarray:
    """Fold parent strengths into one signed real.

    ``v`` is a parent vector over {-1, 0, +1} and ``s`` the strengths, of
    the same length; only coordinates with nonzero entries are read, and
    the result is 0 whenever ``v`` is all zero. Given (m, n) arrays, one
    parent vector and one state per row, it returns the m aggregates. Each
    row is folded as ``update`` folds an argument: its supporters, then its
    attackers, each by index, then the padding. An entry of ``v`` other
    than -1, 0 or +1, or a strength outside [0, 1] or NaN (the domain
    ``update`` checks too), raises ValueError.
    """
    rows = np.atleast_2d(v)
    x = np.asarray(s, dtype=float).reshape(rows.size)
    _refuse("a parent entry must be -1, 0 or +1", rows,
            np.isin(rows, (-1, 0, 1)))
    _refuse_strengths(x)
    size, kind = x.size, spec.aggregation
    # codes into the tables of x; the padding sorts last as 2 size + 1
    at = np.arange(size).reshape(rows.shape)
    code = np.where(rows == 1, at,
                    np.where(rows == -1, at + (size + 1), 2 * size + 1))
    code.sort(axis=1)
    a = _fold(kind, *_tables(kind, x), np.where(code.T > 2 * size, size,
                                                code.T))
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
    runs). A weight outside [0, 1] or NaN, or a NaN aggregate, raises
    ValueError; an infinite aggregate saturates, but at kappa = inf, where
    a / kappa is undefined, it raises ValueError for linear and pmax.
    """
    w, a = np.broadcast_arrays(np.asarray(w, float), np.asarray(a, float))
    _refuse("a weight must be in [0, 1]", w, (w >= 0.0) & (w <= 1.0))
    _refuse("an aggregate must not be NaN", a, a == a)
    if spec.influence in (LINEAR, PMAX) and spec.kappa == np.inf:
        _refuse("an aggregate must be finite at kappa = inf", a, np.isfinite(a))
    out = _influence(spec, w.ravel(), a.ravel())
    return _same_shape(out.reshape(w.shape))


def _refuse(rule: str, x: np.ndarray, ok: np.ndarray) -> None:
    # ValueError naming the first entry of x that is not ok
    if not ok.all():
        raise ValueError(f"{rule}, got {x.ravel()[np.argmin(ok)].item()!r}")


def _refuse_strengths(x: np.ndarray) -> None:  # aggregate's and update's
    _refuse("a strength must be in [0, 1]", x, (x >= 0.0) & (x <= 1.0))


def update(bag: Bag, spec: SemanticsSpec, s: Sequence[float]) -> np.ndarray:
    """One synchronous update of every argument from the old state ``s``, one
    strength in [0, 1] per argument (else ValueError): a one-level sweep."""
    x = np.asarray(s, dtype=float)
    if x.shape != (bag.n,):
        raise ValueError(
            f"expected a state of {bag.n} strengths, got shape {x.shape}")
    _refuse_strengths(x)
    return _sweep(bag, spec, x, bag.memo(_update_plan))


def update_levels(bag: Bag, spec: SemanticsSpec,
                  levels: Sequence[int]) -> np.ndarray:
    """The strengths after updating the arguments level by level from the
    weights, each level from what the lower ones left. ``levels`` holds one
    integer in [0, n) per argument, else ValueError; over
    ``topological_levels`` this is the exact acyclic solve. A level costs a
    few numpy calls per indegree block, plus O(its edges)."""
    n = bag.n
    try:
        level = np.asarray(levels)
    except ValueError:  # a ragged nesting, such as a list of index sets
        level = None
    if level is None or level.shape != (n,) or n and not (
            level.dtype.kind in "iu" and 0 <= level.min() <= level.max() < n):
        raise ValueError(
            f"levels must hold one integer in [0, {n}) per argument")
    return _sweep(bag, spec, bag.weights, _plans(bag, level))


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
