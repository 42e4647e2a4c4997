"""Discrete solving: exact acyclic evaluation and the analytic bounds.

Acyclic graphs are solved exactly in one pass along a topological order,
cyclic ones by the iterative solvers in ``continuous``. Per argument, the
product of the aggregation's and the influence's Lipschitz constants is the
contraction certificate's factor (all below 1: an a-priori iteration count
for any accuracy; below 1 at the largest indegree and weight 1: the paper's
indegree condition); with the aggregation's codomain bound instead, it
bounds how far the final strength can move from the weight: the tradeoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Bag, topological_levels
from .semantics import (
    SemanticsSpec,
    codomain_bound,
    lipschitz_aggregation,
    lipschitz_influence,
    update_levels,
    validate_spec,
)

# A product rounds at most four times (1 - w, p m, / kappa, x constant), by
# a relative 2**-53 each, so below 1 / _MARGIN it is exactly below 1 too
_MARGIN = 1.0 + 2.0 ** -50


class CyclicGraphError(ValueError):
    """Single-pass evaluation was asked for a graph with cycles."""


def solve_acyclic(bag: Bag, spec: SemanticsSpec) -> np.ndarray:
    """Exact strengths for an acyclic BAG in one topological pass.

    Each topological level is evaluated once, after all of its parents are
    final, by one sweep of the update kernel over indegree blocks sorted by
    these levels and not kept on the Bag, so the result is the exact limit
    of the update iteration.
    Raises CyclicGraphError when the graph has a cycle; use iterate or one
    of the integrators in ``continuous`` in that case.
    """
    validate_spec(bag, spec)
    levels = topological_levels(bag)
    if levels is None:
        raise CyclicGraphError(
            "graph contains a cycle; single-pass evaluation only works on "
            "acyclic graphs — use the iterative or continuous solvers"
        )
    return update_levels(bag, spec, levels)


@dataclass(frozen=True, eq=False)
class ConvergenceCertificate:
    """Per-argument contraction factors of the update map.

    Each entry is the product of the aggregation constant (grows with
    indegree) and the influence constant for that argument's weight. When the
    maximum stays below 1 (by a margin of 2**-50 for rounding) the map is a
    contraction: the fixed point is unique and ``iterations_for(eps)``
    update steps provably land within eps of it.

    ``rule`` names what guarantees convergence:
    ``"indegree:<aggregation>+<influence>"`` when the product stays below 1
    at the largest indegree and weight 1, so any weights on these edges are
    certified; ``"contraction"`` when only these weights are; ``"none"``
    when nothing is guaranteed (the run may still converge).
    """

    per_argument_lambda: np.ndarray
    global_lambda: float
    guaranteed: bool
    rule: str

    def iterations_for(self, epsilon: float) -> int:
        """Smallest iteration count guaranteed to reach the fixed point
        within ``epsilon`` (max-norm), valid only for certified runs."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if not self.guaranteed:
            raise ValueError(
                "no contraction certificate: the Lipschitz product reaches "
                f"{self.global_lambda!r}, not below 1, so no bound exists"
            )
        if self.global_lambda == 0.0:
            return 1
        # smallest integer strictly greater than log(eps)/log(lambda)
        return math.floor(math.log(epsilon) / math.log(self.global_lambda)) + 1


def _lipschitz_products(spec: SemanticsSpec, constant: Callable, degree,
                        weights) -> np.ndarray:
    # constant(spec, degree) * lipschitz_influence(spec, weights), scalars or
    # arrays, and 0 without parents, where 0 * inf (a subnormal kappa) = NaN
    return np.multiply(constant(spec, degree),
                       lipschitz_influence(spec, weights),
                       out=np.zeros(np.shape(degree)), where=degree > 0)


def certify(bag: Bag, spec: SemanticsSpec) -> ConvergenceCertificate:
    """Compute the contraction certificate for (bag, spec)."""
    validate_spec(bag, spec)
    degree = np.diff(bag.indptr)
    lams = _lipschitz_products(spec, lipschitz_aggregation, degree,
                               bag.weights)
    global_lambda = float(lams.max(initial=0.0))
    guaranteed = global_lambda * _MARGIN < 1.0
    # every aggregation constant grows with the indegree, and every
    # influence constant peaks at weight 1 (and 0): the largest product
    # that any weights on these edges can give
    worst = _lipschitz_products(spec, lipschitz_aggregation,
                                degree.max(initial=0), 1.0)
    rule = (f"indegree:{spec.aggregation}+{spec.influence}"
            if worst * _MARGIN < 1.0 else
            "contraction" if guaranteed else "none")
    return ConvergenceCertificate(lams, global_lambda, guaranteed, rule)


@dataclass(frozen=True, eq=False)
class OpenMindednessBound:
    """Per-argument interval that the final strength cannot leave.

    The width is twice the aggregation codomain bound times the influence
    Lipschitz constant, centered on the initial weight: a conservative
    influence simply cannot move a weight further than that, no matter what
    the parents do.
    """

    lower: np.ndarray
    upper: np.ndarray

    def contains(self, strengths: np.ndarray, slack: float = 1e-12) -> bool:
        """Whether every argument's strength is in its interval."""
        s = np.asarray(strengths, dtype=float)
        if s.shape != self.lower.shape:
            raise ValueError(f"expected a state of {self.lower.size} "
                             f"strengths, got shape {s.shape}")
        return bool(np.all(s >= self.lower - slack)
                    and np.all(s <= self.upper + slack))


def open_mindedness_bound(bag: Bag, spec: SemanticsSpec) -> OpenMindednessBound:
    """Intervals [w_i - B_i*l_i, w_i + B_i*l_i] bounding any final strength
    ([w_i, w_i] for a parentless argument). Under ``sum`` aggregation B_i is
    the indegree, so the radii are the certificate's per-argument factors."""
    validate_spec(bag, spec)
    radii = _lipschitz_products(spec, codomain_bound, np.diff(bag.indptr),
                                bag.weights)
    return OpenMindednessBound(bag.weights - radii, bag.weights + radii)
