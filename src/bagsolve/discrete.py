"""Discrete solving: exact acyclic evaluation and the analytic bounds.

Acyclic graphs are solved exactly in one pass along a topological order,
cyclic ones by the iterative solvers in ``continuous``. Per argument, the
product of the aggregation's and the influence's Lipschitz constants is the
contraction certificate's factor (all below 1: an a-priori iteration count
for any accuracy); with the aggregation's codomain bound instead, it bounds
how far the final strength can move from the weight: the paper's tradeoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Bag, max_indegree, topological_levels
from .semantics import (
    CONSTANT,
    EULER,
    LINEAR,
    PMAX,
    PRODUCT,
    TOP,
    SemanticsSpec,
    codomain_bound,
    lipschitz_aggregation,
    lipschitz_influence,
    update_levels,
    validate_spec,
)


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
    maximum stays below 1 the map is a contraction: the fixed point is unique
    and ``iterations_for(eps)`` update steps provably land within eps of it.

    ``rule`` names what guarantees convergence: a max-indegree rule
    (``"constant-influence"``, ``"top+euler"`` or
    ``"indegree:<aggregation>+<influence>"``) when one applies,
    ``"contraction"`` when only the per-argument products do, and ``"none"``
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
                f"{self.global_lambda:g} >= 1, so no iteration bound exists"
            )
        if self.global_lambda == 0.0:
            return 1
        # smallest integer strictly greater than log(eps)/log(lambda)
        return math.floor(math.log(epsilon) / math.log(self.global_lambda)) + 1


def _indegree_rule(spec: SemanticsSpec, d: int) -> Optional[str]:
    # The max-indegree corollaries: each bounds every per-argument lambda by
    # d times the influence constant, so they only name cases that the
    # certificate decides anyway.
    if spec.influence == CONSTANT:
        return "constant-influence"
    if (spec.aggregation, spec.influence) == (TOP, EULER):
        return "top+euler"
    limit = {(PRODUCT, LINEAR): spec.kappa, (PRODUCT, EULER): 4.0}.get(
        (spec.aggregation, spec.influence))
    if spec.influence == PMAX and spec.aggregation != TOP:
        limit = spec.kappa / spec.p  # p is only checked for pmax
    if limit is not None and d < limit:
        return f"indegree:{spec.aggregation}+{spec.influence}"
    return None


def _lipschitz_products(bag: Bag, spec: SemanticsSpec,
                        constant: Callable) -> np.ndarray:
    # constant(spec, indegree) * lipschitz_influence(spec, weight), and 0
    # without parents, where it could be 0 * inf (a subnormal kappa) = NaN
    validate_spec(bag, spec)
    degree = np.diff(bag.indptr)
    return np.multiply(constant(spec, degree),
                       lipschitz_influence(spec, bag.weights),
                       out=np.zeros(bag.n), where=degree > 0)


def certify(bag: Bag, spec: SemanticsSpec) -> ConvergenceCertificate:
    """Compute the contraction certificate for (bag, spec)."""
    lams = _lipschitz_products(bag, spec, lipschitz_aggregation)
    global_lambda = float(lams.max(initial=0.0))
    guaranteed = global_lambda < 1.0
    rule = ((_indegree_rule(spec, max_indegree(bag)) or "contraction")
            if guaranteed else "none")
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
        s = np.asarray(strengths, dtype=float)
        return bool(np.all(s >= self.lower - slack)
                    and np.all(s <= self.upper + slack))


def open_mindedness_bound(bag: Bag, spec: SemanticsSpec) -> OpenMindednessBound:
    """Intervals [w_i - B_i*l_i, w_i + B_i*l_i] bounding any final strength
    ([w_i, w_i] for a parentless argument). Under ``sum`` aggregation B_i is
    the indegree, so the radii are the certificate's per-argument factors."""
    radii = _lipschitz_products(bag, spec, codomain_bound)
    return OpenMindednessBound(bag.weights - radii, bag.weights + radii)
