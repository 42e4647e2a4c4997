"""Discrete solving: exact acyclic evaluation and contraction certificates.

Acyclic graphs are solved exactly in one pass along a topological order.
Cyclic graphs need the iterative solvers in ``continuous`` (fixed-point
iteration is their unit-step Euler case). When the per-argument Lipschitz
products all stay below 1 the update map is a contraction, which yields a
certificate with an a-priori iteration count for any target accuracy; the
certificate also names the cheap max-indegree rule that covers it, if any.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


def certify(bag: Bag, spec: SemanticsSpec) -> ConvergenceCertificate:
    """Compute the contraction certificate for (bag, spec)."""
    validate_spec(bag, spec)
    degree = np.diff(bag.indptr)  # 0 * inf (a subnormal kappa) is NaN
    lams = np.multiply(lipschitz_aggregation(spec, degree),
                       lipschitz_influence(spec, bag.weights),
                       out=np.zeros(bag.n), where=degree > 0)
    global_lambda = float(lams.max(initial=0.0))
    guaranteed = global_lambda < 1.0
    rule = ((_indegree_rule(spec, max_indegree(bag)) or "contraction")
            if guaranteed else "none")
    return ConvergenceCertificate(lams, global_lambda, guaranteed, rule)
