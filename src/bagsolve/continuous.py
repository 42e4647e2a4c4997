"""Iterative solving: fixed-point iteration and the continuized flow
d(sigma)/dt = update(sigma) - sigma.

Replacing the discrete update with its flow keeps every fixed point in place
(the derivative vanishes exactly there) but smooths the path toward it, which
resolves the period-2 oscillation that kills the discrete iteration on some
cyclic graphs. Discrete iteration is the flow sampled by explicit Euler with
step 1, so iterate, integrate_euler and integrate_rk4 share one solver loop
and differ only in the step they take; with step 1 the Euler run reproduces
the discrete iteration bit for bit.

``solve`` is the one place that picks a mode: exact single-pass evaluation
for acyclic graphs, RK4 on the flow otherwise, unless a mode is named.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import discrete
from .core import Bag
from .results import Outcome, SolveResult, Trajectory
from .semantics import SemanticsSpec, update, validate_spec

DEFAULT_DELTA = 0.01
DEFAULT_TOLERANCE = 1e-4
DEFAULT_T_MAX = 10_000.0
DEFAULT_MAX_ITERATIONS = 100_000
MODES = ("auto", "acyclic", "discrete", "euler", "rk4")

# Two sampled states this close (max-norm) count as the same state when
# looking for period-2 oscillation.
CYCLE_EPS = 1e-9
# A reported cycle must swing well above the state-match threshold, or a
# slowly converging oscillation would be misread as divergence when the run
# tolerance is tighter than CYCLE_EPS.
CYCLE_MIN_AMPLITUDE = 1e-7

# (state, update(state)) -> next state, before clipping into [0, 1]
Step = Callable[[np.ndarray, np.ndarray], np.ndarray]


def rhs(bag: Bag, spec: SemanticsSpec, sigma: np.ndarray) -> np.ndarray:
    """Time derivative of the continuized system at state ``sigma``."""
    return update(bag, spec, sigma) - np.asarray(sigma, dtype=float)


def verify_fixed_point(bag: Bag, spec: SemanticsSpec,
                       s: np.ndarray, tol: float) -> bool:
    """True when one update moves no coordinate of ``s`` by more than ``tol``."""
    s = np.asarray(s, dtype=float)
    return float(np.abs(update(bag, spec, s) - s).max(initial=0.0)) <= tol


def _solve(bag: Bag, spec: SemanticsSpec, step: Step, dt: float,
           tolerance: float, budget: float, record_trajectory: bool,
           report_update: bool = False) -> SolveResult:
    """The solver loop behind iterate and both integrators.

    Visits x_0 = weights and x_{k+1} = clip(step(x_k, update(x_k))) at times
    t_k = k * dt. Each pass checks, in this order: period-2 oscillation (x_k
    within CYCLE_EPS of x_{k-2} while x_{k-1} -> x_k moved more than the
    tolerance), the budget (t_k >= budget, before any work), then makes one
    update, stops when it moves no coordinate of x_k by more than the
    tolerance, and otherwise steps. A converged run reports x_k at t_k, or,
    with ``report_update``, the stepped state at t_{k+1}. A step that leaves
    an unconverged x_k bit-for-bit unchanged (a step size too small to move
    it) ends the run as budget-exhausted at t_k: the loop is deterministic,
    so it could never leave that state.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if budget != budget:  # only NaN differs from itself
        raise ValueError(f"budget must be a number, got {budget}")
    validate_spec(bag, spec)

    amplitude = max(tolerance, CYCLE_MIN_AMPLITUDE)
    trajectory = Trajectory() if record_trajectory else None
    state = bag.weights.copy()
    previous = two_back = None
    steps = 0

    def finish(outcome: Outcome, evidence=None) -> SolveResult:
        return SolveResult(outcome, state, steps * dt,
                           divergence_evidence=evidence, trajectory=trajectory)

    if trajectory is not None:
        trajectory.append(0.0, state)
    while True:
        if (two_back is not None
                and np.abs(state - two_back).max(initial=0.0) <= CYCLE_EPS
                and np.abs(state - previous).max(initial=0.0) > amplitude):
            return finish(Outcome.DIVERGED, (previous, state))
        if steps * dt >= budget:
            return finish(Outcome.BUDGET_EXHAUSTED)
        updated = update(bag, spec, state)
        converged = np.abs(updated - state).max(initial=0.0) <= tolerance
        if converged and not report_update:
            return finish(Outcome.CONVERGED)
        stepped = np.clip(step(state, updated), 0.0, 1.0)
        if not converged and np.array_equal(stepped, state):
            return finish(Outcome.BUDGET_EXHAUSTED)
        two_back, previous, state = previous, state, stepped
        steps += 1
        if trajectory is not None:
            trajectory.append(steps * dt, state)
        if converged:
            return finish(Outcome.CONVERGED)


def _lerp(delta: float) -> Step:
    # With delta = 1 this is exactly update(state), which makes discrete
    # iteration the unit-step Euler run.
    return lambda state, updated: (1.0 - delta) * state + delta * updated


def iterate(
    bag: Bag,
    spec: SemanticsSpec,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    record_trajectory: bool = True,
) -> SolveResult:
    """Iterate the update map from the initial weights.

    Converges when one step moves no coordinate by more than ``tolerance``
    and reports the state that step reached. Divergence is reported when the
    state returns to within 1e-9 of the state two steps earlier while still
    moving more than ``tolerance`` per step (period-2 oscillation, the
    observed failure mode); longer cycles run into the iteration budget
    instead. Effort counts update applications.
    """
    return _solve(bag, spec, _lerp(1.0), 1, tolerance, max_iterations,
                  record_trajectory, report_update=True)


def integrate_euler(
    bag: Bag,
    spec: SemanticsSpec,
    delta: float = DEFAULT_DELTA,
    tolerance: float = DEFAULT_TOLERANCE,
    t_max: float = DEFAULT_T_MAX,
    record_trajectory: bool = True,
) -> SolveResult:
    """Explicit Euler integration with fixed step ``delta``.

    Samples are taken every ``delta`` time units starting at the initial
    weights. The run converges when the derivative's max-norm drops to
    ``tolerance``, is declared diverged when the sampled states fall into a
    period-2 cycle, and otherwise stops once ``t_max`` is reached, without
    evaluating the state there. Effort is integrated time.
    """
    return _solve(bag, spec, _lerp(delta), delta, tolerance, t_max,
                  record_trajectory)


def integrate_rk4(
    bag: Bag,
    spec: SemanticsSpec,
    delta: float = DEFAULT_DELTA,
    tolerance: float = DEFAULT_TOLERANCE,
    t_max: float = DEFAULT_T_MAX,
    record_trajectory: bool = True,
) -> SolveResult:
    """Classical fourth-order Runge-Kutta with fixed step ``delta``.

    Four derivative evaluations per step, so a run that converges after k
    steps makes 4k + 1 updates; termination, divergence detection and
    clamping as in integrate_euler. Fixed points of the update map are
    equilibria of every step size, so the limit does not inherit an
    O(delta^4) bias.
    """
    def step(state: np.ndarray, updated: np.ndarray) -> np.ndarray:
        # Stage states of a large step can overshoot [0,1]; evaluate the
        # derivative on the clamped state so influences stay in their domain.
        k1 = updated - state
        k2 = rhs(bag, spec, np.clip(state + 0.5 * delta * k1, 0.0, 1.0))
        k3 = rhs(bag, spec, np.clip(state + 0.5 * delta * k2, 0.0, 1.0))
        k4 = rhs(bag, spec, np.clip(state + delta * k3, 0.0, 1.0))
        return state + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _solve(bag, spec, step, delta, tolerance, t_max, record_trajectory)


def solve(bag: Bag, spec: SemanticsSpec, mode: str = "auto", *,
          delta: float = DEFAULT_DELTA, tolerance: float = DEFAULT_TOLERANCE,
          t_max: float = DEFAULT_T_MAX,
          max_iterations: int = DEFAULT_MAX_ITERATIONS,
          record_trajectory: bool = True) -> tuple[str, SolveResult]:
    """Solve in one of MODES; returns the mode that ran and its result.

    ``acyclic`` is ``discrete.solve_acyclic`` (CyclicGraphError on a cycle),
    reported as converged after one iteration, ``discrete`` is ``iterate``
    and ``euler``/``rk4`` are the integrators. ``auto`` runs ``acyclic`` and
    falls back to ``rk4`` on a cycle, so the graph is sorted only once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode in ("auto", "acyclic"):
        try:
            strengths = discrete.solve_acyclic(bag, spec)
        except discrete.CyclicGraphError:
            if mode == "acyclic":
                raise
            mode = "rk4"
        else:
            trajectory = (Trajectory([0.0, 1.0], [bag.weights, strengths])
                          if record_trajectory else None)
            return "acyclic", SolveResult(Outcome.CONVERGED, strengths, 1.0,
                                          trajectory=trajectory)
    if mode == "discrete":
        return mode, iterate(bag, spec, tolerance, max_iterations,
                             record_trajectory)
    integrator = integrate_euler if mode == "euler" else integrate_rk4
    return mode, integrator(bag, spec, delta=delta, tolerance=tolerance,
                            t_max=t_max, record_trajectory=record_trajectory)
