"""Iterative solving: fixed-point iteration and the continuized flow
d(sigma)/dt = update(sigma) - sigma.

Replacing the discrete update with its flow keeps every fixed point in place
(the derivative vanishes exactly there) but smooths the path toward it, which
resolves the period-2 oscillation that kills the discrete iteration on some
cyclic graphs. Discrete iteration is the flow sampled by explicit Euler with
step 1, so iterate, integrate_euler and integrate_rk4 share one solver loop
and differ only in how they advance the state; with step 1 the Euler run
reproduces the discrete iteration bit for bit.

``solve`` is the one place that picks a mode: exact single-pass evaluation
for acyclic graphs, step-controlled RK4 on the flow otherwise, unless a mode
is named. All return a ``SolveResult`` (``Outcome``, optional ``Trajectory``).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import discrete
from .core import Bag
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

# A step-controlled RK4 step is accepted when its local error estimate is at
# most this share of the run tolerance. At the full tolerance, runs on stiff
# graphs parked at the stability limit, in a spurious steady state, until
# the time budget ran out.
ERROR_SHARE = 0.1


class Outcome(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(eq=False)
class Trajectory:
    """Sampled states over time.

    ``times`` holds the iteration index for discrete runs and continuous time
    for integrator runs; the first sample is always (0, initial weights).
    Times never decrease, at construction as in ``append``, and lists of
    times and states of unequal length are refused with ValueError.
    """

    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        # one state per time, and the given rows go through append's rule
        if len(self.times) != len(self.states):
            raise ValueError(f"{len(self.times)} times but "
                             f"{len(self.states)} states")
        rows = zip(self.times, self.states)
        self.times, self.states = [], []
        for t, state in rows:
            self.append(t, state)

    def append(self, t: float, state: np.ndarray) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(f"time must be nondecreasing, got {t} after {self.times[-1]}")
        self.times.append(float(t))
        self.states.append(np.asarray(state, dtype=float))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(eq=False)
class SolveResult:
    """Result of an iterative or continuized solve.

    ``strengths`` is the fixed point for converged runs and the last visited
    state otherwise. ``effort`` counts update applications for discrete runs
    and integrated time for continuous runs. A diverged result carries the two
    alternating states that were detected as a cycle.
    """

    outcome: Outcome
    strengths: np.ndarray
    effort: float
    divergence_evidence: Optional[tuple[np.ndarray, np.ndarray]] = None
    trajectory: Optional[Trajectory] = None

    @property
    def converged(self) -> bool:
        return self.outcome is Outcome.CONVERGED


# (state, update(state), steps of dt left) -> the next state, a new array,
# clamped; the number m >= 1 of steps of dt it took; and the update of that
# state, or None for the loop to make it
Advance = Callable[[np.ndarray, np.ndarray, float],
                   tuple[np.ndarray, int, Optional[np.ndarray]]]


def verify_fixed_point(bag: Bag, spec: SemanticsSpec,
                       s: np.ndarray, tol: float) -> bool:
    """True when one update moves no coordinate of ``s`` by more than ``tol``."""
    s = np.asarray(s, dtype=float)
    return float(np.abs(update(bag, spec, s) - s).max(initial=0.0)) <= tol


def _check_run(dt: float, tolerance: float, budget: float) -> float:
    # The steps of dt a run with this budget takes: the first k >= 0 with
    # k * dt >= budget, or inf from 2**52 steps on, which no run reaches.
    if not 0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    dt = float(dt)
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if budget != budget:  # only NaN differs from itself
        raise ValueError(f"budget must be a number, got {budget}")
    if not abs(budget) <= float(np.finfo(float).max):  # a run that never ends
        raise ValueError(f"budget must be finite, got {budget}")
    budget = max(budget, 0)
    quotient = float(budget) / dt
    if not quotient < 2 ** 52:
        return math.inf
    # below 2**52 its ceiling is within one step of k; k * dt grows with k
    steps = math.ceil(quotient)
    steps += (steps * dt < budget) - ((steps - 1) * dt >= budget)
    if not steps * dt < np.inf:
        raise ValueError(f"budget {budget} in steps of {dt} ends the run "
                         f"at an infinite time")
    return steps


def _clamp(x: np.ndarray) -> np.ndarray:
    # into [0, 1] in place, as np.clip does on non-NaN input
    return np.minimum(np.maximum(x, 0.0, out=x), 1.0, out=x)


def _solve(bag: Bag, spec: SemanticsSpec, advance: Advance, dt: float,
           tolerance: float, budget: float, record_trajectory: bool,
           report_update: bool = False) -> SolveResult:
    """The solver loop behind iterate and both integrators.

    Visits x_0 = weights and x_{k+1}, the state ``advance(x_k, update(x_k),
    steps left)`` reaches, at t_{k+1} = t_k + m * dt for the m >= 1 it took.
    Each pass checks, in this order: period-2 oscillation (x_k within CYCLE_EPS
    of x_{k-2}, over two steps of equal m, while x_{k-1} -> x_k moved more than
    the tolerance), the budget (no step left of the run's ``_check_run`` count,
    before any work), then makes one update, unless the advance brought it,
    stops when it moves no coordinate of x_k by more than the tolerance, and
    otherwise advances. A converged run reports x_k at t_k, or, with
    ``report_update``, the advanced state. An advance that leaves an
    unconverged x_k bit-for-bit unchanged (a step size too small to move it)
    ends the run as budget-exhausted at t_k: the loop is deterministic, so it
    could never leave that state. The trajectory keeps one row per dt: the grid
    points inside a step of m > 1 are interpolated, not visited.
    """
    stop = _check_run(dt, tolerance, budget)
    validate_spec(bag, spec)

    amplitude = max(tolerance, CYCLE_MIN_AMPLITUDE)
    state = bag.weights.copy()
    trajectory = Trajectory([0.0], [state]) if record_trajectory else None
    previous = two_back = updated = None
    move = 0.0  # max-norm of x_k - x_{k-1}: 0 exactly when they are equal
    units = 0  # time in multiples of dt
    size, same_size = 0, True  # the last step's m; it equals the one before

    def finish(outcome: Outcome, evidence=None) -> SolveResult:
        return SolveResult(outcome, state, units * dt,
                           divergence_evidence=evidence, trajectory=trajectory)

    while True:
        if (two_back is not None and same_size and move > amplitude
                and np.abs(state - two_back).max(initial=0.0) <= CYCLE_EPS):
            return finish(Outcome.DIVERGED, (previous, state))
        if units >= stop:
            return finish(Outcome.BUDGET_EXHAUSTED)
        if updated is None:
            updated = update(bag, spec, state)
        converged = np.abs(updated - state).max(initial=0.0) <= tolerance
        if converged and not report_update:
            return finish(Outcome.CONVERGED)
        stepped, m, reached = advance(state, updated, stop - units)
        move = np.abs(stepped - state).max(initial=0.0)
        if not converged and move == 0.0:
            return finish(Outcome.BUDGET_EXHAUSTED)
        if trajectory is not None:
            if m > 1:
                inner = _hermite(state, updated - state, stepped,
                                 reached - stepped, m, dt)
                for j, row in enumerate(inner, units + 1):
                    trajectory.append(j * dt, row)
            trajectory.append((units + m) * dt, stepped)
        two_back, previous, state, updated = previous, state, stepped, reached
        same_size, size = m == size, m
        units += m
        if converged:
            return finish(Outcome.CONVERGED)


def _hermite(x0: np.ndarray, f0: np.ndarray, x1: np.ndarray, f1: np.ndarray,
             m: int, dt: float) -> np.ndarray:
    """Rows j = 1 .. m-1: the state at j * dt into a step of m * dt from x0
    to x1, by cubic Hermite interpolation of the end states and their
    derivatives f0 and f1 (Hairer, Norsett & Wanner, Solving ODEs I, II.6),
    clamped."""
    theta = (np.arange(1, m) / m)[:, None]
    h = m * dt
    d = x1 - x0
    bend = ((1.0 - 2.0 * theta) * d + (theta - 1.0) * (h * f0)
            + theta * (h * f1))
    return _clamp(x0 + theta * d + theta * (theta - 1.0) * bend)


def _lerp(delta: float) -> Advance:
    # With delta = 1 this is exactly update(state), which makes discrete
    # iteration the unit-step Euler run.
    return lambda state, updated, left: (
        _clamp((1.0 - delta) * state + delta * updated), 1, None)


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
    *,
    step_control: bool = False,
) -> SolveResult:
    """Classical fourth-order Runge-Kutta with fixed step ``delta``, or with
    ``step_control`` in steps of whole multiples of it.

    Four derivative evaluations per step, so a run that converges after k
    steps makes 4k + 1 updates; termination, divergence detection and
    clamping as in integrate_euler. Fixed points of the update map are
    equilibria of every step size, so the limit does not inherit an
    O(delta^4) bias.

    With ``step_control``, ``delta`` is the shortest step and the spacing of
    the trajectory's rows. A step of m * delta is accepted when its local
    error estimate (h/6) max|k4 - f(x_next)| is at most ERROR_SHARE times
    ``tolerance``; f(x_next) = update(x_next) - x_next is the next step's
    first stage, so every try still costs four updates. A step of one delta
    is always accepted, so no run takes more steps than the fixed one, and
    each step of one delta is bit-identical to it. A rejected step is tried
    again shorter from the same state. The next m follows the estimate's
    third order, at most doubling, and never passes the fixed run's last
    step. Rows inside a step are interpolated (cubic Hermite), not visited.
    """
    # The stages live in buffers made once per run. A large step's stage
    # state can leave [0, 1], which update refuses, so it is clamped.
    k1, k2, k3, x = (np.empty(bag.n) for _ in range(4))

    def slope(state: np.ndarray, k: np.ndarray, h: float,
              out: np.ndarray) -> np.ndarray:
        # out = update(x) - x at x = clamp(state + h * k)
        _clamp(np.add(state, np.multiply(k, h, out=x), out=x))
        return np.subtract(update(bag, spec, x), x, out=out)

    def rk4(state: np.ndarray, updated: np.ndarray,
            h: float) -> tuple[np.ndarray, np.ndarray]:
        # state + h/6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right, and k4
        np.subtract(updated, state, out=k1)
        slope(state, k1, 0.5 * h, k2)
        slope(state, k2, 0.5 * h, k3)
        k4 = slope(state, k3, h, x)
        total = np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
        np.add(total, np.multiply(k3, 2.0, out=k3), out=total)
        np.add(total, k4, out=total)
        return state + np.multiply(total, h / 6.0, out=total), k4

    target = ERROR_SHARE * tolerance
    fit = 1  # the m the last error estimate allows

    def advance(state: np.ndarray, updated: np.ndarray,
                left: float) -> tuple[np.ndarray, int, Optional[np.ndarray]]:
        nonlocal fit
        if not step_control:
            return _clamp(rk4(state, updated, delta)[0]), 1, None
        m = min(fit, left)  # never past the fixed run's last step
        while True:
            h = m * delta
            stepped, k4 = rk4(state, updated, h)
            reached = update(bag, spec, _clamp(stepped))
            error = h / 6.0 * np.abs(k4 - (reached - stepped)).max(initial=0.0)
            # m by the estimate's third order, at most doubled; above 11 the
            # ratio would pass the doubling anyway, and dividing could overflow
            ratio = target / error if error > target / 11.0 else 11.0
            fit = max(1, int(m * min(2.0, 0.9 * ratio ** (1 / 3))))
            if m == 1 or error <= target:
                return stepped, m, reached
            m = min(m - 1, fit)

    return _solve(bag, spec, advance, delta, tolerance, t_max,
                  record_trajectory)


def solve(bag: Bag, spec: SemanticsSpec, mode: str = "auto", *,
          delta: float = DEFAULT_DELTA, tolerance: float = DEFAULT_TOLERANCE,
          t_max: float = DEFAULT_T_MAX,
          max_iterations: int = DEFAULT_MAX_ITERATIONS,
          record_trajectory: bool = True) -> tuple[str, SolveResult]:
    """Solve in one of MODES; returns the mode that ran and its result.

    ``acyclic`` is ``discrete.solve_acyclic`` (CyclicGraphError on a cycle),
    reported as converged after one iteration, ``discrete`` is ``iterate``
    and ``euler``/``rk4`` are the fixed-step integrators. ``auto`` runs
    ``acyclic`` and falls back to ``integrate_rk4`` with ``step_control`` on
    a cycle, reported as ``rk4``, so the graph is sorted only once; there
    ``delta`` is the shortest step and the trajectory's row spacing.
    ``delta``, ``tolerance``, ``t_max`` (in steps of ``delta``) and
    ``max_iterations`` (in steps of 1) are checked in every mode, used or
    not, so that one set of flags is accepted or refused whatever the graph.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    _check_run(delta, tolerance, t_max)
    _check_run(1, tolerance, max_iterations)
    if mode in ("auto", "acyclic"):
        try:
            strengths = discrete.solve_acyclic(bag, spec)
        except discrete.CyclicGraphError:
            if mode == "acyclic":
                raise
            return "rk4", integrate_rk4(
                bag, spec, delta=delta, tolerance=tolerance, t_max=t_max,
                record_trajectory=record_trajectory, step_control=True)
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
