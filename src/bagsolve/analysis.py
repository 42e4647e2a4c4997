"""Benchmark graph generators and semantic property checks.

The generators build the standard stress fixtures: the mutually-attacking
two-group family that drives discrete iteration into oscillation, attack
stars for conservativeness studies, and the three-layer attack/support
fixture whose mirrored argument pairs exercise duality.

The checkers probe semantic properties numerically: duality (attacks and
supports move strengths by mirrored amounts), the Lipschitz constants of
the aggregation and influence (sampled, like duality, through the solve
kernel), and open-mindedness bounds (how far a weight can move at all).
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Bag
from .semantics import (
    SemanticsSpec,
    aggregate,
    codomain_bound,
    influence,
    lipschitz_aggregation,
    lipschitz_influence,
    validate_spec,
)

DEFAULT_TRIALS = 10_000
DUALITY_TOL = 1e-12
LIPSCHITZ_SLACK = 1e-12
_CHUNK = 1024  # trials evaluated at once: bounds a check's memory
_MAX_PARENTS = 8


def generate_family(k: int, va: float, vb: float) -> Bag:
    """Two groups of k arguments; full mutual attacks inside each group
    (self-attacks included), full mutual support across the groups.

    Every argument therefore has k attackers and k supporters, i.e. indegree
    2k. Group a carries weight ``va``, group b carries ``vb``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    names = [f"a{i + 1}" for i in range(k)] + [f"b{i + 1}" for i in range(k)]
    weights = [va] * k + [vb] * k
    a_idx = range(k)
    b_idx = range(k, 2 * k)
    attacks = {(i, j) for i in a_idx for j in a_idx}
    attacks |= {(i, j) for i in b_idx for j in b_idx}
    supports = {(i, j) for i in a_idx for j in b_idx}
    supports |= {(i, j) for i in b_idx for j in a_idx}
    return Bag(names, weights, attacks, supports)


def generate_star(k: int, w_center: float, w_leaf: float) -> Bag:
    """One center argument attacked by k parentless leaves."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    names = ["a"] + [f"b{i + 1}" for i in range(k)]
    weights = [w_center] + [w_leaf] * k
    attacks = {(i, 0) for i in range(1, k + 1)}
    return Bag(names, weights, attacks, supports=())


def fixture_duality_bag() -> Bag:
    """Three mirrored column pairs: x_i attacks a_i and supports b_i.

    The a/b weights in each column are complementary (0.5/0.5, 0.7/0.3,
    0.2/0.8), so any duality-satisfying semantics must drive each pair's
    final strengths to sum to 1.
    """
    names = ["a1", "a2", "a3", "x1", "x2", "x3", "b1", "b2", "b3"]
    weights = [0.5, 0.7, 0.2, 0.8, 0.6, 0.4, 0.5, 0.3, 0.8]
    attacks = {(3, 0), (4, 1), (5, 2)}
    supports = {(3, 6), (4, 7), (5, 8)}
    return Bag(names, weights, attacks, supports)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized property check.

    On failure the counterexample carries the sampled inputs and both side
    values of the violated identity.
    """

    passed: bool
    trials: int
    counterexample: Optional[dict] = None

    def __str__(self) -> str:
        if self.passed:
            return f"pass ({self.trials} trials)"
        pretty = ", ".join(f"{k}={v!r}" for k, v in self.counterexample.items())
        return f"fail: {pretty}"


def _sample(trials: int, seed: int, draw: Callable[[random.Random], dict],
            evaluate: Callable[..., tuple[np.ndarray, dict]]) -> CheckReport:
    # Draws the trials (dicts of inputs) from random.Random(seed) in order,
    # and evaluates _CHUNK at a time: ``evaluate`` gives the failing ones,
    # as ~(gap <= bound) so that a NaN fails, and the values to report.
    # Zero trials would pass untested.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for start in range(0, trials, _CHUNK):
        batch = [draw(rng) for _ in range(min(_CHUNK, trials - start))]
        inputs = zip(*(trial.values() for trial in batch))
        with np.errstate(invalid="ignore"):  # a NaN fails its trial
            failed, values = evaluate(*map(_array, inputs))
        hit = np.flatnonzero(failed)
        if hit.size:
            k = int(hit[0])
            batch[k].update((key, float(x[k])) for key, x in values.items())
            return CheckReport(False, start + k + 1, batch[k])
    return CheckReport(True, trials)


def _array(column) -> np.ndarray:
    # one input over the trials: floats, or lists padded with zeros to 8
    if isinstance(column[0], list):
        column = [x + [0] * (_MAX_PARENTS - len(x)) for x in column]
    return np.array(column, dtype=float)


def _aggregation_draw(*states: str):
    # a parent vector v over {-1, 0, 1}, 1 to 8 long, and strengths for it
    def draw(rng):
        n = rng.randint(1, _MAX_PARENTS)
        trial = {"v": [rng.choice((-1, 0, 1)) for _ in range(n)]}
        trial.update((s, [rng.random() for _ in range(n)]) for s in states)
        return trial
    return draw


def _influence_draw(spec: SemanticsSpec, *names: str):
    # w and the aggregates ``names`` in the influence's domain, and within
    # max/2, so that rng.uniform's 2 * span is finite
    span = (min(spec.kappa, sys.float_info.max / 2)
            if spec.influence == "linear" else 10.0)
    return lambda rng: {"w": rng.random(), **{
        name: rng.uniform(-span, span) for name in names}}


def check_duality_aggregation(spec: SemanticsSpec, trials: int = DEFAULT_TRIALS,
                              seed: int = 0) -> CheckReport:
    """Sample (v, s) and test that negating the parent vector flips the
    aggregate's sign exactly: alpha_v(s) = -alpha_{-v}(s)."""
    def evaluate(v, s):
        lhs, rhs = aggregate(spec, v, s), -aggregate(spec, -v, s)
        return (~(np.abs(lhs - rhs) <= DUALITY_TOL),
                {"alpha_v": lhs, "-alpha_-v": rhs})
    return _sample(trials, seed, _aggregation_draw("s"), evaluate)


def check_duality_influence(spec: SemanticsSpec, trials: int = DEFAULT_TRIALS,
                            seed: int = 0) -> CheckReport:
    """Sample (w, a) and test the complement identity
    1 - iota_{1-w}(a) = iota_w(-a)."""
    def evaluate(w, a):
        lhs, rhs = 1.0 - influence(spec, 1.0 - w, a), influence(spec, w, -a)
        return (~(np.abs(lhs - rhs) <= DUALITY_TOL),
                {"1-iota_(1-w)(a)": lhs, "iota_w(-a)": rhs})
    return _sample(trials, seed, _influence_draw(spec, "a"), evaluate)


def check_lipschitz_aggregation(spec: SemanticsSpec, trials: int = DEFAULT_TRIALS,
                                seed: int = 0) -> CheckReport:
    """Empirically confirm the aggregation's analytic Lipschitz constant:
    |alpha_v(s1) - alpha_v(s2)| <= lambda_v * maxnorm(s1 - s2)."""
    def evaluate(v, s1, s2):
        gap = np.abs(aggregate(spec, v, s1) - aggregate(spec, v, s2))
        bound = (lipschitz_aggregation(spec, np.count_nonzero(v, axis=1))
                 * np.abs(s1 - s2).max(axis=1))
        return ~(gap <= bound + LIPSCHITZ_SLACK), {"gap": gap, "bound": bound}
    return _sample(trials, seed, _aggregation_draw("s1", "s2"), evaluate)


def check_lipschitz_influence(spec: SemanticsSpec, trials: int = DEFAULT_TRIALS,
                              seed: int = 0) -> CheckReport:
    """Empirically confirm the influence's analytic Lipschitz constant:
    |iota_w(a1) - iota_w(a2)| <= lambda_w * |a1 - a2|."""
    def evaluate(w, a1, a2):
        gap = np.abs(influence(spec, w, a1) - influence(spec, w, a2))
        step = np.abs(a1 - a2)  # inf * 0 (a subnormal kappa) would be NaN
        bound = np.multiply(lipschitz_influence(spec, w), step,
                            out=np.zeros_like(step), where=step > 0)
        return ~(gap <= bound + LIPSCHITZ_SLACK), {"gap": gap, "bound": bound}
    return _sample(trials, seed, _influence_draw(spec, "a1", "a2"), evaluate)


@dataclass(frozen=True)
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
    ([w_i, w_i] for a parentless argument)."""
    validate_spec(bag, spec)
    degree = np.diff(bag.indptr)  # 0 * inf (a subnormal kappa) is NaN
    radii = np.multiply(codomain_bound(spec, degree),
                        lipschitz_influence(spec, bag.weights),
                        out=np.zeros(bag.n), where=degree > 0)
    return OpenMindednessBound(bag.weights - radii, bag.weights + radii)

