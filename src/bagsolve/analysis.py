"""Benchmark graph generators and semantic property checks.

The generators build the standard stress fixtures: the mutually-attacking
two-group family that drives discrete iteration into oscillation, attack
stars for conservativeness studies, and the three-layer attack/support
fixture whose mirrored argument pairs exercise duality.

The checkers probe two semantic properties numerically: duality (attacks and
supports move strengths by mirrored amounts) and open-mindedness bounds (how
far a semantics can move a weight at all).
"""
from __future__ import annotations

import random
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


def _sample(trials: int, seed: int,
            trial: Callable[[random.Random], Optional[dict]]) -> CheckReport:
    # Runs ``trial`` until it returns a counterexample. A check of zero
    # samples would report a pass it never tested, so it is refused.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for t in range(trials):
        counterexample = trial(rng)
        if counterexample is not None:
            return CheckReport(False, t + 1, counterexample)
    return CheckReport(True, trials)


def check_duality_aggregation(
    spec: SemanticsSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> CheckReport:
    """Sample (v, s) and test that negating the parent vector flips the
    aggregate's sign exactly: alpha_v(s) = -alpha_{-v}(s)."""
    def trial(rng):
        n = rng.randint(1, 8)
        v = [rng.choice((-1, 0, 1)) for _ in range(n)]
        s = [rng.random() for _ in range(n)]
        lhs = aggregate(spec, v, s)
        rhs = -aggregate(spec, [-x for x in v], s)
        if abs(lhs - rhs) > DUALITY_TOL:
            return {"v": v, "s": s, "alpha_v": lhs, "-alpha_-v": rhs}
    return _sample(trials, seed, trial)


def _influence_sample_domain(spec: SemanticsSpec) -> float:
    # linear only accepts [-kappa, kappa]; the others take any real
    return spec.kappa if spec.influence == "linear" else 10.0


def check_duality_influence(
    spec: SemanticsSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> CheckReport:
    """Sample (w, a) and test the complement identity
    1 - iota_{1-w}(a) = iota_w(-a)."""
    span = _influence_sample_domain(spec)

    def trial(rng):
        w = rng.random()
        a = rng.uniform(-span, span)
        lhs = 1.0 - influence(spec, 1.0 - w, a)
        rhs = influence(spec, w, -a)
        if abs(lhs - rhs) > DUALITY_TOL:
            return {"w": w, "a": a, "1-iota_(1-w)(a)": lhs, "iota_w(-a)": rhs}
    return _sample(trials, seed, trial)


def check_lipschitz_aggregation(
    spec: SemanticsSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> CheckReport:
    """Empirically confirm the aggregation's analytic Lipschitz constant:
    |alpha_v(s1) - alpha_v(s2)| <= lambda_v * maxnorm(s1 - s2)."""
    def trial(rng):
        n = rng.randint(1, 8)
        v = [rng.choice((-1, 0, 1)) for _ in range(n)]
        s1 = [rng.random() for _ in range(n)]
        s2 = [rng.random() for _ in range(n)]
        gap = abs(aggregate(spec, v, s1) - aggregate(spec, v, s2))
        bound = (lipschitz_aggregation(spec, sum(x != 0 for x in v))
                 * max(abs(a - b) for a, b in zip(s1, s2)))
        if gap > bound + LIPSCHITZ_SLACK:
            return {"v": v, "s1": s1, "s2": s2, "gap": gap, "bound": bound}
    return _sample(trials, seed, trial)


def check_lipschitz_influence(
    spec: SemanticsSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> CheckReport:
    """Empirically confirm the influence's analytic Lipschitz constant:
    |iota_w(a1) - iota_w(a2)| <= lambda_w * |a1 - a2|."""
    span = _influence_sample_domain(spec)

    def trial(rng):
        w = rng.random()
        a1 = rng.uniform(-span, span)
        a2 = rng.uniform(-span, span)
        gap = abs(influence(spec, w, a1) - influence(spec, w, a2))
        bound = lipschitz_influence(spec, w) * abs(a1 - a2)
        if gap > bound + LIPSCHITZ_SLACK:
            return {"w": w, "a1": a1, "a2": a2, "gap": gap, "bound": bound}
    return _sample(trials, seed, trial)


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
    """Intervals [w_i - B_i*l_i, w_i + B_i*l_i] bounding any final strength."""
    validate_spec(bag, spec)
    radii = (codomain_bound(spec, np.diff(bag.indptr))
             * lipschitz_influence(spec, bag.weights))
    return OpenMindednessBound(bag.weights - radii, bag.weights + radii)

