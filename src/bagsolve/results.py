"""Result and trajectory containers of the solvers in ``continuous``."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class Outcome(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(eq=False)
class Trajectory:
    """Sampled states over time.

    ``times`` holds the iteration index for discrete runs and continuous time
    for integrator runs; the first sample is always (0, initial weights).
    """

    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)

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
