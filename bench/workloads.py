"""Seeded inputs and command lines of the benchmark workloads.

Each workload is one `bagsolve solve` command line on one generated `.bag`
file. The random graphs are drawn here from the seed and then built and
written by the library (`Bag` plus `serialize_bag`), so the set-up time is
mostly the program's own. The family graph comes from `generate_family`; it
has no randomness, so the seed does not change it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N = 10_000
MAX_PARENTS = 4
ATTACK_PROBABILITY = 0.5
FAMILY_K, FAMILY_VA, FAMILY_VB = 50, 0.9, 0.1


def random_bag_text(n: int, seed: int, acyclic: bool) -> str:
    """A random BAG in the text format.

    Every argument gets a weight drawn from U[0,1] and 0 to MAX_PARENTS
    distinct parents (uniformly many), each an attack or a support with
    probability 1/2. Parents are drawn from the earlier arguments when
    ``acyclic`` is true (so the graph is a DAG), else from all arguments,
    self-loops included.
    """
    from bagsolve.core import Bag
    from bagsolve.io import serialize_bag
    rng = random.Random(seed)
    weights = [rng.random() for _ in range(n)]
    attacks, supports = [], []
    for v in range(n):
        pool = v if acyclic else n
        k = min(rng.randint(0, MAX_PARENTS), pool)
        for u in rng.sample(range(pool), k):
            (attacks if rng.random() < ATTACK_PROBABILITY else supports).append((u, v))
    return serialize_bag(Bag([f"x{i}" for i in range(n)], weights, attacks, supports))


def family_text(seed: int) -> str:
    """The oscillating two-group family, serialized by the library.

    The seed is accepted for a uniform signature and ignored: the family
    graph is fixed.
    """
    from bagsolve.analysis import generate_family
    from bagsolve.io import serialize_bag
    return serialize_bag(generate_family(FAMILY_K, FAMILY_VA, FAMILY_VB))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generated input and a solve command."""

    name: str
    why: str
    input_name: str
    generate: Callable[[int], str]
    params: dict
    preset: str                 # --semantics value
    kappa: float                # --kappa value; euler has none
    mode: str                   # --mode value; "auto" leaves --mode and --delta out
    delta: float                # integrator step: --delta, or the CLI's default
    tolerance: float            # the CLI's default convergence tolerance
    acyclic: bool
    trajectory: str | None = None

    def argv(self, directory: Path) -> list[str]:
        """`bagsolve` arguments with the input and output under ``directory``."""
        args = ["solve", str(directory / self.input_name), "--semantics", self.preset]
        if self.preset != "euler":
            args += ["--kappa", f"{self.kappa:g}"]
        if self.mode != "auto":
            args += ["--mode", self.mode, "--delta", f"{self.delta:g}"]
        if self.trajectory:
            args += ["--trajectory", str(directory / self.trajectory)]
        return args

    def command_line(self) -> str:
        return "bagsolve " + " ".join(self.argv(Path(".")))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="dag-dfq",
            why="Single-pass DAG solve that is mostly parse and Bag build and "
                "never calls update; an update-kernel change must show no "
                "change here.",
            input_name="dag.bag",
            generate=lambda seed: random_bag_text(N, seed, acyclic=True),
            params={"generator": "random_bag_text", "n": N,
                    "max_parents": MAX_PARENTS, "parents_from": "earlier",
                    "p_attack": ATTACK_PROBABILITY, "weights": "U[0,1]"},
            preset="dfq", kappa=1.0, mode="auto", delta=0.01, tolerance=1e-4,
            acyclic=True,
        ),
        Workload(
            name="sparse-rk4",
            why="RK4 on a large sparse cyclic graph: about 270 update calls "
                "make up over 90% of the operation, so update-kernel gains "
                "show here first.",
            input_name="sparse.bag",
            generate=lambda seed: random_bag_text(N, seed, acyclic=False),
            params={"generator": "random_bag_text", "n": N,
                    "max_parents": MAX_PARENTS, "parents_from": "all",
                    "p_attack": ATTACK_PROBABILITY, "weights": "U[0,1]"},
            preset="qe", kappa=10.0, mode="rk4", delta=0.1, tolerance=1e-4,
            acyclic=False,
        ),
        Workload(
            name="family-rescue",
            why="Small dense graph on which discrete iteration diverges; "
                "auto RK4 takes about 650 cheap steps and writes a 1.2 MB "
                "trajectory, so solver-loop and CSV costs show.",
            input_name="family.bag",
            generate=family_text,
            params={"generator": "generate_family", "k": FAMILY_K,
                    "va": FAMILY_VA, "vb": FAMILY_VB},
            preset="euler", kappa=1.0, mode="auto", delta=0.01,
            tolerance=1e-4, acyclic=False, trajectory="out.csv",
        ),
    )
}
