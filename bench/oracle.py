"""Reference semantics that judge every `bagsolve solve` output of the benchmark.

The formulas are written here from their definitions and share no code with
the library, so a faulty library kernel cannot vouch for itself:

* aggregation ``sum``: supporters' strengths minus attackers' strengths;
* aggregation ``product``: prod(1 - s) over attackers minus the same over
  supporters;
* influence ``linear`` (conservativeness kappa): w + w*a/kappa for a < 0,
  w + (1 - w)*a/kappa otherwise;
* influence ``pmax`` (kappa, p): w - w*h(-a/kappa) + (1 - w)*h(a/kappa) with
  h(x) = max(x, 0)^p / (1 + max(x, 0)^p);
* influence ``euler``: 1 - (1 - w^2) / (1 + w*exp(a)).

An acyclic graph is judged against a single pass in topological order. A
cyclic graph has no closed form, so its printed strengths must be a fixed
point of the reference update up to the run tolerance plus print rounding.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# The CLI prints weights and strengths with six decimals.
PRINT_ROUNDING = 5e-7
FLOAT_SLACK = 1e-9

# preset -> (aggregation, influence); pmax uses p = 2 (quadratic energy)
PRESET_FORMS = {
    "dfq": ("product", "linear"),
    "qe": ("sum", "pmax"),
    "euler": ("sum", "euler"),
}
PMAX_P = 2

_STATEMENT = re.compile(r"(arg|att|sup)\(([^,()]+),([^,()]+)\)\.")


@dataclass
class RefGraph:
    names: list[str]
    weights: list[float]
    attackers: list[list[int]]
    supporters: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def edges(self) -> int:
        return sum(map(len, self.attackers)) + sum(map(len, self.supporters))

    def edge_pairs(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(attacks, supports) as (source, target) index pairs."""
        att = [(u, v) for v, us in enumerate(self.attackers) for u in us]
        sup = [(u, v) for v, us in enumerate(self.supporters) for u in us]
        return att, sup


def read_bag_text(text: str) -> RefGraph:
    """Read the one-statement-per-line text the benchmark generates.

    ``#`` comment lines and blank lines are skipped; anything else that is
    not an arg/att/sup statement raises ValueError.
    """
    names: list[str] = []
    weights: list[float] = []
    index: dict[str, int] = {}
    edges: list[tuple[str, str, str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _STATEMENT.fullmatch(line)
        if m is None:
            raise ValueError(f"unexpected statement {line!r}")
        kind, a, b = m.groups()
        if kind == "arg":
            index[a] = len(names)
            names.append(a)
            weights.append(float(b))
        else:
            edges.append((kind, a, b))
    attackers: list[list[int]] = [[] for _ in names]
    supporters: list[list[int]] = [[] for _ in names]
    for kind, a, b in edges:
        (attackers if kind == "att" else supporters)[index[b]].append(index[a])
    return RefGraph(names, weights, attackers, supporters)


@dataclass(frozen=True)
class RefSpec:
    aggregation: str
    influence: str
    kappa: float = 1.0
    p: int = PMAX_P

    @classmethod
    def preset(cls, name: str, kappa: float) -> "RefSpec":
        aggregation, influence = PRESET_FORMS[name]
        return cls(aggregation, influence, kappa)


def _aggregate(spec: RefSpec, att: list[float], sup: list[float]) -> float:
    if spec.aggregation == "sum":
        return sum(sup) - sum(att)
    if spec.aggregation == "product":
        return math.prod(1.0 - x for x in att) - math.prod(1.0 - x for x in sup)
    raise ValueError(f"no reference for aggregation {spec.aggregation!r}")


def _influence(spec: RefSpec, w: float, a: float) -> float:
    if spec.influence == "linear":
        return w + (w if a < 0 else 1.0 - w) * a / spec.kappa
    if spec.influence == "pmax":
        def h(x: float) -> float:
            x = max(x, 0.0) ** spec.p
            return x / (1.0 + x)
        return w - w * h(-a / spec.kappa) + (1.0 - w) * h(a / spec.kappa)
    if spec.influence == "euler":
        return 1.0 - (1.0 - w * w) / (1.0 + w * math.exp(a))
    raise ValueError(f"no reference for influence {spec.influence!r}")


def _strength(graph: RefGraph, spec: RefSpec, i: int, s: list[float]) -> float:
    a = _aggregate(spec, [s[j] for j in graph.attackers[i]],
                   [s[j] for j in graph.supporters[i]])
    return _influence(spec, graph.weights[i], a)


def reference_update(graph: RefGraph, spec: RefSpec, s: list[float]) -> list[float]:
    """One synchronous update of every argument from state ``s``."""
    return [_strength(graph, spec, i, s) for i in range(graph.n)]


def topological_strengths(graph: RefGraph, spec: RefSpec) -> list[float]:
    """Exact strengths of an acyclic graph, each argument after its parents.

    Raises ValueError when the graph has a cycle.
    """
    children: list[list[int]] = [[] for _ in range(graph.n)]
    pending = [0] * graph.n
    for v in range(graph.n):
        parents = graph.attackers[v] + graph.supporters[v]
        pending[v] = len(parents)
        for u in parents:
            children[u].append(v)
    ready = [v for v in range(graph.n) if pending[v] == 0]
    s = list(graph.weights)
    done = 0
    while ready:
        v = ready.pop()
        s[v] = _strength(graph, spec, v, s)
        done += 1
        for c in children[v]:
            pending[c] -= 1
            if pending[c] == 0:
                ready.append(c)
    if done < graph.n:
        raise ValueError("graph has a cycle")
    return s


def lipschitz_bound(graph: RefGraph, spec: RefSpec) -> float:
    """Max-norm Lipschitz bound of the reference update.

    Each parent moves the sum or the product aggregate by at most the change
    of its strength, so the aggregate's constant is the indegree; the
    influence's constant is bounded by its largest slope.
    """
    def slope(w: float) -> float:
        if spec.influence == "linear":
            return max(w, 1.0 - w) / spec.kappa
        if spec.influence == "pmax":
            return spec.p * max(w, 1.0 - w) / spec.kappa
        return 0.25  # euler
    return max((len(graph.attackers[i]) + len(graph.supporters[i]))
               * slope(graph.weights[i]) for i in range(graph.n))


@dataclass
class Expectation:
    """What a correct solve of one workload input prints."""

    graph: RefGraph
    spec: RefSpec
    exact: list[float] | None    # single-pass strengths of an acyclic graph
    residual_bound: float        # allowed max|update(s) - s| of a cyclic one
    delta: float                 # integrator step, for the trajectory check


def expectation(graph: RefGraph, spec: RefSpec, acyclic: bool,
                tolerance: float, delta: float) -> Expectation:
    if acyclic:
        return Expectation(graph, spec, topological_strengths(graph, spec),
                           0.0, delta)
    # printed strengths are off by up to PRINT_ROUNDING per coordinate, which
    # moves the residual update(s) - s by at most (L + 1) times that
    bound = tolerance + (lipschitz_bound(graph, spec) + 1.0) * PRINT_ROUNDING
    return Expectation(graph, spec, None, bound + FLOAT_SLACK, delta)


def check_operation(exp: Expectation, returncode: int, stdout: str,
                    trajectory: Path | None = None) -> list[str]:
    """Problems with one solve's exit code, outcome, strengths and trajectory.

    An empty list means the operation is correct.
    """
    problems: list[str] = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    lines = stdout.splitlines()
    n = exp.graph.n
    rows = lines[1:1 + n]
    info = dict(line.split(": ", 1) for line in lines[1 + n:] if ": " in line)
    if info.get("outcome") != "converged":
        problems.append(f"outcome {info.get('outcome')!r}, expected 'converged'")
    if not lines or lines[0].split() != ["argument", "weight", "strength"] or len(rows) != n:
        return problems + ["strengths table missing or truncated"]

    strengths: list[float] = []
    for i, row in enumerate(rows):
        try:
            name, w, s = row.split()
            weight, strength = float(w), float(s)
        except ValueError:
            return problems + [f"row {i + 1} unreadable: {row!r}"]
        if name != exp.graph.names[i]:
            return problems + [f"row {i + 1} names {name!r}, expected "
                               f"{exp.graph.names[i]!r}"]
        if abs(weight - exp.graph.weights[i]) > PRINT_ROUNDING + FLOAT_SLACK:
            problems.append(f"weight of {name} printed as {w}")
        strengths.append(strength)

    if exp.exact is not None:
        worst = max(range(n), key=lambda i: abs(strengths[i] - exp.exact[i]))
        if abs(strengths[worst] - exp.exact[worst]) > PRINT_ROUNDING + FLOAT_SLACK:
            problems.append(f"strength of {exp.graph.names[worst]} is "
                            f"{strengths[worst]}, reference {exp.exact[worst]:.9f}")
    else:
        updated = reference_update(exp.graph, exp.spec, strengths)
        residual = max(abs(u - s) for u, s in zip(updated, strengths))
        if residual > exp.residual_bound:
            problems.append(f"printed strengths are no fixed point: residual "
                            f"{residual:.3g} > {exp.residual_bound:.3g}")

    if trajectory is not None:
        problems += _check_trajectory(exp, trajectory, strengths, info)
    return problems


def _check_trajectory(exp: Expectation, path: Path, strengths: list[float],
                      info: dict[str, str]) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"trajectory not written: {exc}"]
    rows = text.splitlines()
    if not rows or rows[0] != "t," + ",".join(exp.graph.names):
        return ["trajectory header does not list the arguments"]
    try:
        expected_rows = round(float(info["time"]) / exp.delta) + 2
    except (KeyError, ValueError):
        return ["no 'time:' line to check the trajectory length against"]
    if len(rows) != expected_rows:
        return [f"trajectory has {len(rows) - 1} states, expected "
                f"{expected_rows - 1}"]
    last = [float(x) for x in rows[-1].split(",")[1:]]
    if len(last) != len(strengths) or any(
            abs(a - b) > PRINT_ROUNDING + FLOAT_SLACK
            for a, b in zip(last, strengths)):
        return ["last trajectory state differs from the printed strengths"]
    return []


@dataclass
class Tally:
    """Attempted and failed operations of one run, with the first problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems))
        return not problems
