"""Benchmark of `bagsolve solve` on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src``.

With ``--trace 0`` it measures end to end. It generates the workload's input
from the seed, runs one untimed warm-up operation, then runs operations in a
closed loop (one client, one operation at a time) for ``--seconds``. One
operation is one `python -m bagsolve.cli solve ...` process. Every
operation's exit code, ``outcome:`` line, strengths table and trajectory are
checked against the reference semantics in ``oracle.py``.

With ``--trace 1`` it measures layer by layer, in-process on the same input.
Each traced operation runs ``cli.main`` once with the functions that
``cmd_solve`` calls (parse_bag, topological_order, solve_acyclic,
integrate_rk4, write_trajectory_csv) wrapped in spans, and with the
integrator's ``update`` replaced by a clock that counts the calls and sums
their time. It then calls the library's other public functions (the
``probes`` span). Every per-layer metric is reported on every workload. A
function off the workload's CLI path is timed as a probe: ``solve_acyclic``
on a cyclic graph times its cycle detection, ``integrate_rk4`` on the DAG
runs a bounded 10-step stretch, and ``write_trajectory_csv`` writes
iterate's trajectory. The spans are written to ``.bench_out/`` when the run
ends. Tracing happens outside the solve processes, so it cannot move the
end-to-end numbers; ``trace.overhead_s`` is the tracer's own cost per traced
operation.

Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print each metric with its name and unit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up is timed this many times, spread over the run like the operations,
# so that one slow stretch of the machine does not decide setup_s
SETUP_REPEATS = 15
MIN_TRACED_REPS = 3
UPDATE_REPEATS = 5  # per state: the initial weights and the solved strengths
# rk4 is off the CLI path of dag-dfq, where a full run would take seconds;
# the probe integrates a bounded stretch instead (10 steps, 41 updates)
RK4_PROBE_DELTA = 0.1
RK4_PROBE_T_MAX = 1.0

# name -> (unit, better, meaning); names and units match BENCHMARK.json
END_TO_END = {
    "solve_s": ("s", "lower",
                "median wall time of one `bagsolve solve` process"),
    "cpu_s": ("s", "lower",
              "median user+sys CPU time of that process (os.wait4)"),
    "peak_rss_mb": ("MB", "lower",
                    "median ru_maxrss of the run's solve processes"),
    "setup_s": ("s", "lower",
                "median time to generate and write the input file"),
    "ok_ratio": ("1", "higher",
                 "operations that passed the oracle check / attempted"),
}
PER_LAYER = {
    "io.parse_bag_s": ("s", "parse_bag on the input text"),
    "io.parse_mb_per_s": ("MB/s", "input size / io.parse_bag_s"),
    "io.write_trajectory_csv_s": ("s", "write_trajectory_csv of a trajectory"),
    "core.bag_build_s": ("s", "Bag(...) from the parsed fields"),
    "core.topological_order_s": ("s", "topological_order on the parsed Bag"),
    "semantics.validate_spec_s": ("s", "validate_spec"),
    "semantics.update_s": ("s", "one update, at the weights and at the solution"),
    "semantics.update_ns_per_edge": ("ns", "semantics.update_s / (n + edges)"),
    "discrete.solve_acyclic_s": ("s", "solve_acyclic (raises on a cyclic graph)"),
    "discrete.iterate_s": ("s", "iterate with default settings"),
    "discrete.iterate_updates": ("count", "updates iterate made"),
    "discrete.certify_s": ("s", "certify"),
    "continuous.integrate_rk4_s": ("s", "integrate_rk4"),
    "continuous.rk4_updates": ("count", "updates that call made (4 * steps + 1)"),
    "continuous.rk4_overhead_s": ("s", "integrate_rk4 span - its updates' summed time"),
    "results.trajectory_states": ("count", "states the solve would record (computed)"),
    "results.trajectory_mb": ("MB", "states * n * 8 B (computed)"),
    "cli.startup_s": ("s", "a process that only imports bagsolve.cli"),
    "cli.main_s": ("s", "in-process cli.main(argv), stdout to a buffer"),
    "trace.coverage": ("1", "sum of the layer spans inside cli.main / cli.main"),
    "trace.overhead_s": ("s", "the tracer's own cost per traced operation "
                             "(spans and update clock)"),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# ---------------------------------------------------------------------------
# end to end

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str


class Launcher:
    """The launcher.py process, which starts and times the solve processes."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def solve(self, wl: Workload, work: Path) -> Sample:
        """Run one `bagsolve solve` process in ``work`` and wait for it."""
        request = {"argv": [sys.executable, "-m", "bagsolve.cli",
                            *wl.argv(Path("."))],
                   "cwd": str(work), "stdout": str(work / "stdout.txt"),
                   "stderr": str(work / "stderr.txt")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Sample(reply["wall_s"], reply["cpu_s"], reply["rss_kb"] * 1024 / 1e6,
                      reply["returncode"],
                      (work / "stdout.txt").read_text("utf-8", "replace"))

    def close(self) -> None:
        """End the launcher; it finishes a running solve first."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def judge(wl: Workload, work: Path, exp: oracle.Expectation, tally: oracle.Tally,
          returncode: int, stdout: str) -> None:
    traj = work / wl.trajectory if wl.trajectory else None
    tally.record(oracle.check_operation(exp, returncode, stdout, traj))


def clear_outputs(wl: Workload, work: Path) -> None:
    # a stale trajectory from the previous operation must not pass the check
    if wl.trajectory:
        (work / wl.trajectory).unlink(missing_ok=True)


def end_to_end(wl: Workload, seed: int, work: Path, exp: oracle.Expectation,
               seconds: float, setup_s: float, tally: oracle.Tally,
               launcher: Launcher) -> tuple[dict, int]:
    setups = [setup_s]
    clear_outputs(wl, work)
    warm = launcher.solve(wl, work)  # fills the page and bytecode caches; untimed
    judge(wl, work, exp, tally, warm.returncode, warm.stdout)

    samples: list[Sample] = []
    start = time.perf_counter()
    # start another operation only if one more like the last still fits
    while not samples or time.perf_counter() - start + samples[-1].wall_s <= seconds:
        clear_outputs(wl, work)
        s = launcher.solve(wl, work)
        judge(wl, work, exp, tally, s.returncode, s.stdout)
        samples.append(s)
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup(wl, seed, work)[1])
    return {
        "solve_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        # a median, not the largest: a rare process peaks ~15% higher
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }, len(samples)


# ---------------------------------------------------------------------------
# traced run

class Tracer:
    """Spans kept in memory: name, start, end, parent, workload and op id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.op = 0
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter() - self._t0, "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "op": self.op}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def summary(self) -> dict[str, dict]:
        own = self.self_times()
        names = dict.fromkeys(s["name"] for s in self.spans)
        return {name: {
            "count": len(self.durations(name)),
            "median_s": statistics.median(self.durations(name)),
            "median_self_s": statistics.median(
                own[s["id"]] for s in self.spans if s["name"] == name),
        } for name in names}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "summary": self.summary()}, indent=1))


class UpdateClock:
    """Stands in for ``continuous.update``: counts the calls and sums their time."""

    def __init__(self, update):
        self.update = update
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.update(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


def tracer_cost(spans: float, clocked_calls: float) -> float:
    """Seconds the tracer adds for ``spans`` spans and ``clocked_calls`` calls
    through an UpdateClock, from timing empty spans and a clocked no-op."""
    probe = Tracer("calibration")
    clock = UpdateClock(lambda: None)
    reps = 2000
    start = time.perf_counter()
    for _ in range(reps):
        with probe.span("empty"):
            pass
    middle = time.perf_counter()
    for _ in range(reps):
        clock()
    end = time.perf_counter()
    return ((middle - start) * spans + (end - middle) * clocked_calls) / reps


@contextlib.contextmanager
def cli_layer_spans(tr: Tracer):
    """Wrap the functions ``cli.cmd_solve`` calls, under the names it looks them
    up by, in spans; yields a dict of span name -> (args, return value) of the
    latest call, and the UpdateClock that times the integrator's updates."""
    import bagsolve.cli as cli
    import bagsolve.continuous as continuous
    import bagsolve.discrete as discrete
    calls: dict[str, tuple] = {}

    def spanned(name: str, fn):
        def wrapper(*args, **kwargs):
            with tr.span(name):
                value = fn(*args, **kwargs)
            calls[name] = (args, value)
            return value
        return wrapper

    clock = UpdateClock(continuous.update)
    targets = [(cli, "parse_bag", "io.parse_bag"),
               (cli, "topological_order", "core.topological_order"),
               (discrete, "solve_acyclic", "discrete.solve_acyclic"),
               (continuous, "integrate_rk4", "continuous.integrate_rk4"),
               (cli, "write_trajectory_csv", "io.write_trajectory_csv")]
    with contextlib.ExitStack() as stack:
        for module, attr, name in targets:
            stack.enter_context(mock.patch.object(
                module, attr, spanned(name, getattr(module, attr))))
        stack.enter_context(mock.patch.object(continuous, "update", clock))
        yield calls, clock


def traced_op(tr: Tracer, wl: Workload, work: Path, graph: oracle.RefGraph,
              exp: oracle.Expectation, tally: oracle.Tally) -> dict:
    """One traced operation; returns the counts it observed."""
    import bagsolve as b
    import bagsolve.cli
    import bagsolve.continuous
    counts: dict[str, float] = {}

    with tr.span("cli.startup"):
        subprocess.run([sys.executable, "-c", "import bagsolve.cli"],
                       env=child_env(), check=True)

    clear_outputs(wl, work)
    buffer = io.StringIO()
    with cli_layer_spans(tr) as (calls, clock), tr.span("cli.main"), \
            contextlib.redirect_stdout(buffer):
        code = bagsolve.cli.main(wl.argv(work))
    judge(wl, work, exp, tally, code, buffer.getvalue())

    bag = calls["io.parse_bag"][1]
    if "discrete.solve_acyclic" in calls:
        (_, spec), solved = calls["discrete.solve_acyclic"]
        counts["states"] = 2  # the CLI's trajectory: weights and result
    else:
        (_, spec), result = calls["continuous.integrate_rk4"]
        solved = result.strengths
        counts["states"] = (clock.calls - 1) // 4 + 1
    if clock.calls:
        counts["rk4_updates"] = clock.calls
        counts["rk4_update_s"] = clock.seconds

    # the remaining public functions, called on the same input
    att, sup = graph.edge_pairs()
    with tr.span("probes"):
        with tr.span("core.bag_build"):
            b.Bag(graph.names, graph.weights, att, sup)
        with tr.span("semantics.validate_spec"):
            b.validate_spec(bag, spec)
        for state in (bag.weights, solved):
            for _ in range(UPDATE_REPEATS):
                with tr.span("semantics.update"):
                    b.update(bag, spec, state)
        with tr.span("discrete.certify"):
            b.certify(bag, spec)
        with tr.span("discrete.iterate"):
            iterated = b.iterate(bag, spec)
        counts["iterate_updates"] = iterated.effort
        if "core.topological_order" not in calls:
            with tr.span("core.topological_order"):
                b.topological_order(bag)
        if "io.write_trajectory_csv" not in calls:
            with tr.span("io.write_trajectory_csv"):
                b.write_trajectory_csv(iterated.trajectory, bag.names,
                                         work / "probe.csv")
        if "discrete.solve_acyclic" not in calls:
            with tr.span("discrete.solve_acyclic"):
                try:
                    b.solve_acyclic(bag, spec)
                except b.CyclicGraphError:
                    pass
        else:
            clock = UpdateClock(bagsolve.continuous.update)
            with mock.patch.object(bagsolve.continuous, "update", clock), \
                    tr.span("continuous.integrate_rk4"):
                b.integrate_rk4(bag, spec, delta=RK4_PROBE_DELTA,
                                t_max=RK4_PROBE_T_MAX)
            counts["rk4_updates"] = clock.calls
            counts["rk4_update_s"] = clock.seconds
    return counts


def coverage(tr: Tracer) -> list[float]:
    """Per operation: the layer spans inside cli.main / cli.main's duration."""
    ratios = []
    for op in sorted({s["op"] for s in tr.spans}):
        spans = [s for s in tr.spans if s["op"] == op]
        main = next(s for s in spans if s["name"] == "cli.main")
        layers = sum(s["end"] - s["start"] for s in spans
                     if s["parent"] == main["id"])
        ratios.append(layers / (main["end"] - main["start"]))
    return ratios


def traced(wl: Workload, work: Path, graph: oracle.RefGraph,
           exp: oracle.Expectation, seconds: float, seed: int,
           tally: oracle.Tally) -> tuple[dict, Tracer]:
    tr = Tracer(wl.name)
    counts: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while tr.op < MIN_TRACED_REPS or time.perf_counter() - start + last <= seconds:
        with tr.span("op") as op:
            counts.append(traced_op(tr, wl, work, graph, exp, tally))
        last = op["end"] - op["start"]
        tr.op += 1
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"trace-{wl.name}-seed{seed}.json")

    def med(name: str) -> float:
        return statistics.median(tr.durations(name))

    def count(key: str) -> float:
        return statistics.median_low(c[key] for c in counts)

    size_mb = (work / wl.input_name).stat().st_size / 1e6
    update_s = med("semantics.update")
    states = count("states")
    rk4_spans = [s for s in tr.spans if s["name"] == "continuous.integrate_rk4"]
    overheads = [s["end"] - s["start"] - c["rk4_update_s"]
                 for s, c in zip(rk4_spans, counts)]
    spans_per_op = len(tr.spans) / tr.op
    return {
        "io.parse_bag_s": med("io.parse_bag"),
        "io.parse_mb_per_s": size_mb / med("io.parse_bag"),
        "io.write_trajectory_csv_s": med("io.write_trajectory_csv"),
        "core.bag_build_s": med("core.bag_build"),
        "core.topological_order_s": med("core.topological_order"),
        "semantics.validate_spec_s": med("semantics.validate_spec"),
        "semantics.update_s": update_s,
        "semantics.update_ns_per_edge": update_s / (graph.n + graph.edges) * 1e9,
        "discrete.solve_acyclic_s": med("discrete.solve_acyclic"),
        "discrete.iterate_s": med("discrete.iterate"),
        "discrete.iterate_updates": count("iterate_updates"),
        "discrete.certify_s": med("discrete.certify"),
        "continuous.integrate_rk4_s": med("continuous.integrate_rk4"),
        "continuous.rk4_updates": count("rk4_updates"),
        "continuous.rk4_overhead_s": statistics.median(overheads),
        "results.trajectory_states": states,
        "results.trajectory_mb": states * graph.n * 8 / 1e6,
        "cli.startup_s": med("cli.startup"),
        "cli.main_s": med("cli.main"),
        "trace.coverage": statistics.median(coverage(tr)),
        "trace.overhead_s": tracer_cost(spans_per_op, count("rk4_updates")),
    }, tr


# ---------------------------------------------------------------------------
# command line

def setup(wl: Workload, seed: int, work: Path) -> tuple[str, float]:
    """Generate the input and write it to ``work``; returns it and the time taken."""
    start = time.perf_counter()
    text = wl.generate(seed)
    (work / wl.input_name).write_text(text, encoding="utf-8")
    return text, time.perf_counter() - start


def help_epilog() -> str:
    lines = ["workloads:"]
    for wl in WORKLOADS.values():
        lines += [f"  {wl.name}: {wl.command_line()}",
                  f"      input {json.dumps(wl.params)}",
                  f"      {wl.why}"]
    lines.append("end-to-end metrics (--trace 0):")
    lines += [f"  {name} [{unit}]: {meaning}"
              for name, (unit, _, meaning) in END_TO_END.items()]
    lines.append("per-layer metrics (--trace 1):")
    lines += [f"  {name} [{unit}]: {meaning}"
              for name, (unit, meaning) in PER_LAYER.items()]
    return "\n".join(lines)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Measure `bagsolve solve` on one seeded workload and "
                    "check every output against reference semantics.",
        epilog=help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measuring loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the per-layer traced run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "bagsolve" / "cli.py").is_file():
        print(f"error: no bagsolve sources under {SRC}; run the benchmark "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    tally = oracle.Tally()
    # started while this process is still small; see launcher.py
    launcher = None if args.trace else Launcher()
    try:
        text, setup_s = setup(wl, args.seed, work)
        graph = oracle.read_bag_text(text)
        exp = oracle.expectation(graph, oracle.RefSpec.preset(wl.preset, wl.kappa),
                                 wl.acyclic, wl.tolerance, wl.delta)
        if args.trace:
            metrics, tr = traced(wl, work, graph, exp, args.seconds, args.seed,
                                 tally)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            note = f"traced operations: {tr.op}"
            self_times = tr.summary()
        else:
            metrics, samples = end_to_end(wl, args.seed, work, exp,
                                          args.seconds, setup_s, tally, launcher)
            units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
            note = f"timed operations: {samples} (+1 warm-up)"
            self_times = {}
    finally:
        if launcher:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"failed operation: {problem}", file=sys.stderr)
    print(f"workload {wl.name}, seed {args.seed}, {note}, "
          f"failed {tally.failed}/{tally.attempted}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    if self_times:
        print("  span self time (median s):")
        for name, row in self_times.items():
            print(f"    {name:28s} {row['median_self_s']:12.6g}  x{row['count']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
