"""Tests of the benchmark itself: generator, oracle, failure counting, contract.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bagsolve
from bagsolve.cli import main as cli_main

import oracle
import run
from workloads import WORKLOADS, random_bag_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def solve_output(path: Path, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["solve", str(path), *argv])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("acyclic", [True, False])
def test_same_seed_gives_identical_text(acyclic):
    assert random_bag_text(300, 7, acyclic) == random_bag_text(300, 7, acyclic)
    assert random_bag_text(300, 7, acyclic) != random_bag_text(300, 8, acyclic)


@pytest.mark.parametrize("acyclic", [True, False])
def test_text_is_the_library_serialization(acyclic):
    text = random_bag_text(300, 7, acyclic)
    assert bagsolve.serialize_bag(bagsolve.parse_bag(text)) == text


def test_generated_graphs_have_the_stated_shape():
    dag = oracle.read_bag_text(random_bag_text(500, 3, acyclic=True))
    for v in range(dag.n):
        parents = dag.attackers[v] + dag.supporters[v]
        assert len(parents) <= 4 and len(set(parents)) == len(parents)
        assert all(u < v for u in parents)
    assert all(0.0 <= w <= 1.0 for w in dag.weights)
    cyclic = bagsolve.parse_bag(random_bag_text(500, 3, acyclic=False))
    assert bagsolve.topological_order(cyclic) is None
    assert bagsolve.topological_order(bagsolve.parse_bag(
        random_bag_text(500, 3, acyclic=True))) is not None


def test_reader_matches_the_library_parser():
    text = WORKLOADS["family-rescue"].generate(0)
    graph = oracle.read_bag_text(text)
    bag = bagsolve.parse_bag(text)
    att, sup = graph.edge_pairs()
    assert bag == bagsolve.Bag(graph.names, graph.weights, att, sup)


# ---------------------------------------------------------------------------
# oracle against the library

SPECS = [("dfq", 1.0, bagsolve.dfq(1.0)), ("qe", 10.0, bagsolve.qe(10.0)),
         ("qe", 0.5, bagsolve.qe(0.5)), ("euler", 1.0, bagsolve.euler_semantics())]


@pytest.mark.parametrize("preset,kappa,spec", SPECS)
@pytest.mark.parametrize("seed", range(5))
def test_reference_update_agrees_with_library(preset, kappa, spec, seed):
    text = random_bag_text(40, seed, acyclic=False)
    graph = oracle.read_bag_text(text)
    bag = bagsolve.parse_bag(text)
    ref = oracle.RefSpec.preset(preset, kappa)
    rng = random.Random(seed)
    for state in (graph.weights, [rng.random() for _ in range(graph.n)]):
        expected = bagsolve.update(bag, spec, state)
        got = oracle.reference_update(graph, ref, state)
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12


@pytest.mark.parametrize("preset,kappa,spec", SPECS)
def test_topological_strengths_agree_with_solve_acyclic(preset, kappa, spec):
    text = random_bag_text(200, 11, acyclic=True)
    got = oracle.topological_strengths(oracle.read_bag_text(text),
                                       oracle.RefSpec.preset(preset, kappa))
    expected = bagsolve.solve_acyclic(bagsolve.parse_bag(text), spec)
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12


# ---------------------------------------------------------------------------
# failure counting

@pytest.fixture(scope="module")
def dag_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("dag") / "dag.bag"
    path.write_text(random_bag_text(60, 5, acyclic=True))
    graph = oracle.read_bag_text(path.read_text())
    exp = oracle.expectation(graph, oracle.RefSpec.preset("dfq", 1.0), True,
                             1e-4, 0.01)
    return exp, *solve_output(path, ["--semantics", "dfq", "--kappa", "1"])


@pytest.fixture(scope="module")
def cyclic_case(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cyclic")
    path = directory / "sparse.bag"
    path.write_text(random_bag_text(60, 5, acyclic=False))
    graph = oracle.read_bag_text(path.read_text())
    exp = oracle.expectation(graph, oracle.RefSpec.preset("qe", 10.0), False,
                             1e-4, 0.1)
    traj = directory / "out.csv"
    code, out = solve_output(path, ["--semantics", "qe", "--kappa", "10",
                                    "--mode", "rk4", "--delta", "0.1",
                                    "--trajectory", str(traj)])
    return exp, code, out, traj


def corrupt_strength(stdout: str, row: int, by: float) -> str:
    lines = stdout.splitlines()
    name, weight, strength = lines[row].split()
    lines[row] = f"{name}  {weight}  {float(strength) + by:8.6f}"
    return "\n".join(lines) + "\n"


def test_correct_outputs_pass(dag_case, cyclic_case):
    exp, code, out = dag_case
    assert code == 0 and oracle.check_operation(exp, code, out) == []
    exp, code, out, traj = cyclic_case
    assert code == 0 and oracle.check_operation(exp, code, out, traj) == []


@pytest.mark.parametrize("row", [1, 30, 60])
def test_counter_trips_on_a_corrupted_dag_strength(dag_case, row):
    exp, code, out = dag_case
    tally = oracle.Tally()
    tally.record(oracle.check_operation(exp, code, corrupt_strength(out, row, -0.002)))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_counter_trips_on_a_corrupted_fixed_point(cyclic_case):
    exp, code, out, _ = cyclic_case
    row = max(range(1, 61), key=lambda r: float(out.splitlines()[r].split()[2]))
    tally = oracle.Tally()
    tally.record(oracle.check_operation(exp, code, corrupt_strength(out, row, -0.01)))
    assert tally.failed == 1


@pytest.mark.parametrize("returncode", [1, 2])
def test_counter_trips_on_an_unexpected_exit_code(dag_case, returncode):
    exp, _, out = dag_case
    tally = oracle.Tally()
    tally.record(oracle.check_operation(exp, returncode, out))
    assert tally.failed == 1 and "exit code" in tally.problems[0]


def test_counter_trips_on_outcome_truncation_and_trajectory(cyclic_case, tmp_path):
    exp, code, out, traj = cyclic_case
    assert oracle.check_operation(exp, code, out.replace("converged", "diverged"))
    assert oracle.check_operation(exp, code, "\n".join(out.splitlines()[:20]))
    short = tmp_path / "short.csv"
    short.write_text("\n".join(traj.read_text().splitlines()[:-1]) + "\n")
    assert oracle.check_operation(exp, code, out, short)
    assert oracle.check_operation(exp, code, out, tmp_path / "missing.csv")


# ---------------------------------------------------------------------------
# contract

def test_workloads_run_the_stated_commands():
    assert {name: wl.command_line() for name, wl in WORKLOADS.items()} == {
        "dag-dfq": "bagsolve solve dag.bag --semantics dfq --kappa 1",
        "sparse-rk4": "bagsolve solve sparse.bag --semantics qe --kappa 10 "
                      "--mode rk4 --delta 0.1",
        "family-rescue": "bagsolve solve family.bag --semantics euler "
                         "--trajectory out.csv",
    }


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        name: (unit, better) for name, (unit, better, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,names", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_one_short_run_reports_every_metric(trace, names):
    proc = run_bench(ROOT, "--workload", "family-rescue", "--seed", "1",
                     "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    for name, (unit, *_) in names.items():
        assert result["metrics"][name]["unit"] == unit
        assert f"  {name} " in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "dag-dfq", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
