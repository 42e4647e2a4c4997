import hashlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bagsolve import (MODES, Outcome, SolveResult, cli, continuous,
                      generate_family, parse_bag, serialize_bag)
from bagsolve.analysis import fixture_duality_bag, generate_star
from conftest import fresh_python


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.bag"
    path.write_text(serialize_bag(generate_family(1, 0.9, 0.1)))
    return str(path)


@pytest.fixture
def duality_file(tmp_path):
    path = tmp_path / "duality.bag"
    path.write_text(serialize_bag(fixture_duality_bag()))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.bag"
    path.write_text(serialize_bag(generate_star(1, 0.9, 0.9)))
    return str(path)


def strengths_from(output: str) -> dict[str, float]:
    table = {}
    for line in output.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 3 and parts[0] not in ("argument",):
            try:
                table[parts[0]] = float(parts[2])
            except ValueError:
                break
        else:
            break
    return table


class TestSolve:
    def test_duality_fixture_dfq(self, duality_file, capsys):
        code = cli.main(["solve", duality_file, "--semantics", "dfq",
                         "--kappa", "1"])
        out = capsys.readouterr().out
        assert code == 0
        table = strengths_from(out)
        assert table["a1"] == pytest.approx(0.10, abs=5e-3)
        assert table["b1"] == pytest.approx(0.90, abs=5e-3)
        assert "mode: acyclic" in out

    def test_family_discrete_diverges(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "qe",
                         "--kappa", "1", "--mode", "discrete"])
        out = capsys.readouterr().out
        assert code == 2
        assert "outcome: diverged" in out
        assert "period 2" in out

    def test_family_rk4_converges(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "qe",
                         "--kappa", "1", "--mode", "rk4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome: converged" in out

    def test_acyclic_mode_on_cycle_is_usage_error(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "qe",
                         "--mode", "acyclic"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cycle" in err

    def test_custom_semantics(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "custom",
                         "--aggregation", "top", "--influence", "euler"])
        assert code == 0

    def test_custom_needs_both_pieces(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "custom",
                         "--aggregation", "top"])
        assert code == 1
        assert "custom" in capsys.readouterr().err

    def test_linear_with_subnormal_kappa(self, tmp_path, capsys):
        # w / kappa overflows for parentless arguments; they keep their weight
        path = tmp_path / "e.bag"
        path.write_text("arg(a,0.5). arg(b,0.25).\n")
        code = cli.main(["solve", str(path), "--semantics", "dfq",
                         "--kappa", "1e-320"])
        out = capsys.readouterr().out
        assert code == 0
        assert strengths_from(out) == {"a": 0.5, "b": 0.25}
        assert "nan" not in out

    @pytest.mark.parametrize("mode", ["auto", "discrete", "rk4", "euler"])
    def test_negative_zero_weight_reads_as_zero(self, tmp_path, capsys, mode):
        text = "arg(a,-0.0).\n"
        assert parse_bag(text) == parse_bag("arg(a,0.0).\n")
        assert hash(parse_bag(text)) == hash(parse_bag("arg(a,0.0).\n"))
        assert serialize_bag(parse_bag(text)) == "arg(a,0.0).\n"
        path = tmp_path / "zero.bag"
        path.write_text(text)
        code = cli.main(["solve", str(path), "--semantics", "qe",
                         "--mode", mode])
        out = capsys.readouterr().out
        assert code == 0
        assert "-0.000000" not in out and "0.000000  0.000000" in out

    def test_trajectory_export(self, family_file, tmp_path, capsys):
        target = tmp_path / "run.csv"
        code = cli.main(["solve", family_file, "--semantics", "dfq",
                         "--kappa", "1.9", "--mode", "discrete",
                         "--trajectory", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "t,a1,b1"
        assert len(lines) > 2

    def test_config_error_names_argument(self, tmp_path, capsys):
        path = tmp_path / "two.bag"
        path.write_text("arg(a,0.5). arg(b,0.5). arg(c,0.9).\n"
                        "att(a,c). sup(b,c).\n")
        code = cli.main(["solve", str(path), "--semantics", "custom",
                         "--aggregation", "sum", "--influence", "linear",
                         "--kappa", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "'c'" in err and "kappa" in err

    def test_parse_error_reports_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.bag"
        path.write_text("arg(a,1.5).\n")
        code = cli.main(["solve", str(path), "--semantics", "dfq"])
        err = capsys.readouterr().err
        assert code == 1
        assert "1:1" in err and "outside" in err

    def test_missing_file(self, capsys):
        assert cli.main(["solve", "/nonexistent.bag",
                         "--semantics", "dfq"]) == 1

    def test_reports_are_byte_identical(self, family_file, capsys):
        argv = ["solve", family_file, "--semantics", "qe", "--kappa", "1",
                "--mode", "rk4"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestPinnedBytes:
    """Stdout and trajectory CSV of three solves, pinned by sha256. The
    fixed-step hashes were recorded with the kernel and solver loop that
    rebuilt every constant on each update (commit e26fc61); the cached
    kernel constants, the leaner RK4 loop, the per-row CSV memo and the
    step control beside the fixed step must not change a byte. The auto
    case was recorded when auto mode took up step-controlled RK4."""

    FAMILY_K2 = (Path(__file__).resolve().parent.parent / "fixtures"
                 / "family_k2.bag")
    CASES = {
        # auto mode: step-controlled RK4, rows every 0.01 up to t = 5.87,
        # most of them interpolated, converged
        "euler-auto": (["--semantics", "euler"], 0,
                       "c656268f45f32a0e26563dac552260e0c7d07e0f4300b45fd2621d1f23357ce9",
                       "9cbe31d4eef34ed668d0d88453e4cefb54e54ac62247e6b81fa896d65a540f78"),
        # RK4 at delta 0.01 for 5.49 time units, converged
        "euler": (["--semantics", "euler", "--mode", "rk4", "--delta", "0.01"], 0,
                  "36332d8a95574736f5084aa757a07f299b28a55603e0276a8ffa38e5f1c604be",
                  "3dc4b261f92148c8cb88a80327bab885f24eec549cfb073df420502795aa5497"),
        # one RK4 step to the corners [1, 1, 0, 0], which the next step
        # cannot leave: budget-exhausted at t = 2.5
        "qe-rk4": (["--semantics", "qe", "--mode", "rk4", "--delta", "2.5"], 2,
                   "d9e5ae708ed727a4269dae7eca65b1e0d23635408f84250f1ec05f24a4756b2a",
                   "8e00920adfd8589f9c0c5e87b37f5c417da920fafbbc8b410d8daaa3610def06"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_output_is_unchanged(self, case, tmp_path, capsys):
        flags, exit_code, stdout_sha, csv_sha = self.CASES[case]
        csv = tmp_path / "trajectory.csv"
        code = cli.main(["solve", str(self.FAMILY_K2), *flags,
                         "--trajectory", str(csv)])
        out = capsys.readouterr().out
        assert code == exit_code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha


class TestBadInput:
    """Inputs that must end in a one-line error and exit 1, not a traceback."""

    def test_directory_path(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path), "--semantics", "dfq"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.bag"
        path.write_bytes("arg(\xe4,0.5).\n".encode("latin-1"))
        assert cli.main(["solve", str(path), "--semantics", "dfq"]) == 1
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve", "BAG"], ["certify", "BAG"],
        ["check", "open-mindedness", "BAG"]])
    @pytest.mark.parametrize("semantics", ["dfq", "euler", "qe"])
    @pytest.mark.parametrize("flag, value", [
        ("aggregation", "top"), ("influence", "euler"), ("p", "5")])
    def test_preset_refuses_the_custom_flags(self, duality_file, capsys,
                                             command, semantics, flag, value):
        argv = [duality_file if a == "BAG" else a for a in command]
        code = cli.main([*argv, "--semantics", semantics, "--kappa", "3",
                         f"--{flag}", value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: --{flag} does not apply to "
                                f"--semantics {semantics}; use --semantics "
                                f"custom to set it\n")
        assert captured.out == ""

    def test_preset_names_the_first_custom_flag(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "qe", "--p",
                         "5", "--aggregation", "top", "--influence", "euler"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: --aggregation does not apply to --semantics qe")

    def test_custom_p_defaults_to_two(self, family_file, capsys):
        args = ["certify", family_file, "--kappa", "4"]
        assert cli.main([*args, "--semantics", "qe"]) == 0
        preset = capsys.readouterr().out
        assert cli.main([*args, "--semantics", "custom", "--aggregation",
                         "sum", "--influence", "pmax"]) == 0
        assert capsys.readouterr().out == preset

    @pytest.mark.parametrize("command", [
        ["solve", "BAG"], ["certify", "BAG"],
        ["check", "open-mindedness", "BAG"], ["check", "duality"],
        ["check", "lipschitz"]])
    @pytest.mark.parametrize("kappa", ["1", "50"])
    def test_euler_refuses_kappa(self, star_file, capsys, command, kappa):
        # euler_semantics() takes no kappa, so an explicit one, even the
        # default, is refused
        argv = [star_file if a == "BAG" else a for a in command]
        code = cli.main([*argv, "--semantics", "euler", "--kappa", kappa])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: --kappa does not apply to --semantics "
                                "euler; use --semantics custom to set it\n")
        assert captured.out == ""

    @pytest.mark.parametrize("semantics", [
        ["--semantics", "dfq"], ["--semantics", "qe"],
        ["--semantics", "custom", "--aggregation", "top",
         "--influence", "linear"]])
    def test_kappa_defaults_to_one(self, family_file, capsys, semantics):
        args = ["certify", family_file, *semantics]
        assert cli.main(args) == 0
        default = capsys.readouterr().out
        assert cli.main([*args, "--kappa", "1"]) == 0
        assert capsys.readouterr().out == default
        assert cli.main([*args, "--kappa", "2"]) == 0
        assert capsys.readouterr().out != default

    def test_zero_tolerance(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "qe",
                         "--tolerance", "0"])
        assert code == 1
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_zero_delta(self, family_file, capsys):
        code = cli.main(["solve", family_file, "--semantics", "qe",
                         "--delta", "0"])
        assert code == 1
        assert "step size must be positive" in capsys.readouterr().err

    def test_epsilon_outside_unit_interval(self, star_file, capsys):
        code = cli.main(["certify", star_file, "--semantics", "qe",
                         "--kappa", "5", "--epsilon", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "epsilon must be in (0, 1)" in captured.err
        assert captured.out == ""

    def test_epsilon_outside_unit_interval_without_certificate(
            self, family_file, capsys):
        # refused at argument parsing, before certify decides anything
        code = cli.main(["certify", family_file, "--semantics", "qe",
                         "--epsilon", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "epsilon must be in (0, 1)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--mode", "rk4", "--delta", "inf"], "step size must be positive"),
        (["--mode", "euler", "--delta", "nan"], "step size must be positive"),
        (["--t-max", "nan"], "budget must be a number"),
        (["--mode", "euler", "--t-max", "inf"], "budget must be finite"),
    ])
    def test_non_finite_step_or_budget(self, family_file, capsys, flags,
                                       message):
        code = cli.main(["solve", family_file, "--semantics", "qe", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--tolerance", "0"], "tolerance must be positive"),
        (["--delta", "inf"], "step size must be positive"),
        (["--t-max", "nan"], "budget must be a number"),
    ])
    @pytest.mark.parametrize("mode", ["auto", "acyclic"])
    def test_bad_solver_flag_on_acyclic_graph(self, duality_file, capsys,
                                              mode, flags, message):
        # refused although the single pass uses none of them
        code = cli.main(["solve", duality_file, "--semantics", "dfq",
                         "--mode", mode, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("prop", ["duality", "lipschitz"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_property_check_without_trials(self, capsys, prop, trials):
        code = cli.main(["check", prop, "--semantics", "qe",
                         "--trials", trials])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: trials must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("prop", ["duality", "lipschitz"])
    def test_property_check_over_the_trials_cap(self, capsys, monkeypatch,
                                                prop):
        # 10^12 trials ran for months; the cap is refused before any trial
        for part in ("aggregation", "influence"):
            monkeypatch.setattr(cli.analysis, f"check_{prop}_{part}",
                                lambda *args: pytest.fail("a check ran"))
        for trials in (cli.MAX_TRIALS + 1, 10**12):
            code = cli.main(["check", prop, "--semantics", "dfq",
                             "--trials", str(trials)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == (f"error: {trials} trials, more than the "
                                    f"cap of {cli.MAX_TRIALS}\n")
            assert captured.out == ""

    def test_trials_cap_is_in_the_help(self, capsys):
        for prop in ("duality", "lipschitz"):
            cli.main(["check", prop, "--help"])
            assert f"{cli.MAX_TRIALS:,}" in capsys.readouterr().out

    def test_open_mindedness_help_lists_no_trials(self, capsys):
        assert cli.main(["check", "open-mindedness", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--semantics" in out
        assert "--trials" not in out and "--seed" not in out

    @pytest.mark.parametrize("command", [
        ["check", "open-mindedness", "BAG", "--semantics", "qe",
         "--trials", "3"],
        ["check", "open-mindedness", "BAG", "--semantics", "qe",
         "--seed", "7"],
        ["check", "duality", "BAG", "--semantics", "dfq"],
        ["check", "lipschitz", "BAG", "--semantics", "qe"],
        ["generate", "star", "3", "0.9"],
        ["generate", "family", "1.5", "0.9", "0.1"],
        ["generate", "duality-fixture", "3"]])
    def test_form_refuses_an_argument_it_does_not_read(
            self, star_file, capsys, command):
        # each form parses exactly its own arguments, so a missing,
        # mistyped or extra one is a usage error, not dropped
        argv = [star_file if a == "BAG" else a for a in command]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage: bagsolve")
        assert ": error: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_step_too_small_to_move_the_state(self, family_file):
        # 0.9 + 1e-300 * k rounds back to 0.9, so the run can never reach
        # t_max or converge; it must stop instead of looping forever
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", "solve", family_file,
             "--semantics", "qe", "--delta", "1e-300"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "outcome: budget-exhausted" in proc.stdout

    def test_time_past_float_range(self, family_file, tmp_path):
        # two steps of 1e308 pass t_max = 1.7e308 at an infinite time,
        # which the CSV writer could not format
        csv = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", "solve", family_file,
             "--semantics", "qe", "--mode", "euler", "--delta", "1e308",
             "--t-max", "1.7e308", "--trajectory", str(csv)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: budget 1.7e+308 in steps of "
                                      "1e+308 ends the run at an infinite")
        assert "Traceback" not in proc.stderr
        assert not csv.exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_iteration_budget_past_float_range(self, family_file, mode):
        # checked in steps of 1 in every mode; float() of it would overflow
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", "solve", family_file,
             "--semantics", "qe", "--mode", mode,
             "--max-iterations", str(10**400)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: budget must be finite, got 1000")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", [
        ["solve", "BAG"], ["certify", "BAG"], ["check", "lipschitz"],
        ["check", "open-mindedness", "BAG"]])
    def test_p_past_float_range(self, duality_file, command):
        # int() reads the 401 digits; a float cannot hold them
        argv = [duality_file if a == "BAG" else a for a in command]
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", *argv, "--semantics",
             "custom", "--aggregation", "sum", "--influence", "pmax",
             "--p", "1" + "0" * 400],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: p must be a positive integer")
        assert "Traceback" not in proc.stderr


class TestSubnormalKappa:
    """A subnormal kappa makes w / kappa and a / kappa overflow to inf on
    purpose; no numpy warning may reach stderr, and the output stays as it
    was."""

    @pytest.fixture
    def pair_file(self, tmp_path):
        path = tmp_path / "pair.bag"
        path.write_text("arg(a,0.5). arg(b,0.25).\n")
        return str(path)

    @pytest.fixture
    def parented_file(self, tmp_path):
        path = tmp_path / "parented.bag"
        path.write_text("arg(a,0.5). arg(b,0.25). arg(c,0.3).\n"
                        "att(a,c). sup(b,c).\n")
        return str(path)

    def run(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails the command
            code = cli.main([*argv, "--kappa", "1e-320"])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    @pytest.mark.parametrize("mode", MODES)
    def test_solve_dfq(self, pair_file, capsys, mode):
        code, out = self.run(capsys, "solve", pair_file, "--semantics", "dfq",
                             "--mode", mode)
        assert code == 0
        assert strengths_from(out) == {"a": 0.5, "b": 0.25}

    @pytest.mark.parametrize("mode", MODES)
    def test_solve_qe(self, parented_file, capsys, mode):
        # c's aggregate -0.25 over kappa is -inf, which pulls c to 0; the
        # integrators stop within their tolerance of it
        code, out = self.run(capsys, "solve", parented_file, "--semantics",
                             "qe", "--mode", mode)
        assert code == 0
        c = 0.0001 if mode in ("euler", "rk4") else 0.0
        assert strengths_from(out) == {"a": 0.5, "b": 0.25, "c": c}

    def test_certify_qe(self, parented_file, capsys):
        code, out = self.run(capsys, "certify", parented_file,
                             "--semantics", "qe")
        assert code == 0
        assert out.splitlines()[-1] == "rule: none"

    def test_check_open_mindedness_qe(self, parented_file, capsys):
        _, out = self.run(capsys, "check", "open-mindedness", parented_file,
                          "--semantics", "qe")
        assert [line.split()[2] for line in out.splitlines()[1:4]] == [
            "0.500000", "0.250000", "0.000000"]

    def test_certify_gives_parentless_arguments_lambda_zero(
            self, parented_file, capsys):
        code, out = self.run(capsys, "certify", parented_file,
                             "--semantics", "qe")
        assert code == 0 and "nan" not in out
        lines = out.splitlines()
        assert [line.split() for line in lines[1:4]] == [
            ["a", "0.000000"], ["b", "0.000000"], ["c", "inf"]]
        assert "global-lambda: inf" in lines

    def test_open_mindedness_bounds_parentless_arguments_by_the_weight(
            self, parented_file, capsys):
        code, out = self.run(capsys, "check", "open-mindedness",
                             parented_file, "--semantics", "qe")
        assert code == 0 and "nan" not in out
        lines = out.splitlines()
        assert [line.split() for line in lines[1:4]] == [
            ["a", "0.500000", "0.500000", "0.500000"],
            ["b", "0.250000", "0.250000", "0.250000"],
            ["c", "-inf", "0.000000", "inf"]]
        assert lines[-1] == "open-mindedness: pass"

    def test_check_lipschitz_dfq(self, capsys):
        code, out = self.run(capsys, "check", "lipschitz", "--semantics",
                             "dfq", "--trials", "500")
        assert code == 0
        assert out.splitlines()[-1] == "lipschitz: pass"


class TestCertify:
    def test_star_bound(self, star_file, capsys):
        code = cli.main(["certify", star_file, "--semantics", "qe",
                         "--kappa", "5", "--epsilon", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "global-lambda: 0.360000" in out
        assert "guaranteed: yes" in out
        assert "iterations-for(1e-06): 14" in out
        assert "rule: indegree:sum+pmax" in out

    def test_family_not_guaranteed(self, family_file, capsys):
        code = cli.main(["certify", family_file, "--semantics", "qe",
                         "--kappa", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "global-lambda: 3.600000" in out
        assert "guaranteed: no" in out
        assert "iterations-for" not in out
        assert "rule: none" in out

    def test_edgeless(self, tmp_path, capsys):
        path = tmp_path / "one.bag"
        path.write_text("arg(a,0.5).\n")
        code = cli.main(["certify", str(path), "--semantics", "dfq"])
        out = capsys.readouterr().out
        assert code == 0
        assert "global-lambda: 0.000000" in out
        assert "guaranteed: yes" in out

    def test_custom_sum_euler_with_p_zero(self, tmp_path, capsys):
        # p only matters for pmax, so p = 0 is accepted and never divides
        path = tmp_path / "g.bag"
        path.write_text("arg(a,0.5). arg(b,0.5). att(a,b).\n")
        code = cli.main(["certify", str(path), "--semantics", "custom",
                         "--aggregation", "sum", "--influence", "euler",
                         "--p", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "rule: indegree:sum+euler"

    @pytest.mark.parametrize("semantics, kappa", [("dfq", "49"),
                                                  ("qe", "98")])
    def test_exact_product_of_one_is_not_guaranteed(self, tmp_path, capsys,
                                                    semantics, kappa):
        # 49 * (1 / 49) rounds to 0.9999999999999999, so the printed lambda
        # is 1.000000, and no iteration count is printed for it
        path = str(tmp_path / "star.bag")
        assert cli.main(["generate", "star", "49", "1.0", "0.5",
                         "--output", path]) == 0
        code = cli.main(["certify", path, "--semantics", semantics,
                         "--kappa", kappa])
        out = capsys.readouterr().out
        assert code == 0
        assert "global-lambda: 1.000000" in out
        assert "guaranteed: no" in out
        assert "iterations-for" not in out
        assert out.splitlines()[-1] == "rule: none"


class TestGenerate:
    def test_family_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "f.bag"
        code = cli.main(["generate", "family", "1", "0.9", "0.1",
                         "--output", str(target)])
        assert code == 0
        assert parse_bag(target.read_text()) == generate_family(1, 0.9, 0.1)

    def test_star_to_stdout(self, capsys):
        code = cli.main(["generate", "star", "10", "0.9", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_bag(out) == generate_star(10, 0.9, 0.9)

    def test_duality_fixture(self, capsys):
        code = cli.main(["generate", "duality-fixture"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_bag(out) == fixture_duality_bag()

    def test_bad_params(self, capsys):
        assert cli.main(["generate", "family", "1", "0.9"]) == 1
        assert cli.main(["generate", "duality-fixture", "3"]) == 1
        for kind in ("family", "star"):
            params = ["1", "0.9", "0.1", "junk"]
            capsys.readouterr()
            assert cli.main(["generate", kind, *params]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("usage: bagsolve")
            assert captured.err.endswith(
                "error: unrecognized arguments: junk\n")
            assert captured.out == ""

    @pytest.mark.parametrize("params, message", [
        (["star", "0", "0.9", "0.9"], "k must be >= 1, got 0"),
        (["family", "-3", "0.9", "0.1"], "k must be >= 1, got -3"),
        (["family", "1", "1.5", "0.1"],
         "weights outside [0,1] for arguments ['a1']")])
    def test_generator_refusal_is_one_error_line(self, capsys, params,
                                                 message):
        assert cli.main(["generate", *params]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("kind, k, edges", [
        ("family", "100000000", 4 * 10**16), ("star", "1000001", 1000001)])
    def test_too_many_edges_is_refused_before_building(
            self, kind, k, edges, monkeypatch, capsys):
        def build(*args):
            raise AssertionError("the graph was built")
        monkeypatch.setattr(cli.analysis, f"generate_{kind}", build)
        assert cli.main(["generate", kind, k, "0.9", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {edges} edges, more than the cap of "
            f"{cli.MAX_GENERATED_EDGES}\n")
        assert captured.out == ""

    def test_family_at_the_edge_cap(self, tmp_path):
        target = tmp_path / "f.bag"
        assert cli.main(["generate", "family", "500", "0.9", "0.1",
                         "--output", str(target)]) == 0
        text = target.read_text()
        assert text.count("att(") + text.count("sup(") == 4 * 500**2
        assert 4 * 500**2 == cli.MAX_GENERATED_EDGES


class TestCheck:
    def test_duality_euler_fails(self, capsys):
        code = cli.main(["check", "duality", "--semantics", "euler",
                         "--trials", "500"])
        out = capsys.readouterr().out
        assert code == 2
        assert "duality: fail" in out
        assert "influence-duality: fail" in out

    def test_duality_dfq_passes(self, capsys):
        code = cli.main(["check", "duality", "--semantics", "dfq",
                         "--trials", "500"])
        assert code == 0
        assert "duality: pass" in capsys.readouterr().out

    def test_lipschitz_qe_passes(self, capsys):
        code = cli.main(["check", "lipschitz", "--semantics", "qe",
                         "--kappa", "1", "--trials", "500"])
        assert code == 0
        assert "lipschitz: pass" in capsys.readouterr().out

    # stdout of ``check <prop> --semantics <preset>`` at the default 10^4
    # trials and seed 0, as the scalar checks printed it (commit 1732920);
    # None stands for the three pass lines
    PINNED = {
        ("duality", "dfq"): None,
        ("duality", "qe"): None,
        ("duality", "euler"): (
            "aggregation-duality: pass (10000 trials)\n"
            "influence-duality: fail: w=0.8444218515250481, "
            "a=5.159088058806049, 1-iota_(1-w)(a)=0.03476109123393911, "
            "iota_w(-a)=0.7144340691525424\n"
            "duality: fail\n"),
        ("lipschitz", "dfq"): None,
        ("lipschitz", "qe"): None,
        ("lipschitz", "euler"): None,
    }

    @pytest.mark.parametrize("prop,preset", sorted(PINNED))
    def test_property_check_stdout_is_pinned(self, capsys, prop, preset):
        expected = self.PINNED[prop, preset] or "".join(
            f"{part}-{prop}: pass (10000 trials)\n"
            for part in ("aggregation", "influence")) + f"{prop}: pass\n"
        code = cli.main(["check", prop, "--semantics", preset])
        assert capsys.readouterr().out == expected
        assert code == (2 if expected.endswith("fail\n") else 0)

    @pytest.mark.parametrize("prop", ["duality", "lipschitz"])
    def test_linear_checks_at_huge_kappa(self, capsys, prop):
        # 2 kappa overflows, so rng.uniform(-kappa, kappa) drew +-inf, which
        # the linear influence refused as outside its domain (exit 1)
        code = cli.main(["check", prop, "--semantics", "custom",
                         "--aggregation", "sum", "--influence", "linear",
                         "--kappa", "1e308", "--trials", "2000"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.splitlines()[-1] == f"{prop}: pass"

    def test_open_mindedness_star(self, star_file, capsys):
        code = cli.main(["check", "open-mindedness", star_file,
                         "--semantics", "euler"])
        assert code == 0
        assert "open-mindedness: pass" in capsys.readouterr().out

    def test_open_mindedness_reads_stdin(self, star_file, capsys,
                                         monkeypatch):
        argv = ["check", "open-mindedness", star_file, "--semantics", "qe"]
        assert cli.main(argv) == 0
        from_file = capsys.readouterr()
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(Path(star_file).read_text()))
        argv[2] = "-"
        assert cli.main(argv) == 0
        assert capsys.readouterr() == from_file

    def test_open_mindedness_needs_input(self, capsys):
        code = cli.main(["check", "open-mindedness", "--semantics", "euler"])
        assert code == 1

    def test_open_mindedness_without_final_strengths(self, star_file, capsys,
                                                     monkeypatch):
        unsettled = SolveResult(Outcome.BUDGET_EXHAUSTED, np.zeros(2), 1.0)
        monkeypatch.setattr(continuous, "solve",
                            lambda *args, **kwargs: ("rk4", unsettled))
        code = cli.main(["check", "open-mindedness", star_file,
                         "--semantics", "euler"])
        assert code == 2
        assert capsys.readouterr().out == (
            "open-mindedness: budget-exhausted — no final strengths to "
            "check\n")


class TestEntryPoint:
    def test_console_script_wiring(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", "generate", "star",
             "2", "0.5", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("arg(a,0.5).")

    def test_usage_error_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", "solve"],
            capture_output=True, text=True)
        assert proc.returncode == 1


LINUX = sys.platform.startswith("linux")
# the threads OpenBLAS starts by default: one per CPU this process may use
CPUS = len(os.sched_getaffinity(0)) if LINUX else os.cpu_count() or 1
OPENBLAS = "openblas" in str(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]).lower()


class TestStartupEnvironment:
    """The CLI loads numpy with a one-thread OpenBLAS, and leaves os.environ
    as the caller set it."""

    THREADS = "len(os.listdir('/proc/self/task'))"

    def test_environment_is_restored(self):
        out = fresh_python("import os, bagsolve.cli\n"
                           "print('OPENBLAS_NUM_THREADS' in os.environ)")
        assert out == "False\n"

    @pytest.mark.skipif(not LINUX, reason="counts threads in /proc")
    def test_one_thread(self):
        out = fresh_python(f"import os, bagsolve.cli\nprint({self.THREADS})")
        assert out == "1\n"

    @pytest.mark.skipif(not LINUX, reason="counts threads in /proc")
    @pytest.mark.skipif(not OPENBLAS or CPUS < 2,
                        reason="needs numpy on OpenBLAS and two CPUs")
    def test_callers_thread_count_wins(self):
        out = fresh_python(
            "import os, bagsolve.cli\n"
            f"print(os.environ['OPENBLAS_NUM_THREADS'], {self.THREADS})",
            OPENBLAS_NUM_THREADS="2")
        assert out == "2 2\n"

    def test_numpy_loaded_first_is_left_alone(self):
        out = fresh_python(
            "import os, numpy\n"
            "before = dict(os.environ)\n"
            "import bagsolve.cli\n"
            "print(dict(os.environ) == before)")
        assert out == "True\n"
