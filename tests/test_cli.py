import subprocess
import sys

import pytest

from bagsolve import cli, generate_family, parse_bag, serialize_bag
from bagsolve.analysis import fixture_duality_bag, generate_star


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
    ])
    def test_non_finite_step_or_budget(self, family_file, capsys, flags,
                                       message):
        code = cli.main(["solve", family_file, "--semantics", "qe", *flags])
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

    def test_step_too_small_to_move_the_state(self, family_file):
        # 0.9 + 1e-300 * k rounds back to 0.9, so the run can never reach
        # t_max or converge; it must stop instead of looping forever
        proc = subprocess.run(
            [sys.executable, "-m", "bagsolve.cli", "solve", family_file,
             "--semantics", "qe", "--delta", "1e-300"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "outcome: budget-exhausted" in proc.stdout


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

    def test_open_mindedness_star(self, star_file, capsys):
        code = cli.main(["check", "open-mindedness", star_file,
                         "--semantics", "euler"])
        assert code == 0
        assert "open-mindedness: pass" in capsys.readouterr().out

    def test_open_mindedness_needs_input(self, capsys):
        code = cli.main(["check", "open-mindedness", "--semantics", "euler"])
        assert code == 1


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
