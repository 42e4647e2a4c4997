import io as stdio

import pytest
from hypothesis import given, strategies as st

from bagsolve import (
    Bag,
    BagParseError,
    Trajectory,
    dfq,
    fixture_duality_bag,
    generate_family,
    integrate_rk4,
    iterate,
    parse_bag,
    serialize_bag,
    write_trajectory_csv,
)

FIGURE_LIKE = """\
# three arguments, two attacks, two supports
arg(a,0.6).
arg(b,0.9).
arg(c,0.4).
att(a,b).  att(a,c).   // several statements per line are fine
sup(b,c).
sup(c,b).
"""


class TestParse:
    def test_statements_share_a_line(self):
        bag = parse_bag("arg(a,0.6). arg(b,0.9). att(a,b).")
        assert bag.names == ("a", "b")
        assert bag.weights.tolist() == [0.6, 0.9]
        assert bag.attacks == {(0, 1)}
        assert not bag.supports

    def test_three_node_cycle_file(self):
        from bagsolve import parent_vector
        bag = parse_bag(FIGURE_LIKE)
        assert bag.names == ("a", "b", "c")
        assert parent_vector(bag, 1).tolist() == [-1, 0, 1]

    def test_reads_from_stream(self):
        bag = parse_bag(stdio.StringIO("arg(x,1)."))
        assert bag.names == ("x",) and bag.weights.tolist() == [1.0]

    def test_declaration_order_is_argument_order(self):
        bag = parse_bag("arg(z,0.1). arg(a,0.2). arg(m,0.3).")
        assert bag.names == ("z", "a", "m")

    def test_forward_edge_reference_is_fine(self):
        bag = parse_bag("att(a,b). arg(a,0.5). arg(b,0.5).")
        assert bag.attacks == {(0, 1)}


class TestDiagnostics:
    def assert_single_error(self, text, fragment, line):
        with pytest.raises(BagParseError) as err:
            parse_bag(text)
        diags = err.value.diagnostics
        assert any(fragment in d.message and d.line == line for d in diags), diags
        assert all(d.severity == "error" for d in diags)

    def test_weight_out_of_range(self):
        self.assert_single_error("arg(a,1.5).", "outside [0,1]", 1)

    def test_negative_weight(self):
        self.assert_single_error("arg(a,-0.25).", "outside [0,1]", 1)

    def test_duplicate_declaration(self):
        self.assert_single_error("arg(a,0.5).\narg(a,0.7).", "duplicate", 2)

    def test_unknown_argument_in_edge(self):
        self.assert_single_error("arg(a,0.5).\natt(a,ghost).", "undeclared", 2)

    def test_attack_support_collision(self):
        self.assert_single_error(
            "arg(a,0.5). arg(b,0.5).\natt(a,b).\nsup(a,b).",
            "both as attack and support", 3)

    def test_malformed_statement(self):
        self.assert_single_error("arg(a,0.5).\nfoo(a,b).", "malformed", 2)

    def test_missing_period(self):
        with pytest.raises(BagParseError):
            parse_bag("arg(a,0.5)")

    def test_multiple_errors_reported_together(self):
        with pytest.raises(BagParseError) as err:
            parse_bag("arg(a,2).\narg(a,0.5).\natt(a,nope).")
        assert len(err.value.diagnostics) == 3

    def test_positions_after_comments_and_shared_lines(self):
        text = ("# header that mentions arg(x,2).\n"
                "arg(a,0.5). arg(b,0.25).  arg(c,1.5).\n"
                "arg(d,0.1). // note att(d,zz).\n"
                "   att(d,ghost).\n")
        with pytest.raises(BagParseError) as err:
            parse_bag(text)
        assert [(d.line, d.column) for d in err.value.diagnostics] == [
            (2, 27), (4, 4)]

    def test_every_one_of_many_errors_is_located(self):
        with pytest.raises(BagParseError) as err:
            parse_bag("arg(a,0.5).\n" + " bad.\n" * 5000)
        diags = err.value.diagnostics
        assert [(d.line, d.column) for d in diags] == [
            (line, 2) for line in range(2, 5002)]


class TestSerialize:
    def test_minimal_bag(self):
        assert serialize_bag(Bag(["a"], [0.5])) == "arg(a,0.5).\n"

    def test_duality_fixture_roundtrip(self):
        bag = fixture_duality_bag()
        assert parse_bag(serialize_bag(bag)) == bag

    def test_family_roundtrip(self):
        bag = generate_family(2, 0.9, 0.1)
        again = parse_bag(serialize_bag(bag))
        assert again.attacks == bag.attacks
        assert again.supports == bag.supports
        assert again == bag

    def test_full_precision_weights_survive(self):
        w = 0.1234567890123456789  # rounds to nearest double
        bag = Bag(["a"], [w])
        assert parse_bag(serialize_bag(bag)).weights[0] == bag.weights[0]

    def test_tiny_weight_exponent_form(self):
        bag = Bag(["a"], [1e-9])
        assert parse_bag(serialize_bag(bag)).weights[0] == 1e-9


@st.composite
def named_bags(draw):
    names = draw(st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
        min_size=1, max_size=5, unique=True))
    n = len(names)
    weights = draw(st.lists(st.floats(0, 1, allow_nan=False),
                            min_size=n, max_size=n))
    raw = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
        max_size=10))
    attacks, supports = set(), set()
    for u, v, is_attack in raw:
        if (u, v) in attacks or (u, v) in supports:
            continue
        (attacks if is_attack else supports).add((u, v))
    return Bag(names, weights, attacks, supports)


@given(named_bags())
def test_random_roundtrip(bag):
    assert parse_bag(serialize_bag(bag)) == bag


class TestTrajectoryCsv:
    def test_line_count_and_header(self):
        traj = Trajectory()
        traj.append(0, [0.5])
        traj.append(1, [0.25])
        out = stdio.StringIO()
        write_trajectory_csv(traj, ["a"], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,a"
        assert len(lines) == 3

    def test_discrete_run_uses_iteration_index(self):
        bag = generate_family(1, 0.9, 0.1)
        result = iterate(bag, dfq(1.9), tolerance=1e-6)
        out = stdio.StringIO()
        write_trajectory_csv(result.trajectory, bag.names, out)
        times = [row.split(",")[0] for row in out.getvalue().splitlines()[1:]]
        assert times[:4] == ["0", "1", "2", "3"]

    def test_rk4_run_uses_step_multiples(self):
        bag = generate_family(1, 0.9, 0.1)
        result = integrate_rk4(bag, dfq(1.0), delta=0.25)
        out = stdio.StringIO()
        write_trajectory_csv(result.trajectory, bag.names, out)
        times = [row.split(",")[0] for row in out.getvalue().splitlines()[1:]]
        assert times[:5] == ["0", "0.25", "0.5", "0.75", "1"]

    def test_values_roundtrip_at_full_precision(self):
        bag = generate_family(1, 0.9, 0.1)
        result = iterate(bag, dfq(1.9), tolerance=1e-8)
        out = stdio.StringIO()
        write_trajectory_csv(result.trajectory, bag.names, out)
        rows = out.getvalue().splitlines()[1:]
        for row, state in zip(rows, result.trajectory.states):
            parsed = [float(x) for x in row.split(",")[1:]]
            assert parsed == state.tolist()

    def test_time_column_is_monotone(self):
        bag = generate_family(1, 0.9, 0.1)
        result = integrate_rk4(bag, dfq(1.0), delta=0.1)
        times = result.trajectory.times
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            write_trajectory_csv(Trajectory(), ["a"], stdio.StringIO())

    def test_arity_mismatch_rejected(self):
        traj = Trajectory()
        traj.append(0, [0.5, 0.25])
        with pytest.raises(ValueError, match="arity"):
            write_trajectory_csv(traj, ["a"], stdio.StringIO())

    def test_arity_mismatch_writes_no_file(self, tmp_path):
        traj = Trajectory()
        traj.append(0, [0.5])
        traj.append(1, [0.5, 0.25])
        target = tmp_path / "run.csv"
        with pytest.raises(ValueError, match="arity"):
            write_trajectory_csv(traj, ["a"], target)
        assert not target.exists()

    def test_every_sink_gets_the_same_text(self, tmp_path):
        bag = generate_family(1, 0.9, 0.1)
        traj = integrate_rk4(bag, dfq(1.0), delta=0.25).trajectory
        text, binary = stdio.StringIO(), stdio.BytesIO()
        target = tmp_path / "run.csv"
        for sink in (text, binary, target):
            write_trajectory_csv(traj, bag.names, sink)
        assert binary.getvalue().decode("utf-8") == text.getvalue()
        assert target.read_bytes() == binary.getvalue()
        assert len(text.getvalue().splitlines()) == len(traj) + 1

    def test_binary_sink(self):
        traj = Trajectory()
        traj.append(0, [0.5])
        out = stdio.BytesIO()
        write_trajectory_csv(traj, ["a"], out)
        assert out.getvalue().startswith(b"t,a\n")

    def test_path_sink(self, tmp_path):
        traj = Trajectory()
        traj.append(0, [0.5])
        target = tmp_path / "run.csv"
        write_trajectory_csv(traj, ["a"], target)
        assert target.read_text().startswith("t,a\n")
