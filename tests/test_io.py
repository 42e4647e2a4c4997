import io as stdio
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bags
from reference import parent_vector

from bagsolve import (
    Bag,
    BagParseError,
    Trajectory,
    dfq,
    euler_semantics,
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


MALFORMED = "malformed statement (expected arg/att/sup): "
COLLISION = ("(a,b) is declared both as attack and support; "
             "a parent must be one or the other")

# input text -> the exact (line, column, message) of every diagnostic, in
# the order reported: malformed statements, then declarations, then edges
PINNED_DIAGNOSTICS = {
    "junk": ("foo(a,b).", [(1, 1, MALFORMED + "'foo(a,b).'")]),
    "duplicate": ("arg(a,0.5).\narg(a,0.7).", [
        (2, 1, "duplicate declaration of argument 'a'"),
    ]),
    "weight-above-one": ("arg(a,1.5).", [
        (1, 1, "weight 1.5 of argument 'a' outside [0,1]"),
    ]),
    "weight-below-zero": ("arg(a,-0.25).", [
        (1, 1, "weight -0.25 of argument 'a' outside [0,1]"),
    ]),
    "weight-overflows": ("arg(a,1e999).", [
        (1, 1, "weight 1e999 of argument 'a' outside [0,1]"),
    ]),
    "undeclared": ("arg(a,0.5).\natt(a,ghost).", [
        (2, 1, "edge references undeclared argument 'ghost'"),
    ]),
    "both-undeclared": ("att(x,y).", [
        (1, 1, "edge references undeclared argument 'x'"),
        (1, 1, "edge references undeclared argument 'y'"),
    ]),
    "collision": ("arg(a,0.5). arg(b,0.5).\natt(a,b).\nsup(a,b).", [
        (3, 1, COLLISION),
    ]),
    "collision-repeated": (
        "arg(a,.5).arg(b,.5).sup(a,b).att(a,b).att(a,b).", [
            (1, 30, COLLISION),
            (1, 39, COLLISION),
        ]),
    "comments": (
        "# arg(x,2).\narg(a,0.5). // att(a,zz).\nfoo. # att(q,q).\n", [
            (3, 1, MALFORMED + "'foo.'"),
        ]),
    "shared-line": ("arg(a,0.5). arg(b,2). att(a,c). bar.", [
        (1, 33, MALFORMED + "'bar.'"),
        (1, 13, "weight 2 of argument 'b' outside [0,1]"),
        (1, 23, "edge references undeclared argument 'c'"),
    ]),
    "crlf": ("arg(a,0.5).\r\narg(b,1.5).\r\natt(a,zz).\r\n", [
        (2, 1, "weight 1.5 of argument 'b' outside [0,1]"),
        (3, 1, "edge references undeclared argument 'zz'"),
    ]),
    "tabs": ("\targ(a,0.5).\t\tatt(a,\tq).\n\tjunk here.", [
        (2, 2, MALFORMED + "'junk here.'"),
        (1, 15, "edge references undeclared argument 'q'"),
    ]),
    "lone-periods": ("arg(a,0.5). . .. arg(b,0.5).", [
        (1, 13, MALFORMED + "'. .. arg(b,0.5).'"),
        (1, 15, MALFORMED + "'.. arg(b,0.5).'"),
        (1, 16, MALFORMED + "'. arg(b,0.5).'"),
    ]),
    "trailing-junk": ("arg(a,0.5).\nxyz", [(2, 1, MALFORMED + "'xyz'")]),
    "mixed": ("arg(a,2).\narg(a,0.5).\natt(a,nope).", [
        (1, 1, "weight 2 of argument 'a' outside [0,1]"),
        (2, 1, "duplicate declaration of argument 'a'"),
        (3, 1, "edge references undeclared argument 'nope'"),
    ]),
    "split-statements": ("arg(\n a ,\n 1.5\n ) .\natt(a,\nb).", [
        (1, 1, "weight 1.5 of argument 'a' outside [0,1]"),
        (5, 1, "edge references undeclared argument 'b'"),
    ]),
    "comment-inside-statement": ("arg(a, # weight next\n 1.5).", [
        (1, 1, "weight 1.5 of argument 'a' outside [0,1]"),
    ]),
    "long-junk": ("this_is_a_very_long_statement_without_a_period_anywhere", [
        (1, 1, MALFORMED + "'this_is_a_very_long_stat'"),
    ]),
    "junk-over-newline": ("bad\nmore.", [(1, 1, MALFORMED + "'bad'")]),
    "unknown-keyword": ("arg(a,0.5).attack(a,a).", [
        (1, 12, MALFORMED + "'attack(a,a).'"),
    ]),
    "nbsp": ("arg(a,0.5).\xa0arg(b,2).", [
        (1, 13, "weight 2 of argument 'b' outside [0,1]"),
    ]),
    "capitalised": ("Arg(a,1).", [(1, 1, MALFORMED + "'Arg(a,1).'")]),
    "non-ascii-digits": ("arg(a,\u0660.\u0665).", [
        (1, 1, MALFORMED + "'arg(a,\u0660.\u0665).'"),
    ]),
    "edge-before-junk": ("att(a,b). ?? arg(a,1).", [
        (1, 11, MALFORMED + "'?? arg(a,1).'"),
        (1, 1, "edge references undeclared argument 'a'"),
        (1, 1, "edge references undeclared argument 'b'"),
    ]),
}

# Recovery skips a malformed statement up to its closing period, or up to
# a line break before a line that starts with arg(, att( or sup(, and a
# period followed by a digit is a decimal point, not the end: each of these
# inputs holds one malformed statement and gets one diagnostic for it.
ONE_MALFORMED_STATEMENT = {
    "missing-period": ("arg(a,0.5)\n", [
        (1, 1, MALFORMED + "'arg(a,0.5)'"),
    ]),
    "missing-period-then-statement": ("arg(a,0.5)\narg(b,0.25).", [
        (1, 1, MALFORMED + "'arg(a,0.5)'"),
    ]),
    "missing-period-then-indented-statement": (
        "arg(a,0.5)\n \targ(b,0.25).\natt(b,b).", [
            (1, 1, MALFORMED + "'arg(a,0.5)'"),
        ]),
    # the next statement survives, so only the undeclared 'a' follows
    "missing-period-then-edge": ("arg(a,0.5)\narg(b,0.25).\natt(a,b).", [
        (1, 1, MALFORMED + "'arg(a,0.5)'"),
        (3, 1, "edge references undeclared argument 'a'"),
    ]),
    "non-ascii-name": ("arg(x,0.1).\narg(\xe9,0.5).", [
        (2, 1, MALFORMED + "'arg(\xe9,0.5).'"),
    ]),
    "digit-name": ("arg(1a,0.5).", [(1, 1, MALFORMED + "'arg(1a,0.5).'")]),
    "bare-number": ("1.5.", [(1, 1, MALFORMED + "'1.5.'")]),
}


def diagnostics_of(text):
    with pytest.raises(BagParseError) as err:
        parse_bag(text)
    return [(d.line, d.column, d.message) for d in err.value.diagnostics]


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


    @pytest.mark.parametrize("key", PINNED_DIAGNOSTICS)
    def test_pinned_diagnostics(self, key):
        text, expected = PINNED_DIAGNOSTICS[key]
        assert diagnostics_of(text) == expected

    @pytest.mark.parametrize("key", ONE_MALFORMED_STATEMENT)
    def test_one_diagnostic_per_malformed_statement(self, key):
        text, expected = ONE_MALFORMED_STATEMENT[key]
        assert diagnostics_of(text) == expected

    def test_byte_order_mark_is_ignored(self):
        text = "arg(a,0.5).\narg(b,0.25).\natt(a,b).\n"
        assert parse_bag("\ufeff" + text) == parse_bag(text)
        assert parse_bag(stdio.StringIO("\ufeff" + text)) == parse_bag(text)
        # columns on line 1 count from the first visible character
        assert diagnostics_of("\ufeffarg(a,2).") == [
            (1, 1, "weight 2 of argument 'a' outside [0,1]")]

    def test_long_digit_run_fails_in_linear_time(self):
        # a number pattern that backtracks quadratically takes ~30 s on this
        text = "arg(a," + "1" * 30_000 + "x)."
        started = time.perf_counter()
        assert diagnostics_of(text) == [
            (1, 1, MALFORMED + "'arg(a,111111111111111111'")]
        assert time.perf_counter() - started < 2.0

    def test_blank_lines_in_malformed_statement_fail_in_linear_time(self):
        # each line break looks ahead for a statement on the next line only;
        # a lookahead over all the blank lines below would take minutes
        text = "arg(a," + "\n" * 100_000 + "0.5x)."
        started = time.perf_counter()
        assert diagnostics_of(text) == [(1, 1, MALFORMED + "'arg(a,'")]
        assert time.perf_counter() - started < 2.0


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


# blanks and comments that may stand between two statements
FILLERS = st.sampled_from([
    "", " ", "\t", "\n", "\r\n", "\n\n", "\xa0", "#\n",
    "  # note arg(x,2).\n", "// att(n0,zz). sup(n0,n0).\n",
])


@given(bags(), st.data())
def test_roundtrip_with_blanks_and_comments(bag, data):
    statements = serialize_bag(bag).splitlines()
    text = "".join(data.draw(FILLERS) + s for s in statements)
    assert parse_bag(text + data.draw(FILLERS)) == bag


# pieces of the grammar and of near misses, spliced at random by the fuzzer
PIECES = st.one_of(
    st.sampled_from([
        "arg(", "att(", "sup(", "a", "b", "x_1", "\xe9", "0.5", "1", ".25",
        "-3", "1e-9", "2e400", "7.", ",", "(", ")", ".", "#c\n",
        "# arg(a,1).\n", "//", " ", "\n", "\r\n", "\t", "\xa0", "\ufeff",
    ]),
    st.text(max_size=2),
)


@given(st.lists(PIECES, max_size=30).map("".join))
def test_any_text_gives_a_bag_or_diagnostics(text):
    try:
        bag = parse_bag(text)
    except BagParseError as err:
        lines = text.count("\n") + 1
        assert err.diagnostics
        assert all(1 <= d.line <= lines and d.column >= 1
                   for d in err.diagnostics)
    else:
        assert isinstance(bag, Bag)


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


def plain_csv(trajectory: Trajectory, names) -> str:
    """The trajectory CSV with every value formatted by its own repr."""
    lines = ["t," + ",".join(names)]
    for t, state in zip(trajectory.times, trajectory.states):
        time_text = str(int(t)) if t == int(t) else repr(t)
        values = np.asarray(state, dtype=float).tolist()
        lines.append(time_text + "," + ",".join(map(repr, values)))
    return "\n".join(lines) + "\n"


def csv_bytes_of_every_sink(trajectory: Trajectory, names, tmp_path) -> list:
    text, binary = stdio.StringIO(), stdio.BytesIO()
    target = tmp_path / "rows.csv"
    for sink in (text, binary, target):
        write_trajectory_csv(trajectory, names, sink)
    return [text.getvalue().encode("utf-8"), binary.getvalue(),
            target.read_bytes()]


NAN_WITH_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.int64).view(float)[0]

ROWS = {
    "two-groups": [0.3] * 50 + [0.7] * 50,
    "signed-zeros": [0.0, -0.0, 0.0, -0.0, 0.5, 0.5, -0.0, 0.0],
    "zeros-after-the-probe": [0.1 * k for k in range(8)] + [0.0, -0.0] * 4,
    "nan": [float("nan"), 0.5, float("nan"), 0.5, -float("nan"),
            NAN_WITH_PAYLOAD, float("inf"), -float("inf"), 5e-324],
    "short": [0.25, 0.25],
    "all-distinct": np.random.default_rng(2).random(10_000).tolist(),
}


class TestTrajectoryRows:
    """Each distinct value of a row is formatted once; the text must stay
    what formatting every value on its own gives."""

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_row_matches_plain_repr(self, name, tmp_path):
        row = ROWS[name]
        traj = Trajectory()
        traj.append(0, row)
        traj.append(0.5, row[::-1])
        names = [f"x{i}" for i in range(len(row))]
        expected = plain_csv(traj, names).encode("utf-8")
        for got in csv_bytes_of_every_sink(traj, names, tmp_path):
            assert got == expected

    def test_signed_zeros_keep_their_sign(self):
        traj = Trajectory()
        traj.append(0, ROWS["signed-zeros"])
        out = stdio.StringIO()
        write_trajectory_csv(traj, list("abcdefgh"), out)
        assert out.getvalue().splitlines()[1] == (
            "0,0.0,-0.0,0.0,-0.0,0.5,0.5,-0.0,0.0")

    def test_empty_states(self, tmp_path):
        traj = Trajectory()
        traj.append(0, [])
        traj.append(1, [])
        for got in csv_bytes_of_every_sink(traj, [], tmp_path):
            assert got == b"t,\n0,\n1,\n"

    @given(rows=st.lists(st.lists(st.sampled_from(
        [0.0, -0.0, 0.5, 1.0, 1 / 3, float("nan"), float("inf"), 5e-324,
         NAN_WITH_PAYLOAD]), min_size=12, max_size=12), min_size=1,
        max_size=4))
    def test_any_rows_match_plain_repr(self, rows):
        traj = Trajectory()
        for t, row in enumerate(rows):
            traj.append(t, row)
        names = [f"x{i}" for i in range(12)]
        out = stdio.StringIO()
        write_trajectory_csv(traj, names, out)
        assert out.getvalue() == plain_csv(traj, names)

    def test_family_trajectory_matches_plain_repr(self):
        bag = generate_family(5, 0.9, 0.1)
        traj = integrate_rk4(bag, euler_semantics()).trajectory
        out = stdio.StringIO()
        write_trajectory_csv(traj, bag.names, out)
        assert out.getvalue() == plain_csv(traj, bag.names)
