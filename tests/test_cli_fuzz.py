"""Fuzz ``cli.main`` in-process: any argv over the subcommands and their flags,
with hostile values, on fixture, mutated-fixture or garbage BAG files, ends in
exit code 0, 1 or 2 without raising and without a traceback on stderr.

Graphs stay small (at most 30 arguments), and every run budget a command
line sets stays small (`check open-mindedness` solves with the library's
defaults), so the file adds a few seconds to the suite.
"""
import contextlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bagsolve import cli, parse_bag

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TEXTS = [text for text in (p.read_text() for p in sorted(FIXTURES.glob("*.bag")))
         if parse_bag(text).n <= 30]

# values no flag should crash on: NaN, infinities, negatives, zeros, a
# subnormal, an integer past float range, words
HOSTILE = ["nan", "inf", "-inf", "-1", "0", "-0.0", "1e-320", "1e400",
           str(10**400), "x", ""]


def flag(name: str, *values: str):
    # [] or [name, value], the value one of ``values``
    return st.one_of(st.just([]), st.sampled_from(values).map(
        lambda value: [name, value]))


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def semantics_flags():
    # a preset with or without kappa, or custom with both of its names; the
    # hostile values come from ``corrupted``
    preset = joined(
        st.sampled_from(["dfq", "euler", "qe"]).map(
            lambda name: ["--semantics", name]),
        flag("--kappa", "1", "4", "20"))
    custom = joined(
        st.just(["--semantics", "custom"]),
        st.sampled_from(["sum", "product", "top"]).map(
            lambda name: ["--aggregation", name]),
        st.sampled_from(["linear", "euler", "pmax", "constant"]).map(
            lambda name: ["--influence", name]),
        flag("--kappa", "1", "4", "20"), flag("--p", "1", "2", "3"))
    return st.one_of(preset, custom)


# mutations of a fixture: text cut out, or a snippet put in
SNIPPETS = ["arg(", ")", ".", ",", "\n", "nan", "1e400", "-0.5", "1.5",
            "arg(z,0.5).", "att(z,z).", "sup(a1,a1).", "att(a1,b1).", "%",
            "\x00", "\ufeff", "é"]


@st.composite
def bag_bytes(draw) -> bytes:
    kind = draw(st.sampled_from(["fixture", "mutated", "garbage"]))
    if kind == "garbage":
        return draw(st.binary(max_size=200))
    text = draw(st.sampled_from(TEXTS))
    if kind == "mutated":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(text)))
            if draw(st.booleans()):
                text = text[:at] + text[at + draw(st.integers(1, 20)):]
            else:
                text = text[:at] + draw(st.sampled_from(SNIPPETS)) + text[at:]
    return text.encode("utf-8")


def solve_argv(input_path: str, out_dir: Path):
    # the budgets are always given, so that no run takes the default 10^4
    # time or 10^5 iterations: at most 30 iterations or 60 steps of delta
    return joined(
        st.just(["solve", input_path]), semantics_flags(),
        flag("--mode", "auto", "acyclic", "discrete", "euler", "rk4"),
        flag("--delta", "0.05", "0.5", "1", "5e306"),
        flag("--tolerance", "1e-4", "0.5", "1e-300"),
        st.sampled_from(["0", "1", "30"]).map(
            lambda v: ["--max-iterations", v]),
        st.sampled_from(["0", "0.5", "3"]).map(lambda v: ["--t-max", v]),
        flag("--trajectory", str(out_dir / "t.csv"), str(out_dir),
             str(out_dir / "missing" / "t.csv")))


def certify_argv(input_path: str):
    return joined(st.just(["certify", input_path]), semantics_flags(),
                  flag("--epsilon", "1e-6", "0.5"))


def check_argv(input_path: str):
    # each property with the arguments its form takes; no trial count past
    # a few: a passing check runs every trial
    sampled = joined(
        st.sampled_from(["duality", "lipschitz"]).map(
            lambda prop: ["check", prop]),
        semantics_flags(), flag("--trials", "1", "3"),
        flag("--seed", "0", "7"))
    solved = joined(st.just(["check", "open-mindedness", input_path]),
                    semantics_flags())
    return st.one_of(sampled, solved)


def generate_argv(out_dir: Path):
    # each kind with the parameters its form takes; no k past 3, short of
    # the edge cap, which allows 10^6 edges
    output = flag("--output", str(out_dir / "g.bag"), str(out_dir))
    sized = joined(
        st.sampled_from(["family", "star"]).map(lambda kind: ["generate", kind]),
        st.tuples(st.sampled_from(["1", "3"]),
                  *[st.sampled_from(["0.9", "0.1", "0.5"])] * 2).map(list),
        output)
    return st.one_of(sized, joined(st.just(["generate", "duality-fixture"]),
                                   output))


@st.composite
def corrupted(draw, argv):
    # a valid command line with up to two tokens replaced by, or preceded
    # by, hostile ones; a hostile budget is refused or takes one step at most
    argv = list(draw(argv))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(
            [*HOSTILE, str(10**8), "duality-fixture", "bogus", "--help"]))
        argv[at:at + draw(st.integers(0, 1))] = [token]
    return argv


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv, cwd: Path) -> tuple[int, str]:
    # in ``cwd``, where a hostile token read as an output path is written
    err, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    return code, err.getvalue()


@settings(max_examples=200)
@given(data=st.data())
def test_main_exits_cleanly(work, data):
    path = work / "input.bag"
    path.write_bytes(data.draw(bag_bytes(), label="bag"))
    source = data.draw(st.sampled_from(
        [str(path)] * 4 + [str(work / "missing.bag"), str(work)]),
        label="input")
    argv = data.draw(corrupted(st.one_of(
        solve_argv(source, work), certify_argv(source), check_argv(source),
        generate_argv(work))), label="argv")
    code, err = run(argv, work)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
