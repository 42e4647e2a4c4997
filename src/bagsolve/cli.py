"""Command-line front end.

Subcommands: ``solve`` a BAG file, ``certify`` its contraction bound,
``generate family|star K W1 W2`` or ``generate duality-fixture`` benchmark
graphs, and ``check duality|lipschitz`` or ``check open-mindedness BAG``
semantic properties. Each form has its own parser, holding exactly the
arguments it reads, so any other argument is a usage error. Exit codes: 0 for
converged/pass, 2 for diverged/budget-exhausted/fail, 1 for usage, parse, or
configuration errors.
"""
from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

# bagsolve makes no BLAS call, yet OpenBLAS starts a worker thread per core
# when numpy loads, and in a short solve process that idle thread costs more
# CPU than the solve. OpenBLAS reads OPENBLAS_NUM_THREADS once, at load, so
# unless numpy is loaded already or the caller chose a count, load it with
# one thread and leave the environment as it was.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import analysis, continuous, discrete
# topological_order is unused here but stays a name of this module, because
# the benchmark's tracer (bench/run.py) patches cli.topological_order.
from .core import Bag, topological_order  # noqa: F401
from .continuous import Outcome, SolveResult
from .io import BagParseError, parse_bag, serialize_bag, write_trajectory_csv
from .semantics import (AGGREGATIONS, INFLUENCES, PRESETS,
                        SemanticsConfigError, SemanticsSpec)


# the most edges `generate` builds: while it builds them they take about 85 B
# each, and about 160 B each while serialize_bag writes them out
MAX_GENERATED_EDGES = 10**6
# the most trials `check duality|lipschitz` runs: a trial of both checks
# costs 6-11 us on one Xeon core, so the cap is one to two minutes
MAX_TRIALS = 10**7


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (2 is reserved for diverged/failed runs)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_semantics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--semantics", choices=(*PRESETS, "custom"), required=True,
                   help="preset semantics, or 'custom' with explicit "
                        "--aggregation/--influence")
    p.add_argument("--aggregation", choices=AGGREGATIONS)
    p.add_argument("--influence", choices=INFLUENCES)
    p.add_argument("--kappa", type=float,
                   help="conservativeness of linear/pmax influence "
                        f"(default {SemanticsSpec.kappa:g})")
    p.add_argument("--p", type=int,
                   help="exponent of the pmax influence, with --semantics "
                        f"custom (default {SemanticsSpec.p})")


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"epsilon must be in (0, 1), got {value:g}")
    return value


def _build_spec(args) -> SemanticsSpec:
    """The spec of the semantics flags that were set; every default is the
    library's. ``custom`` takes all four, a preset those its signature names,
    and the first other one set, in the order below, is refused."""
    given = {flag: getattr(args, flag)
             for flag in ("aggregation", "influence", "p", "kappa")
             if getattr(args, flag) is not None}
    if args.semantics == "custom":
        if not args.aggregation or not args.influence:
            raise SemanticsConfigError(
                "--semantics custom needs both --aggregation and --influence")
        return SemanticsSpec(**given)
    preset = PRESETS[args.semantics]
    for flag in given:
        if flag not in inspect.signature(preset).parameters:
            raise SemanticsConfigError(
                f"--{flag} does not apply to --semantics {args.semantics}; "
                f"use --semantics custom to set it")
    return preset(**given)


def _load_bag(path: str) -> Bag:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_bag(text)


def _print_table(bag: Bag, field: int, columns: dict) -> None:
    # A header, then one row per argument: its name and its value in each
    # column (heading -> numpy array), as fixed-point numbers ``field``
    # characters wide. One write per 1024 rows is nearly as fast as one
    # write for the whole table, without holding all of it as Python
    # strings and floats.
    width = max(8, *(len(n) for n in bag.names)) if bag.n else 8
    sys.stdout.write(f"{'argument':<{width}}"
                     + "".join(f"  {head:>{field}}" for head in columns) + "\n")
    row = f"%-{width}s" + f"  %{field}.6f" * len(columns) + "\n"
    for lo in range(0, bag.n, 1024):
        hi = lo + 1024
        sys.stdout.write("".join(map(row.__mod__, zip(
            bag.names[lo:hi], *(c[lo:hi].tolist() for c in columns.values())))))


def _report_result(bag: Bag, mode: str, result: SolveResult) -> int:
    _print_table(bag, 8, {"weight": bag.weights, "strength": result.strengths})
    print(f"mode: {mode}")
    print(f"outcome: {result.outcome.value}")
    if mode in ("euler", "rk4"):
        print(f"time: {result.effort:.6f}")
    else:
        print(f"iterations: {int(result.effort)}")
    if result.outcome is Outcome.DIVERGED:
        s1, s2 = result.divergence_evidence
        print("note: states alternate with period 2")
        print("cycle-state-1: " + " ".join(f"{x:.6f}" for x in s1))
        print("cycle-state-2: " + " ".join(f"{x:.6f}" for x in s2))
    return 0 if result.outcome is Outcome.CONVERGED else 2


def cmd_solve(args) -> int:
    bag = _load_bag(args.input)
    spec = _build_spec(args)
    want_traj = args.trajectory is not None
    mode, result = continuous.solve(
        bag, spec, args.mode, delta=args.delta, tolerance=args.tolerance,
        t_max=args.t_max, max_iterations=args.max_iterations,
        record_trajectory=want_traj)
    if want_traj:
        write_trajectory_csv(result.trajectory, bag.names, args.trajectory)
    return _report_result(bag, mode, result)


def cmd_certify(args) -> int:
    bag = _load_bag(args.input)
    spec = _build_spec(args)
    cert = discrete.certify(bag, spec)
    _print_table(bag, 10, {"lambda": cert.per_argument_lambda})
    print(f"global-lambda: {cert.global_lambda:.6f}")
    print(f"guaranteed: {'yes' if cert.guaranteed else 'no'}")
    if cert.guaranteed:
        print(f"iterations-for({args.epsilon:g}): "
              f"{cert.iterations_for(args.epsilon)}")
    print(f"rule: {cert.rule}")
    return 0


def cmd_generate(args) -> int:
    if args.kind == "duality-fixture":
        bag = analysis.fixture_duality_bag()
    else:
        # refused before any edge is built: a family of k = 10^8 would fill
        # the memory with 4·10^16 edge tuples (the generators refuse k < 1
        # themselves)
        edges = 4 * args.k * args.k if args.kind == "family" else args.k
        if args.k > 0 and edges > MAX_GENERATED_EDGES:
            raise ValueError(f"{edges} edges, more than the cap of "
                             f"{MAX_GENERATED_EDGES}")
        generate = getattr(analysis, f"generate_{args.kind}")
        bag = generate(args.k, args.w1, args.w2)
    text = serialize_bag(bag)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _check_pair(args) -> int:
    # duality or lipschitz: runs analysis.check_<prop>_aggregation and
    # analysis.check_<prop>_influence
    prop = args.property
    spec = _build_spec(args)
    if args.trials > MAX_TRIALS:  # refused before any trial runs
        raise ValueError(f"{args.trials} trials, more than the cap of "
                         f"{MAX_TRIALS}")
    reports = {part: getattr(analysis, f"check_{prop}_{part}")(
        spec, args.trials, args.seed) for part in ("aggregation", "influence")}
    for part, report in reports.items():
        print(f"{part}-{prop}: {report}")
    ok = all(report.passed for report in reports.values())
    print(f"{prop}: {'pass' if ok else 'fail'}")
    return 0 if ok else 2


def _check_open_mindedness(args) -> int:
    spec = _build_spec(args)
    bag = _load_bag(args.input)
    bound = discrete.open_mindedness_bound(bag, spec)
    _, result = continuous.solve(bag, spec, record_trajectory=False)
    if result.outcome is not Outcome.CONVERGED:
        print(f"open-mindedness: {result.outcome.value} — no final "
              f"strengths to check")
        return 2
    _print_table(bag, 8, {"lower": bound.lower, "strength": result.strengths,
                          "upper": bound.upper})
    ok = bound.contains(result.strengths)
    print(f"open-mindedness: {'pass' if ok else 'fail'}")
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="bagsolve",
                     description="Solve weighted bipolar argumentation graphs "
                                 "under modular gradual semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute final strengths")
    p_solve.add_argument("input", help="BAG file ('-' for stdin)")
    _add_semantics_flags(p_solve)
    p_solve.add_argument("--mode", choices=continuous.MODES, default="auto",
                         help="auto picks single-pass for acyclic graphs, "
                              "step-controlled rk4 otherwise")
    p_solve.add_argument("--delta", type=float, default=continuous.DEFAULT_DELTA,
                         help="integrator step size (euler/rk4 modes); in "
                              "auto mode the shortest step and the spacing "
                              "of the trajectory's rows")
    p_solve.add_argument("--tolerance", type=float,
                         default=continuous.DEFAULT_TOLERANCE)
    p_solve.add_argument("--max-iterations", type=int,
                         default=continuous.DEFAULT_MAX_ITERATIONS)
    p_solve.add_argument("--t-max", type=float, default=continuous.DEFAULT_T_MAX)
    p_solve.add_argument("--trajectory", metavar="PATH",
                         help="write the states as CSV, one row per step; "
                              "in auto mode one per delta, interpolated "
                              "inside longer steps")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="contraction certificate and "
                                            "iteration bound")
    p_cert.add_argument("input", help="BAG file ('-' for stdin)")
    _add_semantics_flags(p_cert)
    p_cert.add_argument("--epsilon", type=_epsilon, default=1e-6,
                        help="target accuracy for the iteration bound, "
                             "in (0, 1)")
    p_cert.set_defaults(func=cmd_certify)

    p_gen = sub.add_parser("generate", help="emit benchmark BAG files")
    kinds = p_gen.add_subparsers(dest="kind", required=True)
    for kind, edges, (w1, w2) in (("family", "4*K^2", ("VA", "VB")),
                                  ("star", "K", ("W_CENTER", "W_LEAF"))):
        p_kind = kinds.add_parser(kind)
        p_kind.add_argument("k", metavar="K", type=int,
                            help=f"{edges} edges, at most "
                                 f"{MAX_GENERATED_EDGES:,}")
        p_kind.add_argument("w1", metavar=w1, type=float)
        p_kind.add_argument("w2", metavar=w2, type=float)
    kinds.add_parser("duality-fixture")
    for p_kind in kinds.choices.values():
        p_kind.add_argument("--output", metavar="PATH",
                            help="write here instead of stdout")
    p_gen.set_defaults(func=cmd_generate)

    p_check = sub.add_parser("check", help="run a semantic property check")
    props = p_check.add_subparsers(dest="property", required=True)
    for prop in ("duality", "lipschitz"):
        p_prop = props.add_parser(prop)
        _add_semantics_flags(p_prop)
        p_prop.add_argument("--trials", type=int,
                            default=analysis.DEFAULT_TRIALS,
                            help=f"samples per check; at most {MAX_TRIALS:,}")
        p_prop.add_argument("--seed", type=int, default=0)
        p_prop.set_defaults(func=_check_pair)
    p_open = props.add_parser("open-mindedness")
    p_open.add_argument("input", help="BAG file ('-' for stdin)")
    _add_semantics_flags(p_open)
    p_open.set_defaults(func=_check_open_mindedness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error (1) or --help (0): return the code like every
        # other outcome instead of leaving the caller's process
        return exc.code
    try:
        return args.func(args)
    except BagParseError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # also covers BagValidationError, SemanticsConfigError,
        # CyclicGraphError and undecodable input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
