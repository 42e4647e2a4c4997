"""Command-line front end.

Subcommands: ``solve`` a BAG file, ``certify`` its contraction bound,
``generate`` benchmark graphs, and ``check`` semantic properties. Exit codes:
0 for converged/pass, 2 for diverged/budget-exhausted/fail, 1 for usage,
parse, or configuration errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, continuous, discrete
# topological_order is unused here but stays a name of this module, because
# the benchmark's tracer (bench/run.py) patches cli.topological_order.
from .core import Bag, topological_order  # noqa: F401
from .io import BagParseError, parse_bag, serialize_bag, write_trajectory_csv
from .results import Outcome, SolveResult
from .semantics import (
    AGGREGATIONS,
    INFLUENCES,
    PRESETS,
    SemanticsConfigError,
    SemanticsSpec,
)


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
    p.add_argument("--kappa", type=float, default=1.0,
                   help="conservativeness of linear/pmax influence (default 1)")
    p.add_argument("--p", type=int, default=2,
                   help="exponent of the pmax influence (default 2)")


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"epsilon must be in (0, 1), got {value:g}")
    return value


def _build_spec(args) -> SemanticsSpec:
    if args.semantics != "custom":
        preset = PRESETS[args.semantics]
        if args.semantics == "euler":
            return preset()
        return preset(kappa=args.kappa)
    if not args.aggregation or not args.influence:
        raise SemanticsConfigError(
            "--semantics custom needs both --aggregation and --influence")
    return SemanticsSpec(args.aggregation, args.influence,
                         kappa=args.kappa, p=args.p)


def _load_bag(path: str) -> Bag:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_bag(text)


def _name_width(bag: Bag) -> int:
    return max(8, *(len(n) for n in bag.names)) if bag.n else 8


def _print_strengths(bag: Bag, strengths) -> None:
    width = _name_width(bag)
    print(f"{'argument':<{width}}  {'weight':>8}  {'strength':>8}")
    for name, w, s in zip(bag.names, bag.weights, strengths):
        print(f"{name:<{width}}  {w:8.6f}  {s:8.6f}")


def _report_result(bag: Bag, mode: str, result: SolveResult) -> int:
    _print_strengths(bag, result.strengths)
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
    width = _name_width(bag)
    print(f"{'argument':<{width}}  {'lambda':>10}")
    for name, lam in zip(bag.names, cert.per_argument_lambda):
        print(f"{name:<{width}}  {lam:10.6f}")
    print(f"global-lambda: {cert.global_lambda:.6f}")
    print(f"guaranteed: {'yes' if cert.guaranteed else 'no'}")
    if cert.guaranteed:
        print(f"iterations-for({args.epsilon:g}): "
              f"{cert.iterations_for(args.epsilon)}")
    print(f"rule: {cert.rule}")
    return 0


def cmd_generate(args) -> int:
    kind = args.kind
    params = args.params
    try:
        if kind == "family":
            k, va, vb = int(params[0]), float(params[1]), float(params[2])
            bag = analysis.generate_family(k, va, vb)
        elif kind == "star":
            k, wc, wl = int(params[0]), float(params[1]), float(params[2])
            bag = analysis.generate_star(k, wc, wl)
        else:  # duality-fixture
            if params:
                raise ValueError("duality-fixture takes no parameters")
            bag = analysis.fixture_duality_bag()
    except (IndexError, ValueError) as exc:
        print(f"generate {kind}: bad parameters {params}: {exc}", file=sys.stderr)
        return 1

    text = serialize_bag(bag)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _check_pair(args, spec: SemanticsSpec) -> int:
    # duality or lipschitz: runs analysis.check_<prop>_aggregation and
    # analysis.check_<prop>_influence
    prop = args.property
    reports = {part: getattr(analysis, f"check_{prop}_{part}")(
        spec, args.trials, args.seed) for part in ("aggregation", "influence")}
    for part, report in reports.items():
        print(f"{part}-{prop}: {report}")
    ok = all(report.passed for report in reports.values())
    print(f"{prop}: {'pass' if ok else 'fail'}")
    return 0 if ok else 2


def _check_open_mindedness(args, spec: SemanticsSpec) -> int:
    if not args.input:
        print("check open-mindedness: an input BAG file is required",
              file=sys.stderr)
        return 1
    bag = _load_bag(args.input)
    bound = analysis.open_mindedness_bound(bag, spec)
    _, result = continuous.solve(bag, spec, record_trajectory=False)
    if result.outcome is not Outcome.CONVERGED:
        print(f"open-mindedness: {result.outcome.value} — no final "
              f"strengths to check")
        return 2
    strengths = result.strengths
    width = _name_width(bag)
    print(f"{'argument':<{width}}  {'lower':>8}  {'strength':>8}  {'upper':>8}")
    for i, name in enumerate(bag.names):
        print(f"{name:<{width}}  {bound.lower[i]:8.6f}  {strengths[i]:8.6f}"
              f"  {bound.upper[i]:8.6f}")
    ok = bound.contains(strengths)
    print(f"open-mindedness: {'pass' if ok else 'fail'}")
    return 0 if ok else 2


def cmd_check(args) -> int:
    spec = _build_spec(args)
    if args.property == "open-mindedness":
        return _check_open_mindedness(args, spec)
    return _check_pair(args, spec)


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
                              "rk4 otherwise")
    p_solve.add_argument("--delta", type=float, default=continuous.DEFAULT_DELTA,
                         help="integrator step size (euler/rk4 modes)")
    p_solve.add_argument("--tolerance", type=float,
                         default=continuous.DEFAULT_TOLERANCE)
    p_solve.add_argument("--max-iterations", type=int,
                         default=continuous.DEFAULT_MAX_ITERATIONS)
    p_solve.add_argument("--t-max", type=float, default=continuous.DEFAULT_T_MAX)
    p_solve.add_argument("--trajectory", metavar="PATH",
                         help="write the visited states as CSV")
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
    p_gen.add_argument("kind", choices=("family", "star", "duality-fixture"))
    p_gen.add_argument("params", nargs="*",
                       help="family: K VA VB; star: K W_CENTER W_LEAF")
    p_gen.add_argument("--output", metavar="PATH",
                       help="write here instead of stdout")
    p_gen.set_defaults(func=cmd_generate)

    p_check = sub.add_parser("check", help="run a semantic property check")
    p_check.add_argument("property",
                         choices=("duality", "open-mindedness", "lipschitz"))
    p_check.add_argument("input", nargs="?",
                         help="BAG file (open-mindedness only)")
    _add_semantics_flags(p_check)
    p_check.add_argument("--trials", type=int, default=analysis.DEFAULT_TRIALS)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

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
