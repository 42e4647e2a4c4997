"""Evaluate weighted bipolar argumentation graphs under modular semantics.

Build a Bag (arguments with initial weights, attack and support edges), pick
a semantics (an aggregation plus an influence function), then solve: exactly
for acyclic graphs, by fixed-point iteration, or by integrating the
continuized dynamics. Contraction certificates bound the iteration count a
priori; the analysis helpers generate benchmark graphs and check duality and
open-mindedness properties.

The names below are imported from their submodule on first use (PEP 562),
so ``import bagsolve`` itself loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "core": ("Bag", "BagValidationError", "max_indegree",
             "topological_levels", "topological_order"),
    "io": ("BagParseError", "ParseDiagnostic", "parse_bag", "serialize_bag",
           "write_trajectory_csv"),
    "semantics": ("SemanticsSpec", "SemanticsConfigError", "PRESETS",
                  "aggregate", "codomain_bound", "dfq", "euler_semantics",
                  "influence", "lipschitz_aggregation", "lipschitz_influence",
                  "qe", "update", "update_levels", "validate_spec"),
    "discrete": ("ConvergenceCertificate", "CyclicGraphError",
                 "OpenMindednessBound", "certify", "open_mindedness_bound",
                 "solve_acyclic"),
    "continuous": ("MODES", "Outcome", "SolveResult", "Trajectory",
                   "integrate_euler", "integrate_rk4", "iterate", "solve",
                   "verify_fixed_point"),
    "analysis": ("CheckReport", "check_duality_aggregation",
                 "check_duality_influence", "check_lipschitz_aggregation",
                 "check_lipschitz_influence", "fixture_duality_bag",
                 "generate_family", "generate_star"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come back here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
