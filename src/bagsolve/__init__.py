"""Evaluate weighted bipolar argumentation graphs under modular semantics.

Build a Bag (arguments with initial weights, attack and support edges), pick
a semantics (an aggregation plus an influence function), then solve: exactly
for acyclic graphs, by fixed-point iteration, or by integrating the
continuized dynamics. Contraction certificates bound the iteration count a
priori; the analysis helpers generate benchmark graphs and check duality and
open-mindedness properties.
"""

from .core import (
    Bag,
    BagValidationError,
    max_indegree,
    parent_vector,
    topological_levels,
    topological_order,
)
from .io import (
    BagParseError,
    ParseDiagnostic,
    parse_bag,
    serialize_bag,
    write_trajectory_csv,
)
from .semantics import (
    SemanticsSpec,
    SemanticsConfigError,
    PRESETS,
    aggregate,
    codomain_bound,
    dfq,
    euler_semantics,
    influence,
    lipschitz_aggregation,
    lipschitz_influence,
    qe,
    update,
    update_rows,
    validate_spec,
)
from .results import Outcome, SolveResult, Trajectory
from .discrete import (
    ConvergenceCertificate,
    CyclicGraphError,
    certify,
    solve_acyclic,
)
from .continuous import (
    MODES,
    integrate_euler,
    integrate_rk4,
    iterate,
    rhs,
    solve,
    verify_fixed_point,
)
from .analysis import (
    CheckReport,
    OpenMindednessBound,
    check_duality_aggregation,
    check_duality_influence,
    check_lipschitz_aggregation,
    check_lipschitz_influence,
    fixture_duality_bag,
    generate_family,
    generate_star,
    open_mindedness_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Bag",
    "BagParseError",
    "BagValidationError",
    "CheckReport",
    "ConvergenceCertificate",
    "CyclicGraphError",
    "MODES",
    "Outcome",
    "OpenMindednessBound",
    "ParseDiagnostic",
    "PRESETS",
    "SemanticsConfigError",
    "SemanticsSpec",
    "SolveResult",
    "Trajectory",
    "aggregate",
    "certify",
    "check_duality_aggregation",
    "check_duality_influence",
    "check_lipschitz_aggregation",
    "check_lipschitz_influence",
    "codomain_bound",
    "dfq",
    "euler_semantics",
    "fixture_duality_bag",
    "generate_family",
    "generate_star",
    "influence",
    "integrate_euler",
    "integrate_rk4",
    "iterate",
    "lipschitz_aggregation",
    "lipschitz_influence",
    "max_indegree",
    "open_mindedness_bound",
    "parent_vector",
    "parse_bag",
    "qe",
    "rhs",
    "serialize_bag",
    "solve",
    "solve_acyclic",
    "topological_levels",
    "topological_order",
    "update",
    "update_rows",
    "validate_spec",
    "verify_fixed_point",
]
