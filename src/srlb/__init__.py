"""srlb: workbench for rich point/hyperplane instances and simplex range reporting.

Generates integer grid instances in which every family hyperplane is
incident to exactly t points while no two points share more than A**(d-2)
hyperplanes, verifies those guarantees with brute-force oracles, and
benchmarks an instrumented kd-tree reporting structure against the
predicted space/query trade-off exponent (d-1)/d.
"""

from .errors import (
    ArithmeticOverflow,
    DimensionMismatch,
    EmptyInput,
    InstanceTooLarge,
    InsufficientData,
    PointEscapesGrid,
    RangeTooTight,
    SrlbError,
)
from .geometry import (
    GridPoint,
    Hyperplane,
    HyperplaneFamily,
    InstanceParams,
    eval_hyperplane,
    generate_hyperplanes,
    generate_points,
    incident_points,
    largest_valid_richness,
    normalize_params,
)
from .incidence import (
    IncidenceGraph,
    bound_report,
    build_incidence_graph,
    pair_coverage,
    richness_histogram,
    verify_instance,
)
from .reporting import (
    Halfspace,
    KdTree,
    QueryStats,
    SimplexQuery,
    brute_force_query,
    build_kdtree,
    classify_box,
    query,
    random_simplex_queries,
    slab_query_for,
)
from .bench import ExperimentPlan, FitResult, fit_loglog, run_plan

__version__ = "0.1.0"

__all__ = [
    "ArithmeticOverflow",
    "DimensionMismatch",
    "EmptyInput",
    "ExperimentPlan",
    "FitResult",
    "GridPoint",
    "Halfspace",
    "Hyperplane",
    "HyperplaneFamily",
    "IncidenceGraph",
    "InstanceParams",
    "InstanceTooLarge",
    "InsufficientData",
    "KdTree",
    "PointEscapesGrid",
    "QueryStats",
    "RangeTooTight",
    "SimplexQuery",
    "SrlbError",
    "bound_report",
    "brute_force_query",
    "build_incidence_graph",
    "build_kdtree",
    "classify_box",
    "eval_hyperplane",
    "fit_loglog",
    "generate_hyperplanes",
    "generate_points",
    "incident_points",
    "largest_valid_richness",
    "normalize_params",
    "pair_coverage",
    "query",
    "random_simplex_queries",
    "richness_histogram",
    "run_plan",
    "slab_query_for",
    "verify_instance",
]
