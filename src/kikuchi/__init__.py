"""Region-graph free energy minimization for discrete graphical models.

Build a region graph over a factor model, pick a bound variant, and descend
the Kikuchi/Bethe free energy with a guaranteed-descent double loop whose
inner problems are solved by generalized belief propagation.  The command
line lives in ``kikuchi.cli``, which this package does not import.
"""
from .bounds import (
    VARIANTS,
    Allocation,
    BoundSpec,
    ConvexityError,
    check_conv2_bound,
    check_convex_over_constraints,
    inner_potentials,
    make_bound_spec,
)
from .doubleloop import (
    DescentError,
    OuterRecord,
    OuterSettings,
    RunTrace,
    iterations_to_reach,
    minimize,
    write_trace,
)
from .energy import (
    Beliefs,
    free_energy,
    kl_marginals,
    uniform_beliefs,
)
from .model import (
    CLAMP_LOG,
    ClusterPotentials,
    FactorModel,
    ModelFormatError,
    ModelSpec,
    generate,
    load,
    outer_log_potentials,
    save,
)
from .oracle import ExactResult, OracleLimitError, exact_inference
from .propagation import (
    ConfigurationError,
    MessageSet,
    constraint_residual,
    run_gbp,
)
from .regions import (
    RECIPES,
    GraphError,
    RecipeError,
    Region,
    RegionGraph,
    build_bethe,
    build_cvm,
    is_singly_connected,
    per_variable_counting_sums,
    recipe_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Beliefs",
    "BoundSpec",
    "CLAMP_LOG",
    "ClusterPotentials",
    "ConfigurationError",
    "ConvexityError",
    "DescentError",
    "ExactResult",
    "FactorModel",
    "GraphError",
    "MessageSet",
    "ModelFormatError",
    "ModelSpec",
    "OracleLimitError",
    "OuterRecord",
    "OuterSettings",
    "RECIPES",
    "RecipeError",
    "Region",
    "RegionGraph",
    "RunTrace",
    "VARIANTS",
    "build_bethe",
    "build_cvm",
    "check_conv2_bound",
    "check_convex_over_constraints",
    "constraint_residual",
    "exact_inference",
    "free_energy",
    "generate",
    "inner_potentials",
    "is_singly_connected",
    "iterations_to_reach",
    "kl_marginals",
    "load",
    "make_bound_spec",
    "minimize",
    "outer_log_potentials",
    "per_variable_counting_sums",
    "recipe_graph",
    "run_gbp",
    "save",
    "uniform_beliefs",
    "write_trace",
]
