"""Non-oblivious local search for monotone submodular maximization.

The package solves max f(S) over independent sets of a matroid, for
non-negative monotone submodular f given by a value oracle, using local
search on an auxiliary guide objective over a lifted ground set. Both a
deterministic and a randomized search are provided, along with a warm
start, exchange subroutines, verification tools, instance files, and a
CLI (``nols``).
"""

from .core import (
    ElementSet,
    QueryLedger,
    RandomSource,
    sample_without_replacement,
)
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LiftedMatroid,
    PartitionMatroid,
    UniformMatroid,
    extend_to_base,
    lift,
    max_weight_independent,
    min_weight_exchange,
)
from .matroids import rank as matroid_rank
from .objectives import (
    ConcaveOfModular,
    CoverageFunction,
    GuideWeights,
    LiftedGuide,
    LinearRegularizer,
    ModularFunction,
    guide_weights,
    make_tracker,
    project_all,
)
from .solvers import (
    DETERMINISTIC,
    RANDOMIZED,
    LocalOptCertificate,
    LocalSearchResult,
    RunReport,
    SolverConfig,
    default_levels,
    deterministic_local_search,
    inner_eps,
    non_oblivious_solve,
    randomized_local_search,
    warm_start,
)
from .verify import (
    BruteForceResult,
    approximation_report,
    brute_force_opt,
    check_certificate,
    check_matroid_axioms,
    check_value_oracle,
    exhaustive_gap,
    reference_local_search,
)
from .instances import (
    InstanceFile,
    generate_instance,
    load_instance,
    save_instance,
)

__all__ = [
    "ElementSet",
    "QueryLedger",
    "RandomSource",
    "sample_without_replacement",
    "ExplicitMatroid",
    "GraphicMatroid",
    "LiftedMatroid",
    "PartitionMatroid",
    "UniformMatroid",
    "extend_to_base",
    "lift",
    "matroid_rank",
    "max_weight_independent",
    "min_weight_exchange",
    "ConcaveOfModular",
    "CoverageFunction",
    "GuideWeights",
    "LiftedGuide",
    "LinearRegularizer",
    "ModularFunction",
    "guide_weights",
    "make_tracker",
    "project_all",
    "DETERMINISTIC",
    "RANDOMIZED",
    "LocalOptCertificate",
    "LocalSearchResult",
    "RunReport",
    "SolverConfig",
    "default_levels",
    "deterministic_local_search",
    "inner_eps",
    "non_oblivious_solve",
    "randomized_local_search",
    "warm_start",
    "BruteForceResult",
    "approximation_report",
    "brute_force_opt",
    "check_certificate",
    "check_matroid_axioms",
    "check_value_oracle",
    "exhaustive_gap",
    "reference_local_search",
    "InstanceFile",
    "generate_instance",
    "load_instance",
    "save_instance",
]

__version__ = "0.1.0"
