"""Exact acyclic orientation solving under path-length constraints.

Orientations of an undirected graph are encoded with one binary variable per
arc plus a bound z on the number of selected arcs any directed path of a
fixed length may carry. Minimizing that bound over full orientations, with
cutting planes and branch and bound on a built-in simplex, yields the
minimum achievable diameter and with it the chromatic number. The same
machinery drives a frequency-assignment front end and a small polyhedral
laboratory for checking validity, dimensions and facets of the row families.
"""

from .errors import (
    ContractError,
    InfeasibleError,
    InputError,
    ParseError,
    SizeRefusalError,
    SolverError,
    TimeLimitError,
    UnsupportedInstanceError,
)
from .graphs import UndirectedGraph
from .model import AO, AS, LinearRow, ModelConfig, ModelPoint, check_integral_feasible
from .solver import (
    SolveReport,
    check_load_reduction,
    chromatic_number,
    guaranteed_feasible_z,
    min_diameter_orientation,
    solve_ao,
    solve_model,
)
from .polytope import (
    FaceReport,
    brute_force_chromatic,
    brute_force_min_diameter,
    classify_face,
    enumerate_feasible_points,
    polytope_dimension,
)
from .fap import (
    FapInstance,
    FapPair,
    FrequencyAssignment,
    GadgetExpansion,
    expand_gadgets,
    min_spectrum,
    solve_fixed_spectrum,
    solve_soft_cost,
)
from .dimacs import parse_dimacs

__version__ = "0.1.0"

__all__ = [
    "AO",
    "AS",
    "ContractError",
    "FaceReport",
    "FapInstance",
    "FapPair",
    "FrequencyAssignment",
    "GadgetExpansion",
    "InfeasibleError",
    "InputError",
    "LinearRow",
    "ModelConfig",
    "ModelPoint",
    "ParseError",
    "SizeRefusalError",
    "SolveReport",
    "SolverError",
    "TimeLimitError",
    "UndirectedGraph",
    "UnsupportedInstanceError",
    "brute_force_chromatic",
    "brute_force_min_diameter",
    "check_integral_feasible",
    "check_load_reduction",
    "chromatic_number",
    "classify_face",
    "enumerate_feasible_points",
    "expand_gadgets",
    "guaranteed_feasible_z",
    "min_diameter_orientation",
    "min_spectrum",
    "parse_dimacs",
    "polytope_dimension",
    "solve_ao",
    "solve_fixed_spectrum",
    "solve_model",
    "solve_soft_cost",
    "__version__",
]
