"""Columns-condition checking, lattice solution enumeration, structured
additive sets and exact Rado-number search for linear vector systems."""

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidGeneratorsError,
    MalformedPartitionError,
    RadoError,
    SystemFormatError,
    TooManyColumnsError,
)
from .exactmath import in_span, rank, rref
from .systems import (
    ColumnsPartition,
    ColumnsReport,
    ScalarSystem,
    VectorSystem,
    check_columns_condition,
    parse_system,
    rank_profile,
    serialize_system,
    verify_partition,
)
from .lattice import (
    DEFAULT_BUDGET,
    Coloring,
    DegeneracyReport,
    Point,
    SolutionTuple,
    count_degenerate,
    count_monochromatic,
    count_solutions,
    enumerate_scalar_solutions,
    enumerate_vector_solutions,
    is_degenerate,
    parse_coloring,
    serialize_coloring,
)
from .mpc import (
    MpcSpec,
    VectorMpcSpec,
    embed_mpc,
    find_mono_mpc,
    generate_mpc,
    generate_mpc_vector,
    mpc_contains_solution,
    uniform_vector_spec,
    validate_generators,
)
from .construct import (
    DifferenceFamilies,
    FamilyReport,
    build_difference_families,
    check_difference_families,
    power_difference_point,
)
from .search import (
    AVOIDABLE,
    TRIVIALLY_UNAVOIDABLE,
    UNAVOIDABLE,
    ConstraintSet,
    RadoNumberResult,
    SearchOutcome,
    SearchProblem,
    VerificationReport,
    build_constraints,
    coloring_from_model,
    export_dimacs,
    find_avoiding_coloring,
    rado_number,
    verify_witness,
)
from .kernel import available_backends, default_backend, solve_avoidability

__version__ = "0.1.0"
