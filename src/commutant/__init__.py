"""Commutants, block decompositions, and derivation seminorms for matrix algebras.

The package computes relative commutants and double commutants of
subalgebras of M_n, decomposes selfadjoint algebras into their block
(Wedderburn) form, averages over the unitary group of a commutant to get
conditional expectations, and evaluates the commutant derivation
seminorms together with distance bounds and metric constants.  A gallery
of worked constructions and two verification suites back every claim
with seeded, reproducible numbers.
"""

from .algebra import (
    MatrixAlgebra,
    algebra_from_space,
    block_algebra,
    center,
    diagonal_algebra,
    double_commutant,
    full_matrix_algebra,
    generate_algebra,
    is_normal,
    relative_commutant,
    scalar_algebra,
    verify_algebra,
)
from .blocks import (
    BlockStructure,
    minimal_central_projections,
    twirl_expectation,
    wedderburn,
)
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig
from .gallery import (
    GALLERY,
    commutative_normality_scan,
    corner_traceless_algebra,
    paired_copies_report,
    polynomial_normality_sweep,
    ramp_shift_report,
    ramp_weighted_shift,
    run_gallery,
    selfcommutant_triangular,
    structure_stability_report,
)
from .linalg import (
    OperatorSubspace,
    commutator,
    direct_sum,
    haar_unitary,
    hs_norm,
    op_norm,
    orthonormalize,
    subspace_distance,
    subspace_equal,
)
from .seminorms import (
    CommutantModel,
    DistanceReport,
    commutant_model,
    composition_inequality_check,
    derivation_seminorm,
    dist_opnorm,
    kn_lower_estimate,
    sampling_seminorm_bound,
)
from .serialize import (
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    structure_to_json,
)
from .suites import ACCEPTANCE_BUDGETS, SUITE_NAMES, TOTAL_BUDGET, run_suite

__version__ = "0.1.0"

__all__ = [
    "ACCEPTANCE_BUDGETS",
    "BlockStructure",
    "CommutantModel",
    "DEFAULT_CONFIG",
    "DistanceReport",
    "GALLERY",
    "InvalidInputError",
    "MatrixAlgebra",
    "NumericConfig",
    "OperatorSubspace",
    "SUITE_NAMES",
    "TOTAL_BUDGET",
    "algebra_from_json",
    "algebra_from_space",
    "algebra_to_json",
    "block_algebra",
    "canonical_dumps",
    "center",
    "commutant_model",
    "commutative_normality_scan",
    "commutator",
    "composition_inequality_check",
    "corner_traceless_algebra",
    "derivation_seminorm",
    "diagonal_algebra",
    "direct_sum",
    "dist_opnorm",
    "double_commutant",
    "full_matrix_algebra",
    "generate_algebra",
    "haar_unitary",
    "hs_norm",
    "is_normal",
    "kn_lower_estimate",
    "matrix_from_json",
    "matrix_to_json",
    "minimal_central_projections",
    "op_norm",
    "orthonormalize",
    "paired_copies_report",
    "polynomial_normality_sweep",
    "ramp_shift_report",
    "ramp_weighted_shift",
    "relative_commutant",
    "report_to_json",
    "run_gallery",
    "run_suite",
    "sampling_seminorm_bound",
    "scalar_algebra",
    "selfcommutant_triangular",
    "structure_stability_report",
    "structure_to_json",
    "subspace_distance",
    "subspace_equal",
    "twirl_expectation",
    "verify_algebra",
    "wedderburn",
]
