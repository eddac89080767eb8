"""Effect-algebra toolkit: finite tables, matrix and fuzzy models,
spectral resolutions, and property-based verification suites."""

from .config import DEFAULT, Tolerances
from .fuzzy import (
    FuzzyContext,
    FuzzySampler,
    spectrum_representation,
)
from .linalg import (
    EigenDecomposition,
    NotHermitianError,
    eigh,
    frobenius,
    operator_norm,
)
from .matrices import (
    DimensionMismatchError,
    Effect,
    EffectSampler,
    MatrixContext,
    NotAnEffectError,
    NotCommutingError,
    validate_effect,
)
from .report import CheckResult, SuiteReport, merge_reports
from .spectral import (
    SpectralFamily,
    comparability_witness,
    eigenprojection,
    family_from_representation,
    orthogonal_decomposition,
    reconstruct,
    reduced_representation,
    simple_approximation,
    spectral_family,
)
from .tables import (
    FiniteEffectAlgebra,
    boolean_cube,
    builtin_table,
    check_ea_axioms,
    diamond,
    fuzzy_embedding,
    incompatible_pairs,
    lukasiewicz,
)
from .verify import (
    run_all,
    run_compression_suite,
    run_context_suite,
    run_sea_suite,
    run_spectrality_suite,
    run_table_suite,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT",
    "Tolerances",
    "FuzzyContext",
    "FuzzySampler",
    "spectrum_representation",
    "EigenDecomposition",
    "NotHermitianError",
    "eigh",
    "frobenius",
    "operator_norm",
    "DimensionMismatchError",
    "Effect",
    "EffectSampler",
    "MatrixContext",
    "NotAnEffectError",
    "NotCommutingError",
    "validate_effect",
    "CheckResult",
    "SuiteReport",
    "merge_reports",
    "SpectralFamily",
    "comparability_witness",
    "eigenprojection",
    "family_from_representation",
    "orthogonal_decomposition",
    "reconstruct",
    "reduced_representation",
    "simple_approximation",
    "spectral_family",
    "FiniteEffectAlgebra",
    "boolean_cube",
    "builtin_table",
    "check_ea_axioms",
    "diamond",
    "fuzzy_embedding",
    "incompatible_pairs",
    "lukasiewicz",
    "run_all",
    "run_compression_suite",
    "run_context_suite",
    "run_sea_suite",
    "run_spectrality_suite",
    "run_table_suite",
    "__version__",
]
