"""Exact decision procedures for sigma-ampleness on numerical divisor
lattices: automorphism classification, ample partial-sum searches, twisted
ring growth, and Gelfand-Kirillov dimension, all in arbitrary-precision
integer and rational arithmetic."""

from .ampleness import (
    AmplenessOracle,
    PolyhedralCone,
    SurfacePositiveCone,
    is_ample,
    is_ample_symbolic,
)
from .engine import (
    Classification,
    GKProfile,
    GrowthReport,
    SigmaAmpleVerdict,
    classify,
    euler_char_series,
    gk_profile,
    growth_report,
    is_sigma_ample,
    partial_sum,
)
from .errors import (
    InvalidSchemeData,
    MissingToddData,
    NotAmple,
    NotInvertibleOverIntegers,
    NotQuasiUnipotent,
    NotUnipotent,
    RankMismatch,
    SchemeParseError,
    SigmaAmpleError,
    UnknownName,
)
from .intmat import (
    IntegerMatrix,
    UnipotentReduction,
    char_poly,
    mat_pow,
    nilpotency_index,
    quasi_unipotence,
    spectral_radius,
    unipotent_reduction,
)
from .intpoly import RationalInterval
from .lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
    ValidationReport,
    apply,
    intersect,
    validate,
)
from .numpoly import (
    NumericalPolynomial,
    binomial_basis,
    binomial_coefficients,
    exists_common_positive,
)
from .catalog import catalog_entry, catalog_names
from .schemefile import SchemeFile, parse_scheme_file, serialize_scheme_file

__version__ = "0.1.0"
