"""Polynomial-code schemes for private distributed matrix multiplication."""

from .degrees import (
    DegreeVectors,
    ParameterError,
    ValidationReport,
    construct_cat_x,
    construct_dog_rs,
    construct_gasp_r,
    construct_gasp_rs,
    count_unique,
    n_catx_formula,
    quadrants,
    validate_degree_table,
)
from .field import FieldError, PrimeField
from .linalg import vandermonde
from .scheme import (
    PdmmScheme,
    SchemeError,
    instantiate_cat,
    instantiate_degree_table,
    multiply_via_scheme,
    verify_privacy_exhaustive,
    verify_privacy_rank,
)
from .search import SchemeChoice, SweepRecord, best_scheme, sweep

__all__ = [
    "DegreeVectors",
    "FieldError",
    "ParameterError",
    "PdmmScheme",
    "PrimeField",
    "SchemeChoice",
    "SchemeError",
    "SweepRecord",
    "ValidationReport",
    "best_scheme",
    "construct_cat_x",
    "construct_dog_rs",
    "construct_gasp_r",
    "construct_gasp_rs",
    "count_unique",
    "instantiate_cat",
    "instantiate_degree_table",
    "multiply_via_scheme",
    "n_catx_formula",
    "quadrants",
    "sweep",
    "validate_degree_table",
    "vandermonde",
    "verify_privacy_exhaustive",
    "verify_privacy_rank",
]

__version__ = "0.1.0"
