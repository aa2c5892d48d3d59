"""Exact Hecke operator characteristic polynomials on level-1 cusp
spaces, their factorizations modulo primes, the periodic root tables
those factorizations fall into, trace-formula cross checks, and
Galois-theoretic irreducibility certificates."""

from .cache import CharpolyCache
from .errors import (
    ComputationError,
    EigenvalueViolation,
    FalsificationError,
    InsufficientPrecision,
    Lemma1Violation,
    NonIntegralTrace,
    PeriodNotFound,
    SpanViolation,
    SplittingViolation,
)
from .galois import (
    Certificate,
    CycleType,
    NotFound,
    SquarefreeFailure,
    certify,
    certify_full_symmetric,
    certify_irreducible,
    corollary_conclusion,
    cycle_type,
    deduce,
    residues_qualify,
    theorem1_conclusion,
)
from .gfpoly import FactorMultiset, factor, poly_str, reduce_mod, roots
from .hecke import IntPoly, charpoly, dim_cusp, hecke_matrix, monomial_basis
from .modfactor import (
    charpoly_mod,
    congruence_class_invariance,
    root_sequence,
    serre_eigenvalue_set,
    small_ell_rule,
    table_rows,
)
from .qseries import QExpansion, delta, eisenstein4, eisenstein6
from .traceformula import hurwitz_class_number, trace

__version__ = "0.1.0"

__all__ = [
    "CharpolyCache",
    "Certificate",
    "ComputationError",
    "CycleType",
    "EigenvalueViolation",
    "FactorMultiset",
    "FalsificationError",
    "InsufficientPrecision",
    "IntPoly",
    "Lemma1Violation",
    "NonIntegralTrace",
    "NotFound",
    "PeriodNotFound",
    "QExpansion",
    "SpanViolation",
    "SplittingViolation",
    "SquarefreeFailure",
    "certify",
    "certify_full_symmetric",
    "certify_irreducible",
    "charpoly",
    "charpoly_mod",
    "congruence_class_invariance",
    "corollary_conclusion",
    "cycle_type",
    "deduce",
    "delta",
    "dim_cusp",
    "eisenstein4",
    "eisenstein6",
    "factor",
    "hecke_matrix",
    "hurwitz_class_number",
    "monomial_basis",
    "poly_str",
    "reduce_mod",
    "residues_qualify",
    "root_sequence",
    "roots",
    "serre_eigenvalue_set",
    "small_ell_rule",
    "table_rows",
    "theorem1_conclusion",
    "trace",
]
