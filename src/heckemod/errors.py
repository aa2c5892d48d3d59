"""Exception taxonomy.

Three kinds of failure are kept apart because the command line maps them
to different exit codes:

  * usage problems (bad arguments): plain ValueError raised by the
    library entry points;
  * internal computation errors (insufficient precision and the like):
    ComputationError;
  * falsification events: FalsificationError.  These fire when a value
    the theory says must hold fails to hold (a Hecke image outside the
    cusp space, an inexact quotient where divisibility is guaranteed, a
    polynomial that does not split where complete splitting is
    guaranteed, a root outside the set Serre's classification allows,
    a period that never appears, T_p mod 2 or 3 off its closed form).  Root multisets along a
    weight class nest by construction, since each weight's polynomial
    is divided exactly by the last.
    They are never caught and papered over.
"""

from __future__ import annotations


class ComputationError(Exception):
    """An internal computation could not be carried out soundly."""


class InsufficientPrecision(ComputationError):
    """A q-expansion was too short for the requested operation."""


class FalsificationError(Exception):
    """A mathematically guaranteed property failed on concrete data."""


class SpanViolation(FalsificationError):
    """A Hecke image left the span of the cusp-form basis."""


class Lemma1Violation(FalsificationError):
    """A lower-weight Hecke polynomial failed to divide the higher one mod ell."""


class SplittingViolation(FalsificationError):
    """A Hecke polynomial did not split completely mod ell where it must."""


class EigenvalueViolation(FalsificationError):
    """A root of a Hecke polynomial mod ell fell outside {p^m + p^n mod ell}."""


class PeriodNotFound(FalsificationError):
    """No period found within the search bound."""


class NonIntegralTrace(FalsificationError):
    """The trace formula assembled to a non-integer."""


class ClosedFormViolation(FalsificationError):
    """T_p mod 2 or 3 differed from its closed form, a power of x or x - 2."""
