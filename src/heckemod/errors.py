"""Exception taxonomy.

Three kinds of failure are kept apart because the command line maps them
to different exit codes:

  * usage problems (bad arguments): plain ValueError raised by the
    library entry points;
  * internal computation errors (insufficient precision and the like):
    ComputationError;
  * falsification events: FalsificationError.  These fire when a value
    the theory says must hold fails to hold (a Hecke image outside the
    cusp space, a form of a weight class off the flag of Lemma 1, a
    root outside the set Serre's classification allows, a period that
    never appears, T_p mod 2 or 3 off its closed form).  A root walk
    reads the roots of a whole weight class off one triangular matrix,
    T_p on the flag of Lemma 1, and checks it two ways: its
    triangularity and Serre's set, and the trace formula at every
    weight (see `modfactor`).  They are never caught and papered over.
"""

from __future__ import annotations


class ComputationError(Exception):
    """An internal computation could not be carried out soundly."""


class InsufficientPrecision(ComputationError):
    """A q-expansion was too short for the requested operation."""


class FalsificationError(Exception):
    """A mathematically guaranteed property failed on concrete data."""


class SpanViolation(FalsificationError):
    """A Hecke image left the span of the cusp-form basis.

    The check first requires basis element i to be q^(i+1) + O(q^(i+2)).
    Then peeling the coordinates off sets slots 1 .. d to zero, so they
    are never read, and the check reads the constant term of each image
    T_n f.  That is sigma_(k-1)(n) f_0 = 0 for a cusp form f, so the
    check fails only on a planted or corrupted factor table.  T_n built
    from T_2 by a Krylov solve raises it too, when it is not integral or
    its trace differs from the trace formula's.
    """


class Lemma1Violation(FalsificationError):
    """The forms of a weight class mod ell failed to make one T_p-stable flag.

    T_p g_j had a coordinate past g_j, or the walk's terms disagreed with
    the trace formula at some weight.
    """


class EigenvalueViolation(FalsificationError):
    """A root of a Hecke polynomial mod ell fell outside {p^m + p^n mod ell}."""


class PeriodNotFound(FalsificationError):
    """No period found within the search bound."""


class NonIntegralTrace(FalsificationError):
    """The trace formula assembled to a non-integer."""


class ClosedFormViolation(FalsificationError):
    """T_p mod 2 or 3 differed from its closed form, a power of x or x - 2."""
