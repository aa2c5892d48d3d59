"""Hecke characteristic polynomials modulo small primes ell.

For ell in {5, 7, 13} and p != ell, the roots of T_p mod ell along a
fixed weight class k = kclass (mod ell - 1) form one sequence a_1, a_2,
...: the roots at any weight of the class are exactly its first dim
terms.  The sequences are periodic.  This module computes them,
detects their periods empirically (two full periods required inside
the verified window, which max_weight bounds), assembles the periodic
tables, and checks the companion congruences:

  * mod 2: T_p = x^dim for every odd p;
  * mod 3: T_p = (x - 2)^dim when p = 1 (mod 3), x^dim when p = 2;
  * class invariance: p = q (mod ell), ell <= 7, forces
    T_p = T_q (mod ell) on every weight;
  * every root mod ell lies in {p^m + p^n mod ell}.

Every polynomial and matrix comes from the Hecke kernel run mod ell, so
neither the integer polynomial nor the disk cache is ever touched.

A walk is one triangular matrix, by Lemma 1.  E_(ell-1) = 1 (mod ell),
so a form of weight k times E_(ell-1) has weight k + ell - 1 and the
same q-expansion mod ell, and T_p mod ell reads the weight only through
p^(k-1) mod ell, which the class fixes.  So the forms of the class,
reduced mod ell, make one T_p-stable flag inside the top weight K of
the walk.  Let kappa_j be the first weight of the class whose cusp space
has dimension >= j; a step of ell - 1 <= 12 raises the dimension by at
most one, so each kappa_j adds one form.  The monomial g_j = delta^j
E4^b E6^c of weight kappa_j leads with q^j, and g_1 .. g_dim(k) span the
forms of weight k mod ell.  On the g's, T_p (applied to each g_j at
kappa_j, `hecke.flag_matrix`) is triangular, and its diagonal is the
sequence: coordinate j of T_p g_j is the term that enters at kappa_j.

Two checks go with the matrix, and a failure raises, never smoothed
over:

  * Lemma 1 at every level at once: a coordinate of T_p g_j past j is a
    Lemma1Violation, and for ell in {5, 7} a term outside
    {p^m + p^n mod ell} is an EigenvalueViolation;
  * each weight on its own: the trace formula, which shares no code
    with the kernel, must give the sum of the first dim S_k terms mod
    ell at every weight of the walk (`traceformula.traces`), else
    Lemma1Violation.  A step raises the dimension by at most one, so
    the traces at kappa_j and kappa_j - ell + 1 pin the term a_j alone.

A window without two periods raises PeriodNotFound where periods are
required, unless the window ends before the default one: a window the
caller chose short shows no period without contradicting the tables,
so it is a ValueError.
"""

from __future__ import annotations

from ._primes import minimal_period, require_prime
from ._record import record
from .errors import EigenvalueViolation, Lemma1Violation, PeriodNotFound
from .hecke import charpoly, dim_cusp, flag_matrix
from .traceformula import traces

# Row labels of the published mod-5 and mod-7 tables: the smallest prime
# in each nonzero residue class, in the printed order.
ROW_PRIMES = {5: (11, 2, 3, 19), 7: (29, 2, 3, 11, 5, 13)}
KCLASSES = {5: (0, 2), 7: (0, 2, 4), 13: (0, 2, 4, 6, 8, 10)}
DEFAULT_MAX_WEIGHT = {5: 110, 7: 200, 13: 370}
SINGLE_PERIOD_MAX_WEIGHT = 190


def _validate(p: int, ell: int):
    require_prime(p, "p")
    require_prime(ell, "ell")
    if p == ell:
        raise ValueError("p and ell must be distinct, both %d" % p)


def charpoly_mod(p: int, k: int, ell: int) -> tuple:
    """Characteristic polynomial of T_p at weight k mod ell, from the kernel mod ell.

    Coefficients ascending in [0, ell), as the gfpoly functions take them.
    """
    _validate(p, ell)
    if k % 2:
        raise ValueError("weight must be even, got %d" % k)
    return charpoly(p, k, ell)


def first_weight_in_class(kclass: int, ell: int) -> int:
    """Smallest even weight >= 12 congruent to kclass mod (ell - 1)."""
    step = ell - 1
    kclass %= step
    if kclass % 2:
        raise ValueError("class %d mod %d contains no even weights" % (kclass, step))
    return 12 + (kclass - 12) % step


@record
class RootSequence:
    """Sequence of new roots along one weight class mod ell.

    terms[j] enters at term_weights[j], the first weight whose cusp
    space has dimension j + 1 within the class.  period is None when
    the window did not show two full periods (single-period runs).
    """

    p: int
    ell: int
    kclass: int
    terms: tuple
    term_weights: tuple
    period: object  # int or None
    max_weight: int

    def one_period(self) -> tuple:
        if self.period is None:
            return self.terms
        return self.terms[: self.period]

    def first_terms(self, count: int) -> tuple:
        """First `count` terms, extended by periodicity when verified."""
        if count <= len(self.terms):
            return self.terms[:count]
        if self.period is None:
            raise ValueError("only %d terms observed and no verified period" % len(self.terms))
        return tuple(self.terms[i % self.period] for i in range(count))


def root_sequence(
    p: int,
    ell: int,
    kclass: int,
    max_weight=None,
    require_two_periods: bool = True,
) -> RootSequence:
    """Walk a weight class and collect the new root at each dimension jump.

    The terms are the diagonal of T_p on the flag of the class, checked
    by triangularity, Serre's set (ell < 13) and the trace formula at
    every weight; a failure raises (see the module docstring).  Period
    detection demands that every term equal the one a period later
    across the whole window, with two full periods in it; when
    require_two_periods is set and no period emerges, PeriodNotFound is
    raised, or ValueError when max_weight ends before the default
    window.  A window that ends below the class's first weight checks
    nothing and is a ValueError.
    """
    if ell not in (5, 7, 13):
        raise ValueError("root sequences are defined for ell in {5, 7, 13}")
    _validate(p, ell)
    k0 = first_weight_in_class(kclass, ell)
    kclass %= ell - 1
    if max_weight is None:
        max_weight = DEFAULT_MAX_WEIGHT[ell]
    if max_weight < k0:
        raise ValueError(
            "no weight of class %d mod %d up to weight %d: the class starts at weight %d"
            % (kclass, ell - 1, max_weight, k0)
        )
    weights = range(k0, max_weight + 1, ell - 1)
    flag = []  # kappa_1, kappa_2, ...: the weight at which each g_j enters
    for k in weights:
        flag += [k] * (dim_cusp(k) - len(flag))
    matrix = flag_matrix(p, flag, ell)
    allowed = serre_eigenvalue_set(p, ell) if ell < 13 else frozenset(range(ell))
    terms = []
    for j, (k, column) in enumerate(zip(flag, zip(*matrix))):
        off = next((i for i in range(j + 1, len(flag)) if column[i]), None)
        if off is not None:
            raise Lemma1Violation(
                "T_%d g_%d at weight %d has coordinate %d on g_%d of weight %d mod %d"
                % (p, j + 1, k, column[off], off + 1, flag[off], ell)
            )
        if column[j] not in allowed:
            raise EigenvalueViolation(
                "T_%d at weight %d mod %d has root %d outside {p^m + p^n mod %d} = {%s}"
                % (p, k, ell, column[j], ell, ", ".join(map(str, sorted(allowed))))
            )
        terms.append(column[j])
    for k, trace in traces(p, weights).items():
        d = dim_cusp(k)
        if (trace - sum(terms[:d])) % ell:
            raise Lemma1Violation(
                "T_%d at weight %d mod %d has trace %d, but the walk's first %d terms sum to %d"
                % (p, k, ell, trace % ell, d, sum(terms[:d]) % ell)
            )
    period = minimal_period(terms)
    if period is None and require_two_periods:
        message = "no period for p=%d ell=%d class %d up to weight %d (%d terms)" % (
            p, ell, kclass, max_weight, len(terms))
        if max_weight < DEFAULT_MAX_WEIGHT[ell]:
            raise ValueError(message + "; pass --single-period, or walk to the default weight %d"
                             % DEFAULT_MAX_WEIGHT[ell])
        raise PeriodNotFound(message)
    return RootSequence(
        p=p,
        ell=ell,
        kclass=kclass,
        terms=tuple(terms),
        term_weights=tuple(flag),
        period=period,
        max_weight=max_weight,
    )


def _product(terms, ell: int) -> tuple:
    """The product of x - a over the terms mod ell, coefficients ascending."""
    out = (1,)
    for a in terms:
        out = tuple((low - a * high) % ell for low, high in zip((0,) + out, out + (0,)))
    return out


def table_rows(ell, max_weight=None, single_period=False):
    """The RootSequence of every cell of the periodic root table, ell in {5, 7, 13}.

    For ell in {5, 7} the rows run over the published representative
    primes (smallest in each class, printed order) and the columns over
    even weight classes.  For ell = 13 the single published row prime
    is 2 and the rows are the six weight classes mod 12.  In
    single-period mode the walk stops early and periods are left
    unverified rather than guessed.
    """
    if ell not in (5, 7, 13):
        raise ValueError("tables exist for ell in {5, 7, 13}")
    if single_period and max_weight is None:
        max_weight = SINGLE_PERIOD_MAX_WEIGHT
    return [
        root_sequence(p, ell, kclass, max_weight=max_weight, require_two_periods=not single_period)
        for p in ROW_PRIMES.get(ell, (2,))
        for kclass in KCLASSES[ell]
    ]


def small_ell_rule(p: int, k: int, ell: int) -> tuple:
    """Predicted T_p mod ell for ell in {2, 3}: a pure power of x or x - 2.

    mod 2 (p odd): x^dim.  mod 3: (x - 2)^dim for p = 1 (mod 3), x^dim
    for p = 2 (mod 3).
    """
    if ell not in (2, 3):
        raise ValueError("closed forms cover ell in {2, 3} only")
    _validate(p, ell)
    root = 0 if ell == 2 or p % 3 == 2 else 2
    return _product([root] * dim_cusp(k), ell)


def congruence_class_invariance(p: int, q: int, ell: int, k: int) -> bool:
    """Whether T_p and T_q agree mod ell at weight k; requires p = q (mod ell).

    For ell <= 7 agreement is a theorem, so False from this function is
    a falsification witness for the caller to raise on.
    """
    if ell > 7:
        raise ValueError("class invariance is only guaranteed for ell <= 7")
    if (p - q) % ell:
        raise ValueError("p=%d and q=%d are not congruent mod %d" % (p, q, ell))
    return charpoly_mod(p, k, ell) == charpoly_mod(q, k, ell)


def serre_eigenvalue_set(p: int, ell: int) -> frozenset:
    """{p^m + p^n mod ell} over exponents 0 <= m <= n <= ell - 2."""
    powers = [pow(p, m, ell) for m in range(ell - 1)]
    return frozenset((a + b) % ell for a in powers for b in powers)
