"""Hecke characteristic polynomials modulo small primes ell.

For ell in {5, 7, 13} and p != ell, the polynomial of T_p at weight
k + (ell - 1) is divisible mod ell by the one at weight k, so walking a
fixed weight class k = kclass (mod ell - 1) upward peels off one new
root per dimension jump.  The resulting root sequences a_1, a_2, ... are
periodic, and the roots of T_p mod ell at any weight in the class are
exactly the first dim terms of the sequence.  This module computes the
sequences, detects their periods empirically (two full periods
required inside the verified window, which max_weight bounds),
assembles the periodic tables, and checks the companion congruences:

  * mod 2: T_p = x^dim for every odd p;
  * mod 3: T_p = (x - 2)^dim when p = 1 (mod 3), x^dim when p = 2;
  * class invariance: p = q (mod ell), ell <= 7, forces
    T_p = T_q (mod ell) on every weight;
  * every root mod ell lies in {p^m + p^n mod ell}.

Every polynomial comes from the Hecke kernel run mod ell, so neither
the integer polynomial nor the disk cache is ever touched.

A walk peels rather than factors: each polynomial is divided exactly
by the one at the previous weight of its class, and only the quotient,
of the degree of the dimension jump, is factored.  That division is the
Lemma 1 check, so the roots of each weight extend those of the last by
construction.

Violations raise, they are never smoothed over: an inexact quotient is
a Lemma1Violation, a polynomial with too few roots in F_ell is a
SplittingViolation, and for ell in {5, 7} a root outside
{p^m + p^n mod ell} is an EigenvalueViolation.

Lemma 1 ties each weight only to the weight below it in the same cell
(p, kclass), so the cells of a table share no work.  `table_rows` walks
them on every usable CPU, in forked workers (`_forked`), when the walk's
top weight is FORK_FROM_WEIGHT or more.  A cell no worker sent, because
it failed or its worker died, is walked again in the calling process in
table order, so the result, and the failure of the earliest failing
cell, are those of one walk.
"""

from __future__ import annotations

from . import _forked
from ._primes import minimal_period, poly_str, require_prime
from ._record import record
from .errors import EigenvalueViolation, Lemma1Violation, PeriodNotFound, SplittingViolation
from .gfpoly import InexactDivision, divide_exact, mul, roots
from .hecke import charpoly, dim_cusp

# Row labels of the published mod-5 and mod-7 tables: the smallest prime
# in each nonzero residue class, in the printed order.
ROW_PRIMES = {5: (11, 2, 3, 19), 7: (29, 2, 3, 11, 5, 13)}
KCLASSES = {5: (0, 2), 7: (0, 2, 4), 13: (0, 2, 4, 6, 8, 10)}
DEFAULT_MAX_WEIGHT = {5: 110, 7: 200, 13: 370}
SINGLE_PERIOD_MAX_WEIGHT = 190

# table_rows forks only for walks whose top weight is FORK_FROM_WEIGHT or
# more; below it a fork costs about what it saves.  Cold table_rows,
# median of 11 in process on a 2-vCPU Xeon, CPython 3.11, one worker
# against two, in ms, single-period walks to weight: mod 5: 50: 9.2 / 9.0,
# 70: 14.0 / 14.9, 90: 23.1 / 20.5; mod 7: 50: 13.5 / 13.0, 70: 25.3 /
# 24.1, 90: 40.7 / 39.1; mod 13: 50: 3.9 / 8.7, 70: 6.2 / 9.2, 90: 12.1 /
# 12.5, 110: 13.3 / 13.2.  The default walks, median of 7: mod 5 (110):
# 38.7 / 34.3, mod 7 (200): 235.5 / 208.1, mod 13 (370): 176.7 / 120.3.
FORK_FROM_WEIGHT = 100


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
    seed: int = 0,
) -> RootSequence:
    """Walk a weight class and collect the new root at each dimension jump.

    Each polynomial is divided exactly by the previous one in the class
    (see the module docstring), and the quotient must split completely
    in F_ell, into roots in `serre_eigenvalue_set` when ell < 13; a
    failure raises.  Period detection demands that every term equal the
    one a period later across the whole window, with two full periods in
    it; when require_two_periods is set and no period emerges,
    PeriodNotFound is raised.  A window that ends below the class's
    first weight checks nothing and is a ValueError.
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
    allowed = serre_eigenvalue_set(p, ell) if ell < 13 else frozenset(range(ell))
    terms = []
    term_weights = []
    prev = (1,)  # the polynomial one step below k0 has degree 0
    k = k0
    while k <= max_weight:
        f = charpoly_mod(p, k, ell)
        try:
            quotient = divide_exact(f, prev, ell)
        except InexactDivision as exc:
            raise Lemma1Violation(
                "T_%d at weight %d does not divide weight %d mod %d (remainder %s)"
                % (p, k - ell + 1, k, ell, poly_str(exc.remainder))
            ) from exc
        new = roots(quotient, ell, seed=seed)
        d = dim_cusp(k)
        if len(terms) + len(new) != d:
            raise SplittingViolation(
                "T_%d at weight %d mod %d has %d roots in F_%d, dimension is %d"
                % (p, k, ell, len(terms) + len(new), ell, d)
            )
        stray = sorted(set(new) - allowed)
        if stray:
            raise EigenvalueViolation(
                "T_%d at weight %d mod %d has root %d outside {p^m + p^n mod %d} = {%s}"
                % (p, k, ell, stray[0], ell, ", ".join(map(str, sorted(allowed))))
            )
        terms.extend(new)
        term_weights.extend([k] * len(new))
        prev = f
        k += ell - 1
    period = minimal_period(terms)
    if period is None and require_two_periods:
        raise PeriodNotFound(
            "no period for p=%d ell=%d class %d up to weight %d (%d terms)"
            % (p, ell, kclass, max_weight, len(terms))
        )
    return RootSequence(
        p=p,
        ell=ell,
        kclass=kclass,
        terms=tuple(terms),
        term_weights=tuple(term_weights),
        period=period,
        max_weight=max_weight,
    )


def table_rows(ell, max_weight=None, single_period=False):
    """The RootSequence of every cell of the periodic root table, ell in {5, 7, 13}.

    For ell in {5, 7} the rows run over the published representative
    primes (smallest in each class, printed order) and the columns over
    even weight classes.  For ell = 13 the single published row prime
    is 2 and the rows are the six weight classes mod 12.  In
    single-period mode the walk stops early and periods are left
    unverified rather than guessed.

    The cells share no work, so they are walked on every usable CPU
    (see the module docstring); the result and any failure are those of
    one walk in table order.
    """
    if ell not in (5, 7, 13):
        raise ValueError("tables exist for ell in {5, 7, 13}")
    if single_period and max_weight is None:
        max_weight = SINGLE_PERIOD_MAX_WEIGHT
    cells = [(p, kclass) for p in ROW_PRIMES.get(ell, (2,)) for kclass in KCLASSES[ell]]

    def walk(i):
        p, kclass = cells[i]
        return root_sequence(p, ell, kclass, max_weight=max_weight, require_two_periods=not single_period)

    # A cell costs about p + 20: mod 7 a cell took 8 ms at p = 2 .. 13 and
    # 20 ms at p = 29 (2-vCPU Xeon, CPython 3.11).  A worker walks its cells
    # costliest, so largest p, first: its first cell builds its largest
    # factor table and the rest read from it.  Mod 7 the two workers made
    # 153 and 159 products this way, against 559 and 449 in ascending p.
    top = DEFAULT_MAX_WEIGHT[ell] if max_weight is None else max_weight
    costs = [p + 20 for p, _ in cells]
    sent = _forked.run(lambda i: vars(walk(i)), costs) if top >= FORK_FROM_WEIGHT else {}
    # no cell before the earliest failing one is missing, so walking the missing
    # cells here in table order raises the failure one walk would have raised
    return [RootSequence(**sent[i]) if i in sent else walk(i) for i in range(len(cells))]


def small_ell_rule(p: int, k: int, ell: int) -> tuple:
    """Predicted T_p mod ell for ell in {2, 3}: a pure power of x or x - 2.

    mod 2 (p odd): x^dim.  mod 3: (x - 2)^dim for p = 1 (mod 3), x^dim
    for p = 2 (mod 3).
    """
    if ell not in (2, 3):
        raise ValueError("closed forms cover ell in {2, 3} only")
    _validate(p, ell)
    d = dim_cusp(k)
    base = (0, 1) if ell == 2 or p % 3 == 2 else (-2 % ell, 1)
    out = (1,)
    for _ in range(d):
        out = mul(out, base, ell)
    return out


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
