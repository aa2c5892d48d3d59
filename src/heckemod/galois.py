"""Galois-theoretic certificates from cycle types modulo primes.

For a monic integer polynomial f whose reduction mod ell is squarefree,
the factor degrees mod ell form the cycle type of a Frobenius element
of the Galois group of f (Dedekind).  Only the degrees matter, so a
cycle type costs a squarefree test, gcd(f, f') mod ell, and a
distinct-degree split; no factor is ever split further.  Collecting
cycle types over many ell supports three kinds of sound deduction,
each emitted as a Certificate listing exactly the evidence used:

  * irreducibility by a single irreducible reduction
    (rule IrreducibleModEll);
  * irreducibility by the degree sieve: a proper rational factor would
    need a degree realizable as a subset sum of every observed cycle
    type, so an empty intersection of those subset-sum sets is a proof
    (rule DegreeSetSieve);
  * full symmetric Galois group (rule JordanCriterion): transitivity
    from irreducibility, primitivity from a prime q-cycle with
    d/2 < q < d (automatic when d itself is prime), and then a
    transposition forces S_d (Jordan).  A cycle type powers to a
    transposition when it has exactly one even part, equal to 2; it
    powers to a q-cycle when it contains q once and q exceeds d/2.

Both verdicts come from one scan of the primes: the irreducibility
verdict is handed out as soon as it is decided, and the scan resumes
for the Jordan witnesses only when the caller asks, searching the cycle
types already seen before reducing any new prime.  Each prime is
reduced at most once per certificate.

The second half of the module packages the deductions specific to
Hecke polynomials: the residue-class criterion with its periodic
table evidence, and the dimension parity corollaries.  Those verdicts
carry their assumptions explicitly; discharging the assumption with an
unconditional anchor certificate upgrades them.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain
from math import gcd as _gcd

from . import modfactor  # through the module: certify never runs modfactor
from ._primes import is_prime, primes_up_to, require_prime, to_decimal
from ._record import record
from .gfpoly import _distinct_degree, derivative, gcd, reduce_mod
from .hecke import charpoly, dim_cusp

RULE_IRREDUCIBLE_MOD_ELL = "IrreducibleModEll"
RULE_DEGREE_SET_SIEVE = "DegreeSetSieve"
RULE_JORDAN = "JordanCriterion"
RULE_THEOREM1 = "Theorem1"
RULE_COROLLARY_I = "Corollary-i"
RULE_COROLLARY_II = "Corollary-ii"

CLAIM_IRREDUCIBLE = "irreducible"
CLAIM_FULL_SYMMETRIC = "full-symmetric-group"

ASSUME_SOME_IRREDUCIBLE = "some T_n at this weight has irreducible characteristic polynomial"
ASSUME_SOME_FULL = (
    "some T_n at this weight has irreducible characteristic polynomial"
    " with full symmetric Galois group"
)


@record
class CycleType:
    """Factor-degree partition of a squarefree reduction mod ell."""

    ell: int
    partition: tuple  # parts descending, summing to the degree


@record
class SquarefreeFailure:
    """Reduction mod ell had a repeated factor; no cycle type there."""

    ell: int
    repeated: tuple  # coefficients of gcd(f, f') mod ell


def cycle_type(f, ell: int):
    """CycleType of a monic integer polynomial mod ell, or SquarefreeFailure.

    The partition is the multiset of irreducible factor degrees mod
    ell, valid as a Frobenius cycle type by Dedekind's theorem.  It is
    read off the distinct-degree split of the squarefree reduction.
    """
    if f[-1] != 1:
        raise ValueError("cycle types need a monic polynomial")
    fm = reduce_mod(f, ell)  # the one check that ell is prime
    repeated = gcd(fm, derivative(fm, ell), ell)
    if len(repeated) > 1:
        return SquarefreeFailure(ell=ell, repeated=repeated)
    pieces = _distinct_degree(fm, ell, squarefree=True)
    parts = [d for piece, d in pieces for _ in range((len(piece) - 1) // d)]
    return CycleType(ell=ell, partition=tuple(sorted(parts, reverse=True)))


def proper_degree_sums(partition) -> frozenset:
    """Degrees of proper nonempty sub-products achievable from a cycle type."""
    total = sum(partition)
    mask = 1
    for part in partition:
        mask |= mask << part
    return frozenset(s for s in range(1, total) if mask >> s & 1)


def powers_to_transposition(partition) -> bool:
    """True when some power of an element of this type is a transposition:
    exactly one even part, equal to 2 (raise to the lcm of the odd parts)."""
    evens = [part for part in partition if part % 2 == 0]
    return evens == [2]


def powers_to_prime_cycle(partition, d: int):
    """A prime q with d/2 < q < d contained in the type, or None.

    Raising to the lcm of the other parts leaves a pure q-cycle, and a
    transitive group containing one is primitive.
    """
    for part in partition:
        if 2 * part > d and part < d and is_prime(part):
            return part
    return None


@record
class Certificate:
    claim: str
    subject: dict
    degree: int
    rule: str
    evidence: tuple
    assumptions: tuple = ()

    @property
    def unconditional(self) -> bool:
        return not self.assumptions

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "subject": dict(self.subject),
            "degree": self.degree,
            "rule": self.rule,
            "evidence": [dict(e) for e in self.evidence],
            "assumptions": list(self.assumptions),
            "found": True,
        }


@record
class NotFound:
    claim: str
    subject: dict
    reason: str
    evidence: tuple = ()

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "subject": dict(self.subject),
            "reason": self.reason,
            "evidence": [dict(e) for e in self.evidence],
            "found": False,
        }


def _type_evidence(ct: CycleType) -> dict:
    return {"kind": "cycle-type", "ell": ct.ell, "partition": list(ct.partition)}


def certify_poly(f, bound: int, skip=(), subject=None):
    """Irreducibility verdict, then full-symmetric verdict, from one scan.

    A generator over a monic integer polynomial f (coefficients
    ascending); next() gives irreducibility alone.  Walks the primes
    ell <= bound (skipping `skip`) once.  A single irreducible reduction
    settles irreducibility; otherwise the subset-sum sieve runs until
    its intersection of candidate factor degrees empties.  The second verdict needs the first, and resumes
    the scan only when asked: given irreducibility, degrees 1 and 2 need
    nothing more; beyond that it takes the first transposition witness
    and, unless the degree is prime, the first primitivity witness
    (prime q-cycle, d/2 < q < d) in scan order, earlier cycle types
    included.
    """
    d = len(f) - 1
    if subject is None:
        subject = {"coeffs": [to_decimal(c) for c in f]}
    if d < 1:
        raise ValueError("constant polynomial has no irreducibility question")
    reductions = (cycle_type(f, ell) for ell in primes_up_to(bound) if ell not in skip)
    types = (ct for ct in reductions if isinstance(ct, CycleType))

    seen = []
    surviving = None
    rule = None
    for ct in types:
        seen.append(ct)
        if ct.partition == (d,):
            rule, used = RULE_IRREDUCIBLE_MOD_ELL, [ct]
            break
        sums = proper_degree_sums(ct.partition)
        surviving = sums if surviving is None else surviving & sums
        if not surviving:
            rule, used = RULE_DEGREE_SET_SIEVE, seen
            break
    if rule is not None:
        irr = Certificate(CLAIM_IRREDUCIBLE, subject, d, rule, tuple(map(_type_evidence, used)))
    else:
        if surviving is None:
            reason = "no squarefree reduction below %d" % bound
        else:
            reason = "degrees %s survive the sieve below %d" % (sorted(surviving), bound)
        irr = NotFound(CLAIM_IRREDUCIBLE, subject, reason, tuple(map(_type_evidence, seen)))
    yield irr

    if rule is None:
        reason = "irreducibility not established: %s" % irr.reason
        yield NotFound(CLAIM_FULL_SYMMETRIC, subject, reason, irr.evidence)
        return
    if d == 1:
        evidence = ({"kind": "degree-1"},)
    else:
        evidence = ({"kind": "irreducibility", "certificate": irr.to_dict()},)
    if d > 2:
        transposition = None
        primitivity = {"kind": "prime-degree", "degree": d} if is_prime(d) else None
        for ct in chain(seen, types):
            if transposition is None and powers_to_transposition(ct.partition):
                transposition = dict(_type_evidence(ct), kind="transposition-witness")
            if primitivity is None:
                q = powers_to_prime_cycle(ct.partition, d)
                if q is not None:
                    primitivity = dict(_type_evidence(ct), kind="q-cycle-witness", q=q)
            if transposition is not None and primitivity is not None:
                break
        else:
            missing = []
            if transposition is None:
                missing.append("transposition")
            if primitivity is None:
                missing.append("primitivity q-cycle")
            reason = "no %s witness below %d" % (" or ".join(missing), bound)
            yield NotFound(CLAIM_FULL_SYMMETRIC, subject, reason, evidence)
            return
        evidence += (primitivity, transposition)
    yield Certificate(CLAIM_FULL_SYMMETRIC, subject, d, RULE_JORDAN, evidence)


def _hecke_subject(p, k):
    return {"p": p, "k": k}


def _hecke_poly(p, k, cache):
    require_prime(p, "p")
    f = charpoly(p, k) if cache is None else cache.charpoly(p, k)
    if len(f) < 2:
        raise ValueError("weight %d has trivial cusp space" % k)
    return f


def certify(p: int, k: int, bound: int = 200, cache=None):
    """Unconditional certificates for T_p at weight k from one prime scan.

    Returns a generator of two verdicts, irreducibility then full
    symmetric group; taking only the first stops the scan where
    irreducibility is decided.  Bad p or k raise at the call.
    """
    return certify_poly(_hecke_poly(p, k, cache), bound, (p,), _hecke_subject(p, k))


def certify_irreducible(p: int, k: int, bound: int = 200, cache=None):
    """Unconditional irreducibility certificate for T_p at weight k."""
    return next(certify(p, k, bound, cache))


def certify_full_symmetric(p: int, k: int, bound: int = 200, cache=None):
    """Unconditional full-symmetric-group certificate for T_p at weight k."""
    return tuple(certify(p, k, bound, cache))[1]


# ---------------------------------------------------------------------------
# deductions that lean on the periodic tables


def _qualifying_ell(p: int):
    """The modulus whose table row applies to p, or None."""
    for ell in (5, 7):
        if p % ell not in (0, 1, ell - 1):
            return ell
    return None


def _class_prime(p: int, ell: int) -> int:
    """The published row prime in p's residue class mod ell."""
    return next(q for q in modfactor.ROW_PRIMES[ell] if q % ell == p % ell)


def _table_certificate(claim, rule, p, k, ell, class_prime, row_period=(), first_terms=()):
    """Certificate resting on a table row and on the claim's standing assumption."""
    evidence = {
        "kind": "table-row",
        "ell": ell,
        "class_prime": class_prime,
        "kclass": k % (ell - 1),
        "row_period": list(row_period),
        "first_terms": list(first_terms),
    }
    assumption = ASSUME_SOME_FULL if claim == CLAIM_FULL_SYMMETRIC else ASSUME_SOME_IRREDUCIBLE
    return Certificate(claim, _hecke_subject(p, k), dim_cusp(k), rule, (evidence,), (assumption,))


def _row_first_terms(ell, class_prime, k, dim):
    seq = modfactor.root_sequence(class_prime, ell, k % (ell - 1))
    return seq.one_period(), seq.first_terms(dim)


def theorem1_conclusion(p: int, k: int):
    """Residue-class deduction: for p not +-1 mod 5 or mod 7, T_p at
    weight k is irreducible with full symmetric group, assuming some
    T_n at weight k is.

    Evidence is the periodic table row of p's class showing two
    distinct root values within the first dim terms, which rules out
    the only alternative shape (x - a)^dim.  Returns a Certificate,
    or NotFound saying which condition failed.
    """
    require_prime(p, "p")
    d = dim_cusp(k)
    ell = _qualifying_ell(p)
    if ell is None:
        reason = "p = %d is +-1 mod 5 and mod 7; no table row applies" % p
    elif d == 0:
        reason = "trivial cusp space"
    else:
        class_prime = _class_prime(p, ell)
        if d == 1:
            return _table_certificate(CLAIM_FULL_SYMMETRIC, RULE_THEOREM1, p, k, ell, class_prime)
        row_period, first = _row_first_terms(ell, class_prime, k, d)
        if len(set(first)) >= 2:
            return _table_certificate(
                CLAIM_FULL_SYMMETRIC, RULE_THEOREM1, p, k, ell, class_prime, row_period, first
            )
        reason = "table row for class %d mod %d shows a single root value" % (p % ell, ell)
    return NotFound(CLAIM_FULL_SYMMETRIC, _hecke_subject(p, k), reason)


def _multiplicity_gcd(terms) -> int:
    return reduce(_gcd, Counter(terms).values(), 0)


def corollary_conclusion(p: int, k: int):
    """Dimension-parity deduction: T_p at weight k is irreducible,
    assuming some T_n at weight k is.

    Case i: dim odd and p's residues qualify mod 5 or 7.  Case ii:
    dim = 2 mod 4 and p = 3 or 5 mod 7.  Under the assumption T_p is
    g^r with g irreducible and r dividing every root multiplicity mod
    ell; both cases force r = 1 because the gcd of root multiplicities
    in the table row's first dim terms is 1.  Returns a Certificate, or
    NotFound saying which condition failed.
    """
    require_prime(p, "p")
    d = dim_cusp(k)
    rule, ell = RULE_COROLLARY_I, None
    if d == 0:
        reason = "trivial cusp space"
    elif d % 2:
        ell = _qualifying_ell(p)
        reason = "dim %d is odd but p = %d is +-1 mod 5 and mod 7" % (d, p)
    elif d % 4 == 2 and p % 7 in (3, 5):
        rule, ell = RULE_COROLLARY_II, 7
    else:
        reason = "dim %d mod 4 = %d with p mod 7 = %d fits neither case" % (d, d % 4, p % 7)
    if ell is None:
        return NotFound(CLAIM_IRREDUCIBLE, _hecke_subject(p, k), reason)
    class_prime = _class_prime(p, ell)
    if d == 1:
        return _table_certificate(CLAIM_IRREDUCIBLE, rule, p, k, ell, class_prime)
    row_period, first = _row_first_terms(ell, class_prime, k, d)
    g = _multiplicity_gcd(first)
    if g != 1:
        reason = "multiplicity gcd %d leaves powers r > 1 possible" % g
        return NotFound(CLAIM_IRREDUCIBLE, _hecke_subject(p, k), reason)
    return _table_certificate(CLAIM_IRREDUCIBLE, rule, p, k, ell, class_prime, row_period, first)


@record
class DeduceResult:
    target: object  # Certificate or NotFound
    anchor_irreducible: object = None
    anchor_full: object = None

    @property
    def unconditional(self) -> bool:
        return isinstance(self.target, Certificate) and self.target.unconditional

    def to_dict(self) -> dict:
        out = {"target": self.target.to_dict(), "unconditional": self.unconditional}
        for name in ("anchor_irreducible", "anchor_full"):
            cert = getattr(self, name)
            out[name] = cert.to_dict() if cert is not None else None
        return out


def deduce(p: int, k: int, anchor_n: int = 2, bound: int = 200, cache=None):
    """Table-backed verdict for T_p at weight k, upgraded when possible.

    Tries the residue-class deduction first, then the parity corollary.
    The standing assumption (some T_n irreducible / fully symmetric) is
    discharged by certifying T_anchor_n at the same weight outright; a
    successful anchor turns the verdict unconditional.  The cache serves
    the anchor's integer polynomial only: table rows are computed mod
    ell by the Hecke kernel.
    """
    cert = theorem1_conclusion(p, k)
    need_full_anchor = isinstance(cert, Certificate)
    if not need_full_anchor:
        cert = corollary_conclusion(p, k)
    if isinstance(cert, NotFound):
        return DeduceResult(target=cert)
    anchor = certify(anchor_n, k, bound=bound, cache=cache)
    anchor_irr = next(anchor)
    anchor_full = None
    discharged = isinstance(anchor_irr, Certificate)
    if need_full_anchor and discharged:
        anchor_full = next(anchor)
        discharged = isinstance(anchor_full, Certificate)
    if discharged:
        ev = {"kind": "anchor", "n": anchor_n, "discharges": list(cert.assumptions)}
        cert = Certificate(cert.claim, cert.subject, cert.degree, cert.rule, cert.evidence + (ev,))
    return DeduceResult(target=cert, anchor_irreducible=anchor_irr, anchor_full=anchor_full)
