import json
import random
from collections import Counter
from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from heckemod import galois
from heckemod._primes import from_decimal, primes_up_to
from heckemod.galois import (
    CLAIM_FULL_SYMMETRIC,
    CLAIM_IRREDUCIBLE,
    Certificate,
    CycleType,
    NotFound,
    SquarefreeFailure,
    certify,
    certify_full_symmetric,
    certify_irreducible,
    certify_poly,
    corollary_conclusion,
    cycle_type,
    deduce,
    powers_to_prime_cycle,
    powers_to_transposition,
    _qualifying_ell,
    proper_degree_sums,
    theorem1_conclusion,
)
from heckemod.gfpoly import _distinct_degree, factor, reduce_mod, roots
from heckemod.modfactor import charpoly_mod

X4_PLUS_1 = (1, 0, 0, 0, 1)
A4_QUARTIC = (12, 8, 0, 0, 1)  # x^4 + 8x + 12, Galois group A4


def test_cycle_type_examples():
    assert cycle_type(X4_PLUS_1, 3) == CycleType(ell=3, partition=(2, 2))
    assert cycle_type(X4_PLUS_1, 5) == CycleType(ell=5, partition=(2, 2))
    assert cycle_type(X4_PLUS_1, 17) == CycleType(ell=17, partition=(1, 1, 1, 1))
    failure = cycle_type((0, 0, 1), 3)  # x^2 is a repeated factor
    assert isinstance(failure, SquarefreeFailure)
    assert failure.repeated == (0, 1)
    with pytest.raises(ValueError):
        cycle_type((1, 0, 2), 5)  # not monic


def _int_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_cycle_type_matches_full_factorization():
    # the old path, a complete factorization, is the reference for the
    # squarefree test and the distinct-degree partition
    rng = random.Random(11)

    def monic(degree):
        return tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,)

    polys = [monic(rng.randint(1, 8)) for _ in range(40)]
    # squares over Z, so every reduction has a repeated factor
    polys += [_int_product(_int_product(g, g), monic(rng.randint(0, 4)))
              for g in (monic(rng.randint(1, 2)) for _ in range(10))]
    polys += [(1, 0, 0, 0, 1), (0, 0, 0, 1), (2, 0, 0, 0, 0, 0, 0, 1)]
    failures = 0
    for f in polys:
        for ell in primes_up_to(31):
            ct = cycle_type(f, ell)
            fm = factor(reduce_mod(f, ell), ell)
            if all(m == 1 for _, m in fm.factors):
                degrees = sorted((len(g) - 1 for g, _ in fm.factors), reverse=True)
                assert ct == CycleType(ell=ell, partition=tuple(degrees))
            else:
                assert isinstance(ct, SquarefreeFailure) and ct.ell == ell
                failures += 1
    assert failures > 100


def test_squarefree_cycle_types_skip_the_strip_gcd(shared_cache):
    # cycle_type divides each degree-d piece out once; stripping further
    # copies with another gcd, as factor does, finds none on T_2's sweep
    for k in range(120, 229, 4):
        f = shared_cache.charpoly(2, k)
        for ell in primes_up_to(200)[1:]:
            ct = cycle_type(f, ell)
            if isinstance(ct, SquarefreeFailure):
                continue
            fm = reduce_mod(f, ell)
            stripped = [d for piece, d in _distinct_degree(fm, ell) for _ in range((len(piece) - 1) // d)]
            assert ct.partition == tuple(sorted(stripped, reverse=True)), (k, ell)


def test_certify_reduces_each_prime_once(shared_cache, monkeypatch):
    scanned = []
    real = galois.cycle_type

    def counted(f, ell):
        scanned.append(ell)
        return real(f, ell)

    monkeypatch.setattr(galois, "cycle_type", counted)
    for k in (12, 24, 36, 48, 200):
        scanned.clear()
        irr, full = certify(2, k, bound=200, cache=shared_cache)
        assert len(scanned) == len(set(scanned)) and 2 not in scanned
        assert isinstance(full, Certificate) == (k != 200)
    assert isinstance(irr, NotFound) and set(scanned) == set(primes_up_to(200)) - {2}

    scanned.clear()
    irr = next(certify(2, 48, cache=shared_cache))
    assert isinstance(irr, Certificate)
    assert max(scanned) == max(e["ell"] for e in irr.evidence)


def test_proper_degree_sums_against_subset_enumeration():
    rng = random.Random(5)
    for _ in range(50):
        parts = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7)))
        total = sum(parts)
        brute = set()
        for r in range(1, len(parts)):
            for combo in combinations(range(len(parts)), r):
                brute.add(sum(parts[i] for i in combo))
        brute = {s for s in brute if 0 < s < total}
        assert proper_degree_sums(parts) == frozenset(brute)
    assert proper_degree_sums((2, 2)) == frozenset({2})
    assert proper_degree_sums((4,)) == frozenset()


def test_power_witness_predicates():
    assert powers_to_transposition((2,))
    assert powers_to_transposition((2, 1, 1))
    assert powers_to_transposition((2, 3))
    assert not powers_to_transposition((2, 2))
    assert not powers_to_transposition((4, 1))
    assert not powers_to_transposition((3, 1))
    assert powers_to_prime_cycle((3, 1), 4) == 3
    assert powers_to_prime_cycle((5, 2), 7) == 5
    assert powers_to_prime_cycle((4, 2), 6) is None
    assert powers_to_prime_cycle((5,), 5) is None  # full cycle is not a proper witness
    assert powers_to_prime_cycle((2, 2), 4) is None


def test_certify_irreducible_poly_quadratic():
    cert = next(certify_poly((-2, 0, 1), 100))  # x^2 - 2
    assert isinstance(cert, Certificate)
    assert cert.rule == "IrreducibleModEll"
    assert cert.evidence[0]["partition"] == [2]


def test_sieve_never_certifies_x4_plus_1():
    # Galois group is the Klein four group: only cycle types 1+1+1+1 and
    # 2+2 can ever appear, so degree 2 survives the sieve at every ell
    res = next(certify_poly(X4_PLUS_1, 500))
    assert isinstance(res, NotFound)
    assert "2" in res.reason
    partitions = {tuple(e["partition"]) for e in res.evidence}
    assert partitions <= {(1, 1, 1, 1), (2, 2)}
    assert (4,) not in partitions

    full = tuple(certify_poly(X4_PLUS_1, 500))[1]
    assert isinstance(full, NotFound)


def test_sieve_certifies_a4_quartic():
    # A4 has no 4-cycle, so no reduction is irreducible, but the cycle
    # types 3+1 and 2+2 allow proper factor degrees {1, 3} and {2}
    cert = next(certify_poly(A4_QUARTIC, 50))
    assert isinstance(cert, Certificate)
    assert cert.rule == "DegreeSetSieve"
    partitions = {tuple(e["partition"]) for e in cert.evidence}
    assert partitions == {(3, 1), (2, 2)}


def test_sieve_gap_is_genuine():
    # (x^2 - 2)(x^2 - 8) realizes the same factor-degree data as x^4 + 1,
    # so no sound degree-based rule may clear either one
    reducible = (16, 0, -10, 0, 1)
    res = next(certify_poly(reducible, 300))
    assert isinstance(res, NotFound)


@pytest.mark.parametrize(
    "left, right, surviving",
    [((2, 24), (2, 36), [2, 3]), ((2, 24), (3, 24), [2])],
    ids=("T2-24-times-T2-36", "T2-24-times-T3-24"),
)
def test_no_certificate_for_a_product_of_hecke_polynomials(shared_cache, left, right, surviving):
    # soundness control: a product of two Hecke polynomials is reducible,
    # so the degree of a factor must survive the sieve at every bound;
    # T_2 and T_3 at weight 24 generate one quadratic field, so only 2 does
    f = _int_product(shared_cache.charpoly(*left), shared_cache.charpoly(*right))
    irr, full = certify_poly(f, 500)
    assert isinstance(irr, NotFound) and isinstance(full, NotFound)
    assert irr.reason == "degrees %s survive the sieve below 500" % surviving
    assert full.reason == "irreducibility not established: " + irr.reason


def test_certify_hecke_examples(shared_cache):
    cert = certify_irreducible(2, 24, cache=shared_cache)
    assert isinstance(cert, Certificate)
    assert cert.rule == "IrreducibleModEll"
    assert cert.evidence[0]["ell"] == 23
    assert cert.subject == {"p": 2, "k": 24}
    assert cert.unconditional

    linear = certify_irreducible(2, 12, cache=shared_cache)
    assert isinstance(linear, Certificate) and linear.degree == 1

    with pytest.raises(ValueError):
        certify_irreducible(2, 14, cache=shared_cache)
    with pytest.raises(ValueError):
        certify_irreducible(6, 24, cache=shared_cache)


def test_certify_full_symmetric_small_degrees(shared_cache):
    one = certify_full_symmetric(2, 12, cache=shared_cache)
    assert isinstance(one, Certificate)
    assert one.evidence[0]["kind"] == "degree-1"

    # with no prime to scan, degree 1 is not a certificate either
    irr, full = certify(2, 12, bound=0, cache=shared_cache)
    assert isinstance(irr, NotFound) and isinstance(full, NotFound)
    assert full.reason == "irreducibility not established: " + irr.reason

    two = certify_full_symmetric(2, 24, cache=shared_cache)
    assert isinstance(two, Certificate)
    assert two.rule == "JordanCriterion"
    kinds = [e["kind"] for e in two.evidence]
    assert kinds == ["irreducibility"]

    three = certify_full_symmetric(2, 36, cache=shared_cache)
    assert isinstance(three, Certificate)
    kinds = [e["kind"] for e in three.evidence]
    assert "transposition-witness" in kinds and "prime-degree" in kinds

    four = certify_full_symmetric(2, 48, cache=shared_cache)
    assert isinstance(four, Certificate)
    kinds = [e["kind"] for e in four.evidence]
    assert "q-cycle-witness" in kinds and "transposition-witness" in kinds
    qev = next(e for e in four.evidence if e["kind"] == "q-cycle-witness")
    assert qev["q"] == 3


def test_certificates_serialize(shared_cache):
    cert = certify_full_symmetric(2, 48, cache=shared_cache)
    blob = json.dumps(cert.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["found"] and parsed["claim"] == CLAIM_FULL_SYMMETRIC
    missing = NotFound(claim="x", subject={"p": 2, "k": 14}, reason="nothing")
    assert json.loads(json.dumps(missing.to_dict()))["found"] is False


def test_subject_coefficients_past_the_int_string_limit():
    big = 10**5000 + 7
    verdict = next(certify_poly((-big, 1, 1), bound=30))  # x^2 + x - big
    coeffs = json.loads(json.dumps(verdict.to_dict()))["subject"]["coeffs"]
    assert coeffs == ["-1" + "0" * 4999 + "7", "1", "1"]
    assert [from_decimal(c) for c in coeffs] == [-big, 1, 1]


def test_residue_density_is_twenty_of_twentyfour():
    units = [a for a in range(35) if a % 5 and a % 7]
    assert len(units) == 24
    assert sum(_qualifying_ell(a) is not None for a in units) == 20


def test_theorem1_conclusion():
    v = theorem1_conclusion(3, 24)
    row = v.evidence[0]
    assert isinstance(v, Certificate) and row["ell"] == 5 and row["class_prime"] == 3
    assert row["first_terms"] == [2, 3]
    assert row["row_period"] == [2, 3]
    assert v.assumptions

    w = theorem1_conclusion(11, 24)  # 11 = 1 mod 5 but 4 mod 7
    row = w.evidence[0]
    assert isinstance(w, Certificate) and row["ell"] == 7 and row["class_prime"] == 11
    assert row["first_terms"] == [1, 3]

    none = theorem1_conclusion(29, 24)  # +-1 mod both
    assert isinstance(none, NotFound)


def test_corollary_conclusion():
    # case i: odd dimension
    v = corollary_conclusion(3, 26)
    assert isinstance(v, Certificate) and v.rule == "Corollary-i" and v.claim == CLAIM_IRREDUCIBLE

    # case ii: dim = 2 mod 4 with p = 3 mod 7
    w = corollary_conclusion(3, 24)
    assert isinstance(w, Certificate) and w.rule == "Corollary-ii"
    assert w.evidence[0]["ell"] == 7 and w.evidence[0]["first_terms"] == [0, 1]

    # dim odd but no qualifying residue
    n = corollary_conclusion(29, 50)
    assert isinstance(n, NotFound)

    # dim = 0 mod 4 with p = 1 mod 7 fits neither case
    m = corollary_conclusion(29, 48)
    assert isinstance(m, NotFound)


def test_table_row_certificates_replay_against_the_kernel():
    # the first terms of a class prime's row must be the roots of T_p
    # itself mod ell, and must show what each rule reads off them
    replayed = 0
    for p in primes_up_to(39):
        for k in range(12, 61, 2):
            for cert in (theorem1_conclusion(p, k), corollary_conclusion(p, k)):
                if not isinstance(cert, Certificate) or cert.degree < 2:
                    continue
                row = cert.evidence[0]
                first = row["first_terms"]
                assert sorted(first) == list(roots(charpoly_mod(p, k, row["ell"]), row["ell"]))
                if cert.rule == "Theorem1":
                    assert len(set(first)) >= 2, (p, k)
                else:
                    assert reduce(gcd, Counter(first).values()) == 1, (p, k)
                replayed += 1
    assert replayed > 250


def test_deduce_upgrades_with_anchor(shared_cache):
    res = deduce(3, 24, cache=shared_cache)
    assert isinstance(res.target, Certificate)
    assert res.unconditional
    assert res.target.claim == CLAIM_FULL_SYMMETRIC
    assert res.target.rule == "Theorem1"
    assert not res.target.assumptions
    rows = [e for e in res.target.evidence if e.get("kind") == "table-row"]
    assert rows and rows[0]["first_terms"] == [2, 3]
    anchors = [e for e in res.target.evidence if e.get("kind") == "anchor"]
    assert anchors and anchors[0]["n"] == 2
    assert isinstance(res.anchor_irreducible, Certificate)
    assert isinstance(res.anchor_full, Certificate)

    blob = json.loads(json.dumps(res.to_dict(), sort_keys=True))
    assert blob["unconditional"] is True


def test_deduce_not_found(shared_cache):
    res = deduce(29, 24, cache=shared_cache)
    assert isinstance(res.target, NotFound)
    assert res.unconditional is False
    assert res.anchor_irreducible is None
