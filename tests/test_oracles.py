"""gfpoly, cycle types and certificates checked against independent references.

sympy's factorization over GF(ell) is the oracle for `factor` and, by
its factor degrees, for the degree-only cycle types (a hypothesis
property, and T_2 at three weights for every odd prime ell < 200);
sympy's irreducibility test and Galois groups over Q are the oracle for
`certify`.  Both libraries are test-only and skip when missing.
`is_prime` is checked against the sieve and, past it, against sympy.
"""

import random

import pytest

from heckemod._primes import is_prime, primes_up_to
from heckemod.galois import (
    CLAIM_FULL_SYMMETRIC,
    CLAIM_IRREDUCIBLE,
    Certificate,
    CycleType,
    SquarefreeFailure,
    certify,
    cycle_type,
)
from heckemod.gfpoly import factor, reduce_mod
from heckemod.hecke import dim_cusp
from heckemod.modfactor import charpoly_mod


# strong pseudoprimes to the first 12 prime bases, and the first 13
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_agrees_with_the_sieve():
    sieved = set(primes_up_to(10**5))
    assert [n for n in range(10**5) if is_prime(n)] == sorted(sieved)
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5, 7, and psi_12
    for n in (561, 3215031751, PSI_12):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    with pytest.raises(ValueError, match="too large"):
        is_prime(PSI_13)


def test_is_prime_matches_sympy_past_the_sieve():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    near = [2**61 - 1, sympy.nextprime(2**64), sympy.prevprime(PSI_13), PSI_12, PSI_13 - 2]
    for n in near + [rng.randrange(PSI_13) for _ in range(500)]:
        assert is_prime(n) == sympy.isprime(n), n


def _sympy_factors(f, ell):
    """(unit, sorted [(ascending coefficient tuple, multiplicity)]) from sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    unit, pairs = sympy.Poly(list(reversed(f)), x, modulus=ell).factor_list()
    out = [(reduce_mod([int(c) for c in reversed(g.all_coeffs())], ell), m) for g, m in pairs]
    return int(unit) % ell, sorted(out, key=lambda gm: (len(gm[0]), gm[0]))


def _assert_matches_sympy(f, ell):
    fm = factor(f, ell)
    assert (fm.unit, list(fm.factors)) == _sympy_factors(reduce_mod(f, ell), ell), (f, ell)


def _int_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_factor_matches_sympy_on_random_polynomials():
    rng = random.Random(41)
    for ell in (2, 3, 5, 7, 13, 101):
        for _ in range(25):
            f = reduce_mod([rng.randrange(ell) for _ in range(rng.randint(2, 13))], ell)
            if len(f) > 1:
                _assert_matches_sympy(f, ell)
        # a cube, where the multiplicities matter
        g = reduce_mod([rng.randrange(ell) for _ in range(4)] + [1], ell)
        _assert_matches_sympy(tuple(c % ell for c in _int_product(_int_product(g, g), g)), ell)


def test_factor_matches_sympy_on_hecke_charpolys():
    for p, k, ell in [(2, 96, 5), (3, 72, 7), (2, 120, 13), (5, 100, 11), (2, 150, 101), (7, 84, 3)]:
        _assert_matches_sympy(charpoly_mod(p, k, ell), ell)


def test_certificates_agree_with_sympy_over_q(shared_cache):
    # sympy's Galois groups are named for degree <= 6
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    weights = [k for k in range(12, 100, 2) if 2 <= dim_cusp(k) <= 6]
    assert (weights[0], weights[-1], len(weights)) == (24, 86, 30)
    checked = []
    for p in (2, 3, 5):
        for k in weights:
            f = shared_cache.charpoly(p, k)
            poly = sympy.Poly(list(reversed(f)), x)
            for verdict in certify(p, k, bound=200, cache=shared_cache):
                if not isinstance(verdict, Certificate):
                    continue
                if verdict.claim == CLAIM_IRREDUCIBLE:
                    assert poly.is_irreducible, (p, k)
                else:
                    assert verdict.claim == CLAIM_FULL_SYMMETRIC
                    group, _ = sympy.galois_group(poly, by_name=True)
                    assert group.name == "S%d" % (len(f) - 1), (p, k, group)
                checked.append(verdict.claim)
    # every pair is certified on both claims, so the oracle is never vacuous
    assert checked.count(CLAIM_IRREDUCIBLE) == checked.count(CLAIM_FULL_SYMMETRIC) == 90


def _assert_cycle_type_matches_sympy(f, ell):
    _, pairs = _sympy_factors(reduce_mod(f, ell), ell)
    ct = cycle_type(f, ell)
    if any(m > 1 for _, m in pairs):
        assert isinstance(ct, SquarefreeFailure), (f, ell)
    else:
        degrees = tuple(sorted((len(g) - 1 for g, _ in pairs), reverse=True))
        assert ct == CycleType(ell=ell, partition=degrees), (f, ell)


def test_cycle_type_is_the_factor_degree_partition():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(
        tail=st.lists(st.integers(-50, 50), min_size=1, max_size=12),
        ell=st.sampled_from((2, 3, 5, 7, 11, 13, 31, 199, 1000003)),
    )
    def check(tail, ell):
        _assert_cycle_type_matches_sympy(tuple(tail) + (1,), ell)

    check()


def test_hecke_cycle_types_match_sympy(shared_cache):
    for k in (120, 184, 228):
        f = shared_cache.charpoly(2, k)
        for ell in primes_up_to(199)[1:]:
            _assert_cycle_type_matches_sympy(f, ell)
