import random
from itertools import product, zip_longest

import pytest

from heckemod.galois import cycle_type
from heckemod.gfpoly import (
    X,
    FrobeniusMatrix,
    InexactDivision,
    add,
    _distinct_degree,
    derivative,
    divide_exact,
    factor,
    gcd,
    monic,
    mul,
    pow_mod,
    quo_rem,
    reduce_mod,
    roots,
    sub,
)
from heckemod import gfpoly
from heckemod._primes import from_decimal, poly_str, to_decimal


def expand(fm):
    out = (fm.unit,)
    for g, m in fm.factors:
        for _ in range(m):
            out = mul(out, g, fm.modulus)
    return out


def test_poly_str_examples():
    assert poly_str((24, 1)) == "x + 24"
    assert poly_str((2, -3, 1)) == "x^2 - 3x + 2"
    assert poly_str((0, 0, 5)) == "5x^2"
    assert poly_str((1,)) == "1"
    assert poly_str((0,)) == "0"
    assert poly_str((-1, -1)) == "-x - 1"


def test_decimals_past_the_int_string_limit():
    # 10^5000 + 7 has 5001 digits, past the default limit of 4300
    big = 10**5000 + 7
    text = "1" + "0" * 4999 + "7"
    for n, s in ((big, text), (-big, "-" + text), (0, "0"), (-12, "-12")):
        assert to_decimal(n) == s and from_decimal(s) == n
    assert poly_str((-big, big, 1)) == "x^2 + %sx - %s" % (text, text)


def test_tuple_normalization_and_arithmetic():
    f = reduce_mod((7, -3, 10), 5)  # 2 + 2x
    assert f == (2, 2)
    assert len(f) - 1 == 1
    zero = reduce_mod((0, 0), 5)
    assert zero == () and len(zero) - 1 == -1
    g = (1, 1)
    assert add(f, g, 5) == (3, 3)
    assert sub(f, f, 5) == ()
    assert mul(f, (3,), 5) == (1, 1)
    assert mul(f, g, 5) == (2, 4, 2)
    # f mod (x - 4) is the constant f(4)
    assert quo_rem(f, reduce_mod((-4, 1), 5), 5)[1] == reduce_mod((2 + 2 * 4,), 5)
    assert quo_rem(f, reduce_mod((-3, 1), 5), 5)[1] == reduce_mod((2 + 2 * 3,), 5)
    assert monic((0, 3), 5) == (0, 1)


def test_division_with_remainder_property():
    rng = random.Random(19)
    for p in (2, 3, 5, 13):
        for _ in range(60):
            a = reduce_mod(tuple(rng.randrange(p) for _ in range(rng.randint(0, 8))), p)
            b = reduce_mod(tuple(rng.randrange(p) for _ in range(rng.randint(1, 5))), p)
            if not b:
                continue
            q, r = quo_rem(a, b, p)
            assert add(mul(q, b, p), r, p) == a
            assert len(r) < len(b)


def test_divide_exact_remainder_attached():
    f = (1, 0, 1)  # x^2 + 1
    g = reduce_mod((-1, 1), 5)  # x - 1
    with pytest.raises(InexactDivision) as exc:
        divide_exact(f, g, 5)
    assert exc.value.remainder == (2,)
    assert divide_exact(f, (2, 1), 5) == (3, 1)  # (x+2)(x+3) = x^2+1


def test_factor_example_over_f5():
    fm = factor((4, 0, 1), 5)  # x^2 + 4
    assert fm.unit == 1
    assert list(fm.factors) == [((1, 1), 1), ((4, 1), 1)]


def test_factor_tracks_unit():
    fm = factor((3, 0, 3), 5)  # 3x^2 + 3
    assert fm.unit == 3
    assert expand(fm) == (3, 0, 3)


def test_factor_reassembles_random_inputs():
    rng = random.Random(23)
    for p in (2, 3, 5, 7, 13, 101):
        for _ in range(80):
            f = reduce_mod(tuple(rng.randrange(p) for _ in range(rng.randint(1, 9))), p)
            if not f:
                continue
            fm = factor(f, p)
            assert expand(fm) == f
            assert sum((len(g) - 1) * m for g, m in fm.factors) == len(f) - 1
            # canonical order
            keys = [(len(g) - 1, g) for g, _ in fm.factors]
            assert keys == sorted(keys)
            assert all(g[-1] == 1 for g, _ in fm.factors)


def is_irreducible_by_frobenius(g, p):
    # x^(p^d) = x mod g, and no smaller d' | d traps it
    d = len(g) - 1
    x_mod_g = quo_rem(X, g, p)[1]
    if pow_mod(X, p ** d, g, p) != x_mod_g:
        return False
    for r in (2, 3, 5, 7):
        if d % r == 0:
            h = sub(pow_mod(X, p ** (d // r), g, p), x_mod_g, p)
            if not len(gcd(h, g, p)) - 1 == 0:
                return False
    return True


def test_reported_factors_are_irreducible():
    rng = random.Random(29)
    for p in (2, 3, 7):
        for _ in range(25):
            f = reduce_mod(tuple(rng.randrange(p) for _ in range(7)), p)
            if len(f) - 1 < 1:
                continue
            for g, _ in factor(f, p).factors:
                assert is_irreducible_by_frobenius(g, p)


def test_factor_seed_independent():
    rng = random.Random(31)
    for p in (2, 5, 13):
        f = reduce_mod(tuple(rng.randrange(p) for _ in range(10)), p)
        a = factor(f, p, seed=1)
        b = factor(f, p, seed=2)
        assert a.factors == b.factors


def naive_factor(f, p):
    # trial division by monic polynomials of increasing degree
    out = []
    g = monic(f, p)
    d = 1
    while len(g) - 1 > 0:
        hit = None
        for tail in product(range(p), repeat=d):
            cand = tail + (1,)
            q, r = quo_rem(g, cand, p)
            if not r:
                hit = (cand, q)
                break
        if hit is None:
            d += 1
            continue
        out.append(hit[0])
        g = hit[1]
    return sorted(out)


def test_factor_matches_trial_division():
    for p in (2, 3, 5):
        for tail in product(range(p), repeat=3):
            f = tail + (1,)
            fm = factor(f, p)
            expanded = []
            for g, m in fm.factors:
                expanded.extend([g] * m)
            assert sorted(expanded) == naive_factor(f, p)


def test_repeated_factors_and_pth_powers():
    fm = factor((1, 0, 0, 0, 1), 2)  # (x+1)^4 over F_2
    assert list(fm.factors) == [((1, 1), 4)]
    sq = mul((1, 1, 1), (1, 1, 1), 2)
    fm = factor(sq, 2)
    assert list(fm.factors) == [((1, 1, 1), 2)]


def _monic_irreducibles_up_to_cubic(ell):
    # below degree 4, a polynomial without roots is irreducible
    out = []
    for d in (1, 2, 3):
        for tail in product(range(ell), repeat=d):
            g = tail + (1,)
            if d == 1 or all(sum(c * r ** i for i, c in enumerate(g)) % ell for r in range(ell)):
                out.append(g)
    return out


@pytest.mark.parametrize("ell", (2, 3, 5, 7))
def test_prescribed_multiplicities(ell):
    # f = prod g_i^(m_i): factor returns exactly that list, and the
    # distinct-degree split names each irreducible once per degree
    pool = _monic_irreducibles_up_to_cubic(ell)
    mults = (1, 2, ell, ell + 1, 2 * ell, ell * ell)
    rng = random.Random(41 + ell)
    for shift in range(len(mults)):
        gs = rng.sample(pool, 3)
        want = sorted(zip(gs, mults[shift:] + mults[:shift]), key=lambda gm: (len(gm[0]), gm[0]))
        f = (1,)
        for g, m in want:
            for _ in range(m):
                f = mul(f, g, ell)
        assert list(factor(f, ell).factors) == want, (ell, want)
        by_degree = {}
        for g, _ in want:
            by_degree[len(g) - 1] = mul(by_degree.get(len(g) - 1, (1,)), g, ell)
        pieces = [(by_degree[d], d) for d in sorted(by_degree)]
        assert _distinct_degree(reduce_mod(f, ell), ell) == pieces, (ell, want)


def test_roots_with_multiplicity():
    f = mul(mul((6, 1), (6, 1), 7), (4, 1), 7)  # (x - 1)^2 (x - 3) over F_7
    assert roots(f, 7) == (1, 1, 3)
    assert roots((1, 0, 1), 7) == ()  # x^2 + 1 has no roots mod 7
    with pytest.raises(ValueError):
        roots((), 7)


def test_gcd_is_monic():
    a = mul(mul((2, 1), (3, 1), 5), (0, 3), 5)
    b = mul((2, 1), (1, 1), 5)
    assert gcd(a, b, 5) == (2, 1)


def _random_squarefree(rng, ell, degree):
    while True:
        f = tuple(rng.randrange(ell) for _ in range(degree)) + (1,)
        if len(gcd(f, derivative(f, ell), ell)) == 1:
            return f


def test_q_matrix_powers_are_frobenius_powers():
    # x Q^d = x^(ell^d) mod f, for every d up to deg f
    rng = random.Random(37)
    x7_plus_2 = (2, 0, 0, 0, 0, 0, 0, 1)
    cases = [((1, 0, 0, 0, 1), 3), ((1, 0, 0, 0, 1), 5), ((1, 0, 0, 0, 1), 17), ((0, 0, 0, 1), 3)]
    cases += [(x7_plus_2, 7), (x7_plus_2, 13)]
    for ell in (2, 3, 5, 7, 13, 199):
        cases += [(_random_squarefree(rng, ell, rng.randint(1, 9)), ell) for _ in range(6)]
    for f, ell in cases:
        f = reduce_mod(f, ell)
        q = FrobeniusMatrix(f, ell, pow_mod(X, ell, f, ell))
        h = quo_rem(X, f, ell)[1]
        for d in range(1, len(f)):
            h = q.frobenius(h)
            assert h == pow_mod(X, ell ** d, f, ell), (f, ell, d)


def test_q_matrix_edge_cases():
    # x^3 has derivative 0 mod 3: x^3 = x^(3 * 1) is row 1, and x^9 = 0
    q = FrobeniusMatrix((0, 0, 0, 1), 3, pow_mod(X, 3, (0, 0, 0, 1), 3))
    assert q.frobenius((0, 1)) == ()
    assert q.frobenius((1, 1)) == (1,)
    # x^4 + 1 splits into two quadratics mod 3 and four linears mod 17
    assert _distinct_degree((1, 0, 0, 0, 1), 3) == [((1, 0, 0, 0, 1), 2)]
    assert _distinct_degree((1, 0, 0, 0, 1), 17) == [((1, 0, 0, 0, 1), 1)]
    # x^7 + 2 mod 7 is (x + 2)^7: not squarefree, one factor of multiplicity 7
    assert list(factor((2, 0, 0, 0, 0, 0, 0, 1), 7).factors) == [((2, 1), 7)]
    # x^7 + 2 mod 13: x -> x^7 permutes F_13 (gcd(7, 12) = 1), so one root
    assert cycle_type((2, 0, 0, 0, 0, 0, 0, 1), 13).partition == (2, 2, 2, 1)


def test_non_prime_modulus_rejected_at_each_entry():
    for ell in (0, 1, 4, 9, 91):
        for call in (
            lambda: reduce_mod((1, 1), ell),
            lambda: factor((1, 1), ell),
            lambda: roots((1, 1), ell),
            lambda: cycle_type((1, 1), ell),
        ):
            with pytest.raises(ValueError, match="not prime"):
                call()


# -- the packed kernel against test-local schoolbook arithmetic ---------------

PACKED_ELLS = (2, 3, 5, 13, 199, 1000003, 2**61 - 1)


def _school_trim(r):
    while r and r[-1] == 0:
        r.pop()
    return r


def _school_mul(a, b, ell):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % ell
    return _school_trim(out)


def _school_rem(a, b, ell):
    r = _school_trim([c % ell for c in a])
    inv = pow(b[-1], -1, ell)
    while len(r) >= len(b):
        c, s = r[-1] * inv % ell, len(r) - len(b)
        for j, y in enumerate(b):
            r[s + j] = (r[s + j] - c * y) % ell
        _school_trim(r)
    return r


def _school_gcd(a, b, ell):
    a, b = list(a), list(b)
    while b:
        a, b = b, _school_rem(a, b, ell)
    return tuple(c * pow(a[-1], -1, ell) % ell for c in a) if a else ()


def _school_pow(base, e, f, ell):
    # right to left, the other order from pow_mod's
    result, base = _school_rem([1], f, ell), _school_rem(base, f, ell)
    while e:
        if e & 1:
            result = _school_rem(_school_mul(result, base, ell), f, ell)
        base, e = _school_rem(_school_mul(base, base, ell), f, ell), e >> 1
    return tuple(result)


def _euclid_chain(quotients, g, ell):
    """a, b whose remainder sequence drops one degree a step, both times g."""
    a, b = [1], []
    for q in quotients:
        qa = _school_mul(q, a, ell)
        a, b = [(x + y) % ell for x, y in zip_longest(qa, b, fillvalue=0)], a
    return tuple(_school_mul(a, g, ell)), tuple(_school_mul(b, g, ell))


def _draw_poly(data, st, ell, max_degree, lead_one=False):
    tail = data.draw(st.lists(st.integers(0, ell - 1), max_size=max_degree))
    top = 1 if lead_one else data.draw(st.integers(1, ell - 1))
    return tuple(tail) + (top,)


def test_packed_gcd_and_powers_match_schoolbook():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(data=st.data(), ell=st.sampled_from(PACKED_ELLS))
    def check(data, ell):
        # a long degree-by-one remainder chain, so the tracked bound forces re-reduction
        quotients = [
            [data.draw(st.integers(0, ell - 1)), data.draw(st.integers(1, ell - 1))]
            for _ in range(data.draw(st.integers(0, 40)))
        ]
        g = _draw_poly(data, st, ell, 4)
        a, b = _euclid_chain(quotients, g, ell)
        assert gcd(a, b, ell) == gcd(b, a, ell) == _school_gcd(a, b, ell) == monic(g, ell)
        r = _draw_poly(data, st, ell, 30)
        assert gcd(r, a, ell) == _school_gcd(r, a, ell)
        for constant in ((data.draw(st.integers(1, ell - 1)),), ()):
            assert gcd(r, constant, ell) == _school_gcd(r, constant, ell)
            assert gcd(constant, r, ell) == _school_gcd(constant, r, ell)
        assert gcd((), (), ell) == ()
        f = _draw_poly(data, st, ell, 12, lead_one=True)
        e = data.draw(st.integers(0, 10**6) | st.just(ell) | st.just(ell**3))
        base = _draw_poly(data, st, ell, 15)
        assert pow_mod(X, e, f, ell) == _school_pow([0, 1], e, f, ell)
        assert pow_mod(base, e, f, ell) == _school_pow(list(base), e, f, ell)

    check()


def test_long_remainder_chains_reduce_their_slots(monkeypatch):
    unpacked = []
    real = gfpoly.unpack_mod

    def counted(a, n, w, ell):
        unpacked.append(n)
        return real(a, n, w, ell)

    monkeypatch.setattr(gfpoly, "unpack_mod", counted)
    rng = random.Random(47)
    for ell in (199, 2**61 - 1):
        quotients = [[rng.randrange(ell), rng.randrange(1, ell)] for _ in range(60)]
        a, b = _euclid_chain(quotients, [3, 1], ell)
        unpacked.clear()
        assert gcd(a, b, ell) == (3, 1)
        # two per re-reduction, then one for the answer
        assert len(unpacked) >= 3, ell
