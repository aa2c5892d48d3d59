import random

import pytest

from heckemod import qseries
from heckemod._primes import divisor_power_sums
from heckemod.qseries import QExpansion, delta, eisenstein4, eisenstein6, mul


def add(a, b, sign=1):
    return QExpansion(tuple(x + sign * y for x, y in zip(a.coeffs, b.coeffs)))


def naive_mul(a, b, prec):
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        for j, y in enumerate(b[: prec - i]):
            out[i + j] += x * y
    return out


def naive_delta(prec):
    # q * prod (1 - q^n)^24 multiplied out term by term
    f = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        for _ in range(24):
            f = [f[i] - (f[i - n] if i >= n else 0) for i in range(prec)]
    return [0] + f[: prec - 1]


def test_delta_matches_naive_product():
    assert list(delta(30).coeffs) == naive_delta(30)


def test_tau_values():
    d = delta(13).coeffs
    assert d[0] == 0 and d[1] == 1
    assert d[2] == -24
    assert d[3] == 252
    assert d[4] == -1472
    assert d[5] == 4830
    assert d[7] == -16744
    # multiplicativity and the p^2 recursion at p = 2
    assert d[6] == d[2] * d[3]
    assert d[4] == d[2] ** 2 - 2 ** 11
    assert d[12] == d[3] * d[4]


def test_sigma_against_brute_force():
    for e in (1, 3, 5):
        want = [sum(d**e for d in range(1, n + 1) if n % d == 0) for n in range(60)]
        assert divisor_power_sums(60, e) == want
        assert divisor_power_sums(1, e) == [0] and divisor_power_sums(0, e) == []


def test_eisenstein_leading_coefficients():
    e4 = eisenstein4(4).coeffs
    e6 = eisenstein6(4).coeffs
    assert e4 == (1, 240, 2160, 6720)
    assert e6 == (1, -504, -16632, -122976)


def test_discriminant_identity():
    # E4^3 - E6^2 = 1728 delta, with delta built from the eta product; at
    # prec 200 the last squaring in delta is two half-width products
    for prec in (24, 200):
        e4 = eisenstein4(prec)
        e6 = eisenstein6(prec)
        lhs = add(mul(mul(e4, e4), e4), mul(e6, e6), -1)
        assert lhs.coeffs == tuple(1728 * c for c in delta(prec).coeffs)


def test_delta_times_e4_prefix():
    prod = mul(delta(3), eisenstein4(3))
    assert prod.coeffs == (0, 1, 216)


def test_ring_laws_on_random_series():
    rng = random.Random(7)
    for _ in range(40):
        prec = rng.randint(1, 12)
        a = QExpansion(tuple(rng.randint(-9, 9) for _ in range(prec)))
        b = QExpansion(tuple(rng.randint(-9, 9) for _ in range(prec)))
        c = QExpansion(tuple(rng.randint(-9, 9) for _ in range(prec)))
        assert mul(a, b).coeffs == mul(b, a).coeffs
        assert mul(a, add(b, c)).coeffs == add(mul(a, b), mul(a, c)).coeffs
        assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs
        assert tuple(naive_mul(list(a.coeffs), list(b.coeffs), prec)) == mul(a, b).coeffs
        for m in (2, 5, 7, 13):
            assert mul(a, b, m).coeffs == tuple(x % m for x in mul(a, b).coeffs)


def random_series(rng, length, bits):
    return QExpansion(tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(length)))


def assert_matches_schoolbook(a, b):
    want = naive_mul(a.coeffs, b.coeffs, min(a.prec, b.prec))
    assert mul(a, b).coeffs == tuple(want)
    for m in (2, 5, 7, 13):
        assert mul(a, b, m).coeffs == tuple(x % m for x in want)


def test_product_matches_schoolbook_on_random_series():
    rng = random.Random(20240)
    for _ in range(150):
        # mismatched lengths 1..80, signed coefficients up to 2^256
        a = random_series(rng, rng.randint(1, 80), rng.choice((0, 1, 7, 8, 64, 256)))
        b = random_series(rng, rng.randint(1, 80), rng.choice((0, 1, 7, 8, 64, 256)))
        assert_matches_schoolbook(a, b)
        assert_matches_schoolbook(a, a)


def test_product_with_zero_operands():
    rng = random.Random(5)
    for length in (1, 2, 17, 80):
        zero = QExpansion((0,) * length)
        big = random_series(rng, length, 256)
        assert_matches_schoolbook(zero, zero)
        assert_matches_schoolbook(zero, big)
        assert_matches_schoolbook(big, zero)


def test_product_coefficients_at_the_slot_bound():
    # |x_i| = |y_j| = 2^m - 1 with constant signs makes the q^(prec-1)
    # coefficient exactly prec (2^m - 1)^2, the bound the slots are sized from
    for m in (1, 2, 3, 4, 7, 8, 9, 31, 32, 64, 256):
        top = (1 << m) - 1
        for length in (1, 2, 3, 7, 16, 80):
            for signs in ((1,), (-1,), (1, -1)):
                a = QExpansion(tuple(signs[i % len(signs)] * top for i in range(length)))
                for sign in (1, -1):
                    assert_matches_schoolbook(a, QExpansion((sign * top,) * length))


def test_truncation_and_mixed_precision():
    a = QExpansion((1, 2, 3, 4, 5))
    b = QExpansion((1, 1))
    assert mul(a, b).prec == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        QExpansion(())


def test_delta_minimal_precision():
    assert delta(1).coeffs == (0,)
    assert delta(2).coeffs == (0, 1)
