import math
import random
from fractions import Fraction

import pytest

from heckemod import traceformula
from heckemod.cli import main
from heckemod.errors import NonIntegralTrace
from heckemod.hecke import charpoly, dim_cusp, hecke_matrix
from heckemod.traceformula import _hurwitz12, _terms24, trace, traces


def weight_poly(k: int, t: int, n: int) -> int:
    """U_(k-1)(t, n) from U_0 = 0, U_1 = 1, U_j = t U_(j-1) - n U_(j-2), one weight at a time.

    The reference the multi-weight recursion of `_terms24` is checked
    against.  For t^2 = 4n this degenerates to (k-1) (t/2)^(k-2).
    """
    if k < 2:
        raise ValueError("weight must be >= 2")
    u_prev, u = 0, 1
    for _ in range(k - 2):
        u_prev, u = u, t * u - n * u_prev
    return u


def hurwitz_class_number(n):
    """H(n) from the integer 12 H(n) that the trace formula sums."""
    return Fraction(_hurwitz12(n), 12)


def hurwitz_oracle(n):
    # count reduced forms ax^2 + bxy + cy^2 of discriminant -n with the
    # textbook reduction condition -a < b <= a <= c (b >= 0 when a = c),
    # weighting multiples of x^2 + y^2 by 1/2 and of x^2 + xy + y^2 by 1/3
    if n == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    a = 1
    while a * a <= n:
        for b in range(-a + 1, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
        a += 1
    return total


def test_hurwitz_against_reduced_form_oracle():
    for n in range(0, 1001):
        assert hurwitz_class_number(n) == hurwitz_oracle(n)


def test_hurwitz_against_oracle_up_to_trace_oracle_scale():
    # 4 * 97^2 is the largest argument the trace of T_(97^2) reads
    rng = random.Random(97)
    for n in [4 * 97 * 97] + [rng.randint(1001, 4 * 97 * 97) for _ in range(49)]:
        assert hurwitz_class_number(n) == hurwitz_oracle(n)


def test_hurwitz_spot_values():
    h = hurwitz_class_number
    assert h(0) == Fraction(-1, 12)
    assert h(1) == 0 and h(2) == 0 and h(5) == 0
    assert h(3) == Fraction(1, 3)
    assert h(4) == Fraction(1, 2)
    assert h(7) == 1
    assert h(8) == 1
    assert h(11) == 1
    assert h(12) == Fraction(4, 3)
    assert h(15) == 2
    assert h(16) == Fraction(3, 2)
    assert h(20) == 2
    assert h(23) == 3
    assert h(27) == Fraction(4, 3)


def test_weight_poly_recursion():
    assert weight_poly(2, 9, 4) == 1
    assert weight_poly(3, 9, 4) == 9
    assert weight_poly(4, 3, 2) == 3 * 3 - 2
    # degenerate t^2 = 4n case collapses to (k-1)(t/2)^(k-2)
    for k in (4, 6, 8, 12):
        assert weight_poly(k, 2, 1) == (k - 1)
        assert weight_poly(k, 4, 4) == (k - 1) * 2 ** (k - 2)
    with pytest.raises(ValueError):
        weight_poly(1, 2, 3)


def test_trace_known_values():
    assert trace(2, 12) == -24
    assert trace(3, 12) == 252
    assert trace(5, 12) == 4830
    assert trace(2, 16) == 216
    assert trace(2, 18) == -528
    assert trace(2, 20) == 456
    assert trace(2, 22) == -288
    assert trace(2, 26) == -48
    assert trace(2, 24) == 1080


def test_trace_of_identity_is_dimension():
    for k in range(4, 62, 2):
        assert trace(1, k) == dim_cusp(k)


def test_trace_zero_below_weight_twelve():
    for k in (4, 6, 8, 10):
        for n in (1, 2, 3, 10):
            assert trace(n, k) == 0


def trace_of_matrix(matrix):
    return sum(matrix[i][i] for i in range(len(matrix)))


def test_trace_matches_matrices_sample():
    for n in (2, 3, 6, 12, 25):
        for k in (12, 24, 38):
            assert trace(n, k) == trace_of_matrix(hecke_matrix(n, k))


def test_trace_of_square_against_charpoly_at_benchmark_scale():
    # T_p^2 = T_(p^2) + p^(k-1) on S_k, so for the charpoly
    # x^d + c_(d-1) x^(d-1) + c_(d-2) x^(d-2) + ... of T_p,
    # trace(T_(p^2)) + p^(k-1) d = c_(d-1)^2 - 2 c_(d-2)
    for p, k in ((53, 72), (97, 60)):
        c = charpoly(p, k)
        d = len(c) - 1
        assert trace(p, k) == -c[d - 1]
        assert trace(p * p, k) + p ** (k - 1) * d == c[d - 1] ** 2 - 2 * c[d - 2]


def full_trace_terms(n, k):
    # the formula as written: t runs over -tmax..tmax and d over all divisors
    tmax = math.isqrt(4 * n)
    elliptic = sum(
        (weight_poly(k, t, n) * hurwitz_class_number(4 * n - t * t) for t in range(-tmax, tmax + 1)),
        Fraction(0),
    )
    hyperbolic = sum(min(d, n // d) ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    return -elliptic / 2, Fraction(-hyperbolic, 2)


def test_trace_terms_match_the_full_sum_with_one_class_number_per_t(monkeypatch):
    weights = (4, 12, 24, 50)
    arguments = []
    counted = traceformula._hurwitz12

    def counting(m):
        arguments.append(m)
        return counted(m)

    monkeypatch.setattr(traceformula, "_hurwitz12", counting)
    for n in list(range(1, 31)) + [49, 64, 97, 100]:
        arguments.clear()
        terms = _terms24(n, (50, 12, 4, 24, 12))  # in any order, repeats once
        assert list(terms) == sorted(weights)
        for k in weights:
            assert tuple(Fraction(x, 24) for x in terms[k]) == full_trace_terms(n, k), (n, k)
        # one class number per t, for all the weights together
        assert len(arguments) == math.isqrt(4 * n) + 1
        assert len(set(arguments)) == len(arguments)


def test_traces_at_many_weights_are_the_traces_one_at_a_time():
    weights = range(4, 204, 2)
    for n in (1, 2, 3, 4, 9, 11, 19, 29, 97, 841):
        assert traces(n, weights) == {k: trace(n, k) for k in weights}, n
    assert traces(2, ()) == {}
    with pytest.raises(ValueError):
        traces(2, (24, 13))


def test_trace_is_the_full_sum():
    for n in list(range(1, 41)) + [841, 2809]:
        for k in (4, 12, 24, 50, 96):
            assert trace(n, k) == sum(full_trace_terms(n, k))


@pytest.mark.parametrize("error", [1, 2])
def test_a_wrong_class_number_is_a_non_integral_trace(monkeypatch, capsys, error):
    # 12 H(7) off by `error` moves 24 * trace by -2 U_23(1, 2) * error
    expected = Fraction(24 * trace(2, 24) - 2 * weight_poly(24, 1, 2) * error, 24)
    assert expected.denominator > 1
    counted = traceformula._hurwitz12
    monkeypatch.setattr(traceformula, "_hurwitz12", lambda m: counted(m) + (error if m == 7 else 0))
    with pytest.raises(NonIntegralTrace) as exc:
        trace(2, 24)
    assert str(exc.value) == "trace formula gave %s for n=2 k=24" % expected
    assert main(["trace", "--n", "2", "--weight", "24"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "falsification: trace formula gave %s for n=2 k=24\n" % expected


def test_trace_input_validation():
    with pytest.raises(ValueError):
        trace(0, 12)
    with pytest.raises(ValueError):
        trace(2, 13)
    with pytest.raises(ValueError):
        trace(2, -2)
    assert trace(2, 2) == trace(2, 0) == 0  # S_2 and S_0 are zero
