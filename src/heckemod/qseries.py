"""Truncated q-expansions with coefficients in Z or Z/m.

A QExpansion holds the first `prec` coefficients a_0 .. a_{prec-1} of a
formal power series sum a_m q^m.  Coefficients are arbitrary-precision
Python ints; nothing in this package ever goes through floats.

Conventions:
  * coeffs is a nonempty tuple (index m = exponent of q^m) and prec is
    its length;
  * products truncate to the smaller precision of the operands and,
    given a modulus, reduce every coefficient mod it, which is all the
    level-1 pipeline needs to run over Z/m (it never divides);
  * a product is one big-integer multiplication of the operands in
    `_kron`'s signed slots (Kronecker substitution), wide enough for any
    product coefficient, and the first prec slots are read back;
  * the Eisenstein series are normalized to constant term 1.

Generators supplied here: E4 = 1 + 240 sum sigma_3(n) q^n,
E6 = 1 - 504 sum sigma_5(n) q^n, and the discriminant cusp form
delta = q prod (1-q^n)^24, expanded through the pentagonal number
theorem rather than as (E4^3 - E6^2)/1728 so that the two routes stay
independent checks of each other.
"""

from __future__ import annotations

from ._kron import pack_signed, unpack_signed, width
from ._primes import divisor_power_sum
from ._record import record


@record
class QExpansion:
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a q-expansion needs at least one coefficient")

    @property
    def prec(self) -> int:
        return len(self.coeffs)


def expansion(coeffs, modulus=None) -> QExpansion:
    """The QExpansion of `coeffs`, each reduced mod `modulus` if given."""
    if modulus is not None:
        coeffs = [c % modulus for c in coeffs]
    return QExpansion(tuple(coeffs))


def reduce(a: QExpansion, modulus=None) -> QExpansion:
    """a with every coefficient reduced mod `modulus`; a itself when modulus is None."""
    return a if modulus is None else expansion(a.coeffs, modulus)


def mul(a: QExpansion, b: QExpansion, modulus=None) -> QExpansion:
    """Product truncated to min(a.prec, b.prec), reduced mod `modulus` if given."""
    prec = min(a.prec, b.prec)
    x, y = a.coeffs[:prec], b.coeffs[:prec]
    # with A = max(1, max|x|) and B = max(1, max|y|), every operand and
    # product coefficient has |c| <= prec A B
    w = width(2 * prec * max(1, *map(abs, x)) * max(1, *map(abs, y)))
    px = pack_signed(x, w)
    product = px * (px if y is x else pack_signed(y, w))
    return reduce(QExpansion(tuple(unpack_signed(product, prec, w))), modulus)


def power(a: QExpansion, e: int, modulus=None) -> QExpansion:
    """a**e by repeated squaring, reduced mod `modulus` if given; e = 0 gives 1."""
    if e < 0:
        raise ValueError("negative exponent")
    result = reduce(QExpansion((1,) + (0,) * (a.prec - 1)), modulus)
    base = a
    while e:
        if e & 1:
            result = mul(result, base, modulus)
        e >>= 1
        if e:
            base = mul(base, base, modulus)
    return result


def eisenstein4(prec: int) -> QExpansion:
    return QExpansion(tuple([1] + [240 * divisor_power_sum(n, 3) for n in range(1, prec)]))


def eisenstein6(prec: int) -> QExpansion:
    return QExpansion(tuple([1] + [-504 * divisor_power_sum(n, 5) for n in range(1, prec)]))


def _eta_quotientless(prec: int) -> list:
    # prod_{n>=1} (1 - q^n) via Euler's pentagonal number theorem:
    # exponents m(3m -+ 1)/2 carry sign (-1)^m.
    out = [0] * prec
    out[0] = 1
    m = 1
    while m * (3 * m - 1) // 2 < prec:
        sign = -1 if m % 2 else 1
        for g in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if g < prec:
                out[g] += sign
        m += 1
    return out


def delta(prec: int) -> QExpansion:
    """The weight-12 cusp form q prod (1-q^n)^24, tau coefficients."""
    if prec == 1:
        return QExpansion((0,))
    eta = QExpansion(tuple(_eta_quotientless(prec - 1)))
    eta24 = power(eta, 24)
    return QExpansion((0,) + eta24.coeffs)
