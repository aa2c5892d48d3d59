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
    `_kron`'s signed slots (Kronecker substitution), or two of half width
    for large operands, and the first prec slots are read back;
  * the Eisenstein series are normalized to constant term 1.

Generators supplied here: E4 = 1 + 240 sum sigma_3(n) q^n,
E6 = 1 - 504 sum sigma_5(n) q^n, and the discriminant cusp form
delta = q prod (1-q^n)^24, the eighth power of Jacobi's prod (1-q^n)^3 =
sum (-1)^m (2m+1) q^(m(m+1)/2), rather than (E4^3 - E6^2)/1728 so that
the two routes stay independent checks of each other.
"""

from __future__ import annotations

from ._kron import product
from ._primes import divisor_power_sums
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
    return expansion(product(a.coeffs, b.coeffs, min(a.prec, b.prec)), modulus)


def eisenstein4(prec: int) -> QExpansion:
    return QExpansion((1, *[240 * s for s in divisor_power_sums(prec, 3)[1:]]))


def eisenstein6(prec: int) -> QExpansion:
    return QExpansion((1, *[-504 * s for s in divisor_power_sums(prec, 5)[1:]]))


def delta(prec: int) -> QExpansion:
    """The weight-12 cusp form q prod (1-q^n)^24, tau coefficients."""
    jacobi = {m * (m + 1) // 2: (-1) ** m * (2 * m + 1) for m in range(prec)}
    eta = QExpansion(tuple(jacobi.get(t, 0) for t in range(prec)))  # prod (1-q^n)^3
    for _ in range(3):  # squared three times: prod (1-q^n)^24
        eta = mul(eta, eta)
    return QExpansion((0,) + eta.coeffs[:-1])
