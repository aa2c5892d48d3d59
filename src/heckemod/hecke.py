"""Hecke operators on level-1 cusp forms, with exact integer matrices.

The space of weight-k cusp forms for the full modular group has the
monomial basis delta^a E4^b E6^c, one triple per a = 1 .. dim, with
c in {0, 1} fixed by k mod 4 and b read off from the weight equation
12a + 4b + 6c = k.  The a-th basis element has q-expansion starting
q^a + O(q^(a+1)), so coordinates of any cusp form follow by
back-substitution and every Hecke matrix lands in the integers.

The action of T_n on coefficients at level 1 reads

    (T_n f)_m = sum over e | gcd(m, n) of e^(k-1) * f_(m n / e^2),

so building the matrix needs n * dim + 1 coefficients of each basis
element.  Characteristic polynomials come from the Berkowitz algorithm,
which stays inside integer arithmetic (no divisions at all).

Being division-free, the pipeline runs unchanged over Z/m: given an
optional `modulus`, each kernel function reduces every series product,
coordinate and Berkowitz intermediate mod it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import qseries
from .errors import InsufficientPrecision, SpanViolation
from .gfpoly import poly_str


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("use (0,) for the zero polynomial")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        return poly_str(self.coeffs)


def dim_cusp(k: int) -> int:
    """Dimension of the weight-k level-1 cusp space; 0 for odd or negative k.

    The number of monomials delta^a E4^b E6^c that `monomial_basis` lists.
    """
    return 0 if k % 2 else len(monomial_basis(k))


def monomial_basis(k: int) -> list:
    """Basis exponent triples (a, b, c), ordered by leading power a.

    The a-th expansion is q^a + O(q^(a+1)); see module docstring.
    Rejects odd k.
    """
    if k % 2:
        raise ValueError("weight must be even, got %d" % k)
    triples = []
    for a in range(1, max(k // 12, 0) + 1):
        rem = k - 12 * a
        if rem % 4 == 0:
            triples.append((a, rem // 4, 0))
        elif rem >= 6 and (rem - 6) % 4 == 0:
            triples.append((a, (rem - 6) // 4, 1))
    return triples


def _mod(x: int, modulus) -> int:
    return x if modulus is None else x % modulus


def basis_expansions(k: int, prec: int, modulus=None) -> list:
    """q-expansions of the monomial basis to `prec` coefficients, mod `modulus` if given."""
    triples = monomial_basis(k)
    if not triples:
        return []
    d = qseries.reduce(qseries.delta(prec), modulus)
    e4 = qseries.reduce(qseries.eisenstein4(prec), modulus)
    # c is fixed by k mod 4 and b drops by 3 per step in a, so the
    # E4^b E6^c factors come from the last one by repeated E4^3 products
    _, b_min, c = triples[-1]
    tail = qseries.power(e4, b_min, modulus)
    if c:
        tail = qseries.mul(tail, qseries.reduce(qseries.eisenstein6(prec), modulus), modulus)
    e4_cubed = qseries.mul(qseries.mul(e4, e4, modulus), e4, modulus)
    tails = [tail]
    for _ in triples[1:]:
        tails.append(qseries.mul(tails[-1], e4_cubed, modulus))
    out = []
    for i, tail in enumerate(reversed(tails)):
        dpow = qseries.mul(dpow, d, modulus) if i else d
        out.append(qseries.mul(dpow, tail, modulus) if triples[i][1] or c else dpow)
    return out


def hecke_action(f: qseries.QExpansion, n: int, k: int, out_prec: int) -> qseries.QExpansion:
    """T_n applied to a weight-k expansion, truncated to out_prec coefficients.

    Needs f.prec > n * (out_prec - 1); shorter input raises
    InsufficientPrecision rather than silently truncating.
    """
    if n < 1:
        raise ValueError("Hecke index must be >= 1")
    needed = n * (out_prec - 1) + 1
    if f.prec < needed:
        raise InsufficientPrecision(
            "T_%d to %d coefficients needs %d input coefficients, have %d"
            % (n, out_prec, needed, f.prec)
        )
    out = []
    for m in range(out_prec):
        g = math.gcd(m, n)
        acc = 0
        for e in range(1, g + 1):
            if g % e == 0:
                acc += e ** (k - 1) * f.coeffs[m * n // (e * e)]
        out.append(acc)
    return qseries.QExpansion(tuple(out))


def hecke_matrix(n: int, k: int, modulus=None) -> tuple:
    """Matrix of T_n on the monomial basis, rows/columns 0-indexed.

    Entry [i][j] is the coefficient of basis element i in T_n applied
    to basis element j; with a modulus, entries are reduced mod it.
    Returns () when the space is trivial.
    """
    if n < 1:
        raise ValueError("Hecke index must be >= 1")
    if k % 2:
        raise ValueError("weight must be even, got %d" % k)
    d = dim_cusp(k)
    if d == 0:
        return ()
    basis = basis_expansions(k, n * d + 1, modulus)
    rows = [[0] * d for _ in range(d)]
    for j in range(d):
        image = [_mod(c, modulus) for c in hecke_action(basis[j], n, k, d + 1).coeffs]
        # basis element i leads with q^(i+1), so peel coordinates upward
        for i in range(d):
            coord = _mod(image[i + 1], modulus)
            rows[i][j] = coord
            if coord:
                for m in range(i + 1, d + 1):
                    image[m] -= coord * basis[i].coeffs[m]
        if any(_mod(image[m], modulus) for m in range(d + 1)):
            raise SpanViolation(
                "T_%d image of basis element %d not in the span at k=%d" % (n, j, k)
            )
    return tuple(tuple(r) for r in rows)


def berkowitz_charpoly(matrix, modulus=None) -> IntPoly:
    """det(xI - A) for a square integer matrix, division-free.

    Berkowitz iterates over principal minors: the characteristic vector
    of each minor is a lower-triangular Toeplitz product of the previous
    one, realized here as a short convolution.  Empty matrix gives the
    constant 1.  With a modulus, every intermediate is reduced mod it
    and so are the returned coefficients.
    """

    n = len(matrix)
    if n == 0:
        return IntPoly((1,))
    a = matrix
    v = [1, _mod(-a[n - 1][n - 1], modulus)]  # descending coefficients, bottom-right minor
    for s in range(2, n + 1):
        i0 = n - s
        row = a[i0][i0 + 1 :]
        col = [a[r][i0] for r in range(i0 + 1, n)]
        m = s - 1
        t = [1, _mod(-a[i0][i0], modulus)]
        w = list(col)
        for step in range(m):
            t.append(_mod(-sum(row[j] * w[j] for j in range(m)), modulus))
            if step < m - 1:
                w = [
                    _mod(sum(a[i0 + 1 + r][i0 + 1 + j] * w[j] for j in range(m)), modulus)
                    for r in range(m)
                ]
        # v_new = conv(t, v) truncated to length s + 1
        nv = []
        for i in range(s + 1):
            acc = 0
            for j in range(max(0, i - len(v) + 1), min(i, s) + 1):
                acc += t[j] * v[i - j]
            nv.append(_mod(acc, modulus))
        v = nv
    return IntPoly(tuple(reversed(v)))


def charpoly(n: int, k: int, modulus=None) -> IntPoly:
    """Characteristic polynomial of T_n on weight-k cusp forms.

    Monic of degree dim S_k; the constant polynomial 1 when the space
    is trivial.  With a modulus, the coefficients are reduced mod it.
    """
    return berkowitz_charpoly(hecke_matrix(n, k, modulus), modulus)


def trace_of_matrix(matrix) -> int:
    return sum(matrix[i][i] for i in range(len(matrix)))
