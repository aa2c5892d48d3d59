"""Dense univariate polynomial arithmetic and factorization over F_p.

Representation: coefficients ascending by degree, reduced to canonical
residues in [0, p), with no trailing zeros; the zero polynomial is the
empty tuple.  The modulus p must be prime.

Factorization runs squarefree decomposition, then distinct-degree
splitting through iterated Frobenius maps x -> x^p, then equal-degree
splitting (Cantor-Zassenhaus).  The equal-degree stage draws its random
elements from a generator seeded explicitly (default seed 0), and the
p = 2 branch replaces the quadratic-residue test with the additive
trace map t + t^2 + ... + t^(2^(d-1)), walking t over odd-degree
monomials, so results are reproducible bit for bit.  Factors are
reported in a canonical order: by degree, then lexicographically on the
ascending coefficient tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._primes import is_prime
from .errors import ComputationError


class InexactDivision(ComputationError):
    """Exact polynomial division left a nonzero remainder (attached)."""

    def __init__(self, remainder):
        super().__init__("division left remainder %s" % (remainder,))
        self.remainder = remainder


def poly_str(coeffs) -> str:
    """Human-readable polynomial text, highest degree first."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        else:
            xpart = "x" if d == 1 else "x^%d" % d
            body = xpart if abs(c) == 1 else "%d%s" % (abs(c), xpart)
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


class FpPoly:
    """Polynomial over F_p, p prime; immutable once constructed."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        if p < 2 or not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("FpPoly is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return "FpPoly(%d, %r)" % (self.p, list(self.coeffs))

    def __str__(self):
        return poly_str(self.coeffs)

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed moduli %d and %d" % (self.p, other.p))

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FpPoly(self.p, out)

    def __neg__(self) -> "FpPoly":
        return FpPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero or other.is_zero:
            return FpPoly(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "FpPoly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = pow(other.coeffs[-1], p - 2, p)
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                q = (c * inv_lead) % p
                quot[i - db] = q
                for j, b in enumerate(other.coeffs):
                    rem[i - db + j] -= q * b
        return FpPoly(p, quot), FpPoly(p, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def monic(self) -> "FpPoly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = pow(lead, self.p - 2, self.p)
        return FpPoly(self.p, [c * inv for c in self.coeffs])


def x_poly(p: int) -> FpPoly:
    return FpPoly(p, (0, 1))


def reduce_mod(f, ell: int) -> FpPoly:
    """Reduce an integer-coefficient polynomial mod a prime ell.

    Accepts either a bare coefficient sequence (ascending) or any
    object exposing ascending integer coefficients as `.coeffs`.
    """
    coeffs = getattr(f, "coeffs", f)
    return FpPoly(ell, coeffs)


def gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def pow_mod(base: FpPoly, e: int, mod: FpPoly) -> FpPoly:
    """base**e reduced mod `mod`, by square and multiply."""
    if e < 0:
        raise ValueError("negative exponent")
    result = FpPoly(base.p, (1,))
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        e >>= 1
        if e:
            base = (base * base) % mod
    return result


def divide_exact(a: FpPoly, b: FpPoly) -> FpPoly:
    """Quotient a / b when b divides a; raises InexactDivision otherwise."""
    q, r = divmod(a, b)
    if not r.is_zero:
        raise InexactDivision(r)
    return q


@dataclass(frozen=True)
class FactorMultiset:
    """Complete factorization over F_p: unit * prod g_i^(m_i)."""

    modulus: int
    unit: int
    factors: tuple  # ((FpPoly, multiplicity), ...) in canonical order

    def expand(self) -> FpPoly:
        out = FpPoly(self.modulus, (self.unit,))
        for g, m in self.factors:
            for _ in range(m):
                out = out * g
        return out

    def degrees(self) -> tuple:
        """Multiset of factor degrees with multiplicity, ascending."""
        out = []
        for g, m in self.factors:
            out.extend([g.degree] * m)
        return tuple(sorted(out))

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)


def _pth_root(f: FpPoly) -> FpPoly:
    # f is a p-th power, so only exponents divisible by p occur and
    # Frobenius is the identity on the prime field.
    p = f.p
    out = [0] * (f.degree // p + 1)
    for i, c in enumerate(f.coeffs):
        if c:
            if i % p:
                raise ArithmeticError("not a p-th power: %r" % (f,))
            out[i // p] = c
    return FpPoly(p, out)


def _squarefree_parts(f: FpPoly):
    """Yun-style decomposition of monic f into coprime squarefree parts.

    Returns [(g, multiplicity), ...]; the product of g**multiplicity
    recovers f.  Multiplicities divisible by p are pulled out through
    p-th roots.
    """
    p = f.p
    if f.degree < 1:
        return []
    df = f.derivative()
    if df.is_zero:
        return [(g, m * p) for g, m in _squarefree_parts(_pth_root(f))]
    parts = []
    c = gcd(f, df)
    w = f // c
    i = 1
    while w.degree >= 1:
        y = gcd(w, c)
        z = w // y
        if z.degree >= 1:
            parts.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree >= 1:
        parts.extend((g, m * p) for g, m in _squarefree_parts(_pth_root(c)))
    return parts


def distinct_degree(f: FpPoly):
    """Split squarefree monic f into (product of irreducibles of degree d, d)."""
    p = f.p
    x = x_poly(p)
    pieces = []
    h = x
    v = f
    d = 0
    while v.degree >= 1:
        d += 1
        if 2 * d > v.degree:
            pieces.append((v, v.degree))
            break
        h = pow_mod(h, p, f)
        g = gcd(v, h - x)
        if g.degree >= 1:
            pieces.append((g, d))
            v = v // g
    return pieces


def _equal_degree(f: FpPoly, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of monic squarefree f, all factors degree d."""
    p = f.p
    if f.degree == d:
        return [f]
    count = f.degree // d
    factors = [f]
    if p == 2:
        # additive trace map; t walks the odd-degree monomials x, x^3, x^5, ...
        t = x_poly(2)
        while len(factors) < count:
            r = t % f
            h = r
            for _ in range(d - 1):
                r = (r * r) % f
                h = h + r
            t = FpPoly(2, (0, 0) + t.coeffs)
            factors = _refine(factors, h, d)
        return factors
    exponent = (p ** d - 1) // 2
    while len(factors) < count:
        r = FpPoly(p, [rng.randrange(p) for _ in range(2 * d)])
        if r.degree < 1:
            continue
        h = pow_mod(r, exponent, f) - FpPoly(p, (1,))
        factors = _refine(factors, h, d)
    return factors


def _refine(factors, h, d):
    out = []
    for g in factors:
        if g.degree == d:
            out.append(g)
            continue
        u = gcd(g, h % g)
        if 0 < u.degree < g.degree:
            out.append(u)
            out.append(g // u)
        else:
            out.append(g)
    return out


def factor(f: FpPoly, seed: int = 0) -> FactorMultiset:
    """Complete factorization into monic irreducibles with multiplicity.

    The zero polynomial is rejected.  The unit is the leading
    coefficient, so unit * prod(factors) reproduces the input exactly.
    The factor list is sorted by (degree, coefficient tuple); the seed
    only steers the internal splitting order, never the result.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.coeffs[-1]
    rng = random.Random(seed)
    found = []
    for part, mult in _squarefree_parts(f.monic()):
        for piece, d in distinct_degree(part):
            for irr in _equal_degree(piece, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return FactorMultiset(f.p, unit, tuple(found))


def roots(f: FpPoly, seed: int = 0) -> tuple:
    """All roots in F_p, each repeated to its multiplicity, ascending.

    The total count equals deg f exactly when f splits completely.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has every residue as a root")
    out = []
    for g, m in factor(f, seed=seed).factors:
        if g.degree == 1:
            out.extend([(-g.coeffs[0]) % f.p] * m)
    return tuple(sorted(out))
