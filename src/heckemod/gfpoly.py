"""Dense univariate polynomial arithmetic and factorization over F_ell.

Representation: a polynomial is a plain tuple of coefficients ascending
by degree, each in [0, ell), with no trailing zeros; the zero polynomial
is the empty tuple.  Every function takes the modulus ell, which must be
prime.  The public entries that take outside input (reduce_mod, factor,
roots) reduce it and check ell once; the arithmetic helpers trust their
caller to pass canonical tuples.

Products, powers and gcds run on operands packed by `_kron`, w bits a
coefficient.  gcd is a remainder-only Euclid that reduces slots mod ell only when a tracked
bound would pass 2^(w - 2); pow_mod reads the exponent left to right,
so x^ell mod f is a squaring per bit and a one-slot shift per set bit.
quo_rem and divide_exact, one or two steps a call, stay on lists.

Factorization runs distinct-degree splitting, then equal-degree
splitting (Cantor-Zassenhaus), and reads each irreducible's
multiplicity off repeated division of the running cofactor.  Repeated
factors leave only by exact division: the distinct-degree stage divides
out every copy of the degree-d factors before degree d + 1, so no
squarefree decomposition is needed.  That stage reads Frobenius off the
Berlekamp Q-matrix of f, whose row i is x^(ell i) mod f: since
h^ell = sum h_i x^(ell i) over F_ell, the step x^(ell^d) -> x^(ell^(d+1))
mod f is one vector-matrix product h Q (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 8 and 14).  The equal-degree stage draws
its random elements from a generator seeded explicitly (default seed
0), and the ell = 2 branch replaces the quadratic-residue test with the
additive trace map t + t^2 + ... + t^(2^(d-1)), walking t over
odd-degree monomials, so results are reproducible bit for bit.  Factors
are reported in a canonical order: by degree, then lexicographically on
the ascending coefficient tuple.
"""

from __future__ import annotations

import random
from itertools import zip_longest

from ._kron import pack, unpack_mod, width
from ._primes import poly_str, require_prime
from ._record import record
from .errors import ComputationError

X = (0, 1)


class InexactDivision(ComputationError):
    """Exact polynomial division left a nonzero remainder (attached)."""

    def __init__(self, remainder):
        super().__init__("division left remainder %s" % poly_str(remainder))
        self.remainder = remainder


def _trim(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _reduce(f, ell) -> tuple:
    return _trim([c % ell for c in f])


def reduce_mod(f, ell: int) -> tuple:
    """Reduce integer coefficients, ascending by degree, mod a prime ell."""
    require_prime(ell, "modulus")
    return _reduce(f, ell)


# -- arithmetic helpers: canonical tuples in, canonical tuples out ----------


def add(a, b, ell: int) -> tuple:
    return _trim([(x + y) % ell for x, y in zip_longest(a, b, fillvalue=0)])


def sub(a, b, ell: int) -> tuple:
    return _trim([(x - y) % ell for x, y in zip_longest(a, b, fillvalue=0)])


def mul(a, b, ell: int) -> tuple:
    n = len(a) + len(b) - 1
    w = width(n * ell * ell)  # a slot sums at most n products of residues
    # over a field the leading product is nonzero, so nothing to trim
    return tuple(unpack_mod(pack(a, w) * pack(b, w), n, w, ell)) if a and b else ()


def quo_rem(a, b, ell: int):
    """(quotient, remainder) of a by nonzero b; a may hold unreduced integers."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    inv = pow(b[-1], -1, ell)
    r = list(a)
    q = [0] * max(len(r) - n, 0)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] * inv % ell
        if c:
            q[i - n] = c
            s = i - n
            r[s:i] = [x - c * y for x, y in zip(r[s:i], b)]
    return _trim(q), _trim([x % ell for x in r[:n]])


def monic(a, ell: int) -> tuple:
    if not a:
        raise ValueError("zero polynomial has no monic form")
    if a[-1] == 1:
        return a
    inv = pow(a[-1], -1, ell)
    return tuple(c * inv % ell for c in a)


def derivative(a, ell: int) -> tuple:
    return _trim([i * c % ell for i, c in enumerate(a)][1:])


def _packed_rem(a: int, top: int, b: int, db: int, ell: int, w: int) -> int:
    """Remainder of packed a (slots 0 .. top) by packed b of degree db; slots unreduced.

    Step i adds the multiple of b that makes slot i divisible by ell.
    The slots of a above top and of b above db must be divisible by ell
    too, so (a >> w i) % ell is slot i mod ell, unmasked.  The caller
    keeps a's slot bound plus (top - db + 1) (ell - 1) times b's below
    2^(w - 2), which keeps every slot below 2^w.
    """
    inv = pow(b >> w * db, -1, ell)
    for i in range(top, db - 1, -1):
        c = (a >> w * i) * inv % ell
        if c:
            a += (ell - c) * (b << w * (i - db))
    return a & ((1 << w * db) - 1)


def gcd(a, b, ell: int) -> tuple:
    """Monic greatest common divisor, by remainder-only Euclid on packed operands."""
    if not b:
        return monic(a, ell) if a else a
    n = max(len(a), len(b))
    # room for a division of reduced operands, and bits(2 ell) per later one up to 128
    w = width(2 * (n + 1) * ell * ell << min(n * (2 * ell).bit_length(), 128))
    pa, da, ba = pack(a, w), len(a) - 1, ell - 1  # ba, bb: bounds on the slots in use
    pb, db, bb = pack(b, w), len(b) - 1, ell - 1
    while True:
        steps = max(da - db + 1, 0)
        if ba + steps * (ell - 1) * bb >= 1 << (w - 2):
            pa, pb = pack(unpack_mod(pa, da + 1, w, ell), w), pack(unpack_mod(pb, db + 1, w, ell), w)
            ba = bb = ell - 1
        r = _packed_rem(pa, da, pb, db, ell, w)
        dr = db - 1  # the top slots of r may be nonzero multiples of ell
        while dr >= 0 and not (r >> w * dr) % ell:
            dr -= 1
        if dr < 0:
            return monic(tuple(unpack_mod(pb, db + 1, w, ell)), ell)
        pa, da, ba, pb, db, bb = pb, db, bb, r, dr, ba + steps * (ell - 1) * bb


def pow_mod(base, e: int, mod, ell: int) -> tuple:
    """base**e reduced mod `mod` of degree n >= 1, left to right over the bits of e.

    Slots stay below 2 n (ell - 1)^2.  A set bit shifts the square by one
    slot when base is x, else costs one more packed product and remainder.
    """
    if e < 0:
        raise ValueError("negative exponent")
    n = len(mod) - 1
    w = width(8 * (n + 1) * ell * ell)  # _packed_rem's slots stay below 2^(w - 2)
    pm, h = pack(mod, w), [1]
    base = quo_rem(base, mod, ell)[1]
    shift, pb = (w if base == X else 0), pack(base, w)
    for bit in bin(e)[2:]:
        square = pack(h, w) ** 2 << (shift if bit == "1" else 0)
        h = unpack_mod(_packed_rem(square, 2 * n - 1, pm, n, ell, w), n, w, ell)
        if bit == "1" and not shift:
            h = unpack_mod(_packed_rem(pack(h, w) * pb, 2 * n - 2, pm, n, ell, w), n, w, ell)
    return _trim(h)


def divide_exact(a, b, ell: int) -> tuple:
    """Quotient a / b when b divides a; raises InexactDivision otherwise."""
    q, r = quo_rem(a, b, ell)
    if r:
        raise InexactDivision(r)
    return q


@record
class FactorMultiset:
    """Complete factorization over F_ell: unit * prod g_i^(m_i)."""

    modulus: int
    unit: int
    factors: tuple  # ((coefficient tuple, multiplicity), ...) in canonical order


class FrobeniusMatrix:
    """Berlekamp Q-matrix of monic f over F_ell, given xq = x^ell mod f.

    Row i is x^(ell i) mod f for i < deg f, so h^ell mod f is the row
    vector h times Q.  Each row is one packed int, so that product costs
    deg f multiply-adds and one unpack.  Row i + 1 is row i times xq: a
    packed product and remainder.
    """

    def __init__(self, f, ell: int, xq):
        n = self.n = len(f) - 1
        w = self.width = width(8 * (n + 1) * ell * ell)  # as in pow_mod
        self.ell, pf, pxq = ell, pack(f, w), pack(xq, w)
        self.rows = [1][:n]
        while len(self.rows) < n:
            row = _packed_rem(self.rows[-1] * pxq, 2 * n - 2, pf, n, ell, w)
            self.rows.append(pack(unpack_mod(row, n, w, ell), w))

    def frobenius(self, h) -> tuple:
        """h^ell mod f, for h already reduced mod f."""
        acc = 0
        for c, row in zip(h, self.rows):
            acc += c * row
        return _trim(unpack_mod(acc, self.n, self.width, self.ell))


def _distinct_degree(f, ell: int, squarefree: bool = False):
    """Split monic reduced f into (product of its distinct irreducibles of degree d, d).

    Each irreducible appears once, whatever its multiplicity in f: all
    copies of the degree-d factors are divided out before degree d + 1.
    """
    pieces = []
    v = f
    d = 0
    while len(v) > 1:
        d += 1
        if 2 * d >= len(v):  # every factor of v left has degree deg v
            pieces.append((v, len(v) - 1))
            break
        if d == 1:
            h = pow_mod(X, ell, f, ell)
        else:
            if d == 2:
                q = FrobeniusMatrix(f, ell, h)
            h = q.frobenius(h)
        g = gcd(v, sub(h, X, ell), ell)
        if len(g) > 1:
            pieces.append((g, d))
        while len(g) > 1:  # strip every copy of the degree-d factors; squarefree f has one
            v = divide_exact(v, g, ell)
            g = (1,) if squarefree else gcd(v, g, ell)
    return pieces


def _equal_degree(f, d: int, rng: random.Random, ell: int):
    """Cantor-Zassenhaus split of monic squarefree f, all factors degree d."""
    if len(f) - 1 == d:
        return [f]
    count = (len(f) - 1) // d
    factors = [f]
    if ell == 2:
        # additive trace map; t walks the odd-degree monomials x, x^3, x^5, ...
        t = X
        while len(factors) < count:
            r = quo_rem(t, f, 2)[1]
            h = r
            for _ in range(d - 1):
                r = pow_mod(r, 2, f, 2)
                h = add(h, r, 2)
            t = (0, 0) + t
            factors = _refine(factors, h, d, 2)
        return factors
    exponent = (ell ** d - 1) // 2
    while len(factors) < count:
        r = _trim([rng.randrange(ell) for _ in range(2 * d)])
        if len(r) < 2:
            continue
        h = sub(pow_mod(r, exponent, f, ell), (1,), ell)
        factors = _refine(factors, h, d, ell)
    return factors


def _refine(factors, h, d, ell):
    out = []
    for g in factors:
        if len(g) - 1 == d:
            out.append(g)
            continue
        u = gcd(g, quo_rem(h, g, ell)[1], ell)
        if 1 < len(u) < len(g):
            out.append(u)
            out.append(divide_exact(g, u, ell))
        else:
            out.append(g)
    return out


def _factor(f, ell: int, seed: int) -> FactorMultiset:
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    found = []
    rest = monic(f, ell)
    for piece, d in _distinct_degree(rest, ell):
        for irr in _equal_degree(piece, d, rng, ell):
            mult = 0
            q, r = quo_rem(rest, irr, ell)
            while not r:
                rest, mult = q, mult + 1
                q, r = quo_rem(rest, irr, ell)
            found.append((irr, mult))
    found.sort(key=lambda gm: (len(gm[0]), gm[0]))
    return FactorMultiset(ell, f[-1], tuple(found))


def factor(f, ell: int, seed: int = 0) -> FactorMultiset:
    """Complete factorization mod ell into monic irreducibles with multiplicity.

    f is reduced mod ell first; the zero polynomial is rejected.  The
    unit is the leading coefficient, so unit * prod(factors) reproduces
    the reduction exactly.  The factor list is sorted by (degree,
    coefficient tuple); the seed only steers the internal splitting
    order, never the result.
    """
    require_prime(ell, "modulus")
    return _factor(_reduce(f, ell), ell, seed)


def roots(f, ell: int, seed: int = 0) -> tuple:
    """All roots of f mod ell, each repeated to its multiplicity, ascending.

    The total count equals deg f exactly when f splits completely.
    """
    require_prime(ell, "modulus")
    f = _reduce(f, ell)
    if not f:
        raise ValueError("zero polynomial has every residue as a root")
    out = []
    for g, m in _factor(f, ell, seed).factors:
        if len(g) == 2:
            out.extend([(-g[0]) % ell] * m)
    return tuple(sorted(out))
