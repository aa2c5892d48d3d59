"""Hecke operators on level-1 cusp forms, over Z or Z/ell.

The space of weight-k cusp forms for the full modular group has the
monomial basis delta^a E4^b E6^c, one triple per a = 1 .. dim, with
c in {0, 1} fixed by k mod 4 and b read off from the weight equation
12a + 4b + 6c = k.  The a-th basis element has q-expansion starting
q^a + O(q^(a+1)), so coordinates of any cusp form follow by
back-substitution and every Hecke matrix lands in the integers.

The action of T_n on coefficients at level 1 reads

    (T_n f)_m = sum over e | gcd(m, n) of e^(k-1) * f_(m n / e^2),

so a Hecke matrix reads each basis element only at 0 .. dim and at the
exponents m n / e^2, m <= dim.  Over Z each read is one dot product of
delta^a with E4^b E6^c: at large n the coefficients run to kilobits and
a matrix reads a small share of them.  Over Z/ell one table of those
factors per ell serves the process (`_factors`), each factor packed once by
`_kron`, and each basis element is one product of its two packed
factors cut to the n dim + 1 coefficients that T_n reads.

Over F_ell the weights e^(k-1) are reduced before they multiply, each
image once, and the rest runs on packed ints too: back-substitution
packs each basis row and each image, so a coordinate is one slot read
mod ell and peeling it one multiply-add, and Hessenberg reduction packs
each column (see `hessenberg_charpoly`).  Over Z, back-substitution is
exact and the charpoly comes from the division-free Berkowitz algorithm.

Over Z, T_n for n > 2 comes from A = T_2 and one coefficient of each
basis element (`_krylov`).  Let lambda(f) = a_1(f), the first
coordinate, since basis element i leads with q^(i+1).  A normalized
eigenform has a_1 = 1, so lambda is nonzero on every eigenvector, and
lambda(T_n f) = a_n(f).  T_n commutes with A, so the Krylov rows
K_i = lambda A^i and W_i = w A^i, w = (a_n of each basis element), satisfy
K T_n = W, and when K is invertible (A has distinct eigenvalues) T_n =
K^-1 W.  Three checks go with the solve: a singular K is no theorem
failure and falls back to the images; a T_n that is not integral, or whose
trace differs from the Eichler-Selberg trace, raises SpanViolation.  The
trace check is needed because an error in w alone leaves the solve
integral: the Hecke algebra over Z is dual to the integral cusp forms
under (T, f) -> a_1(T f), so every integer row u is the first row of some
integral Hecke matrix T, and w + u gives T_n + T.  The integrality check
is for a T_2 that is no Hecke matrix.
"""

from __future__ import annotations

import functools
import operator

from . import _krylov, qseries
from ._kron import pack, unpack, unpack_mod, width
from ._primes import require_prime
from .errors import InsufficientPrecision, SpanViolation


def dim_cusp(k: int) -> int:
    """Dimension of the weight-k level-1 cusp space; 0 for odd or negative k.

    The number of monomials delta^a E4^b E6^c that `monomial_basis` lists.
    """
    return 0 if k % 2 or k < 0 else max(k // 12 - (k % 12 == 2), 0)


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


class _Factors:
    """delta^a and the tail chains E4^(b0 + 3j) E6^c (b0 < 3, c < 2), mod `modulus`.

    All hold `prec` coefficients and grow on demand.  Truncated products
    are prefix-consistent, so a longer table gives the same coefficients.
    Mod ell each factor is built and packed on its first read, in slots
    wide enough for prec (ell - 1)^2, so one product of two is a basis element.
    A factor that is the series 1 (E4 mod 5, E6 mod 7) is never multiplied:
    its products are the other factor, and a basis element over a tail of 1
    is delta^a's slots.
    """

    def __init__(self, prec: int, modulus):
        self.prec, self.modulus = prec, modulus
        self._one = qseries.expansion((1,) + (0,) * (prec - 1), modulus)
        e4 = qseries.reduce(qseries.eisenstein4(prec), modulus)
        self._e4_powers = [self._one, e4, self._mul(e4, e4)]  # E4^(b % 3), the chain heads
        self._e4_cubed = self._mul(self._e4_powers[2], e4)
        self._deltas = [qseries.reduce(qseries.delta(prec), modulus)]
        self._tails = {(0, 0): [self._one, self._e4_cubed]}  # 1, E4^3
        self._packed = {}  # ("delta", a) or ("tail", b, c) -> packed factor
        if modulus is not None:
            self._width = width(prec * (modulus - 1) ** 2)

    def _mul(self, f, g) -> qseries.QExpansion:
        one = self._one
        return g if f == one else f if g == one else qseries.mul(f, g, self.modulus)

    def _delta(self, a: int) -> tuple:
        deltas = self._deltas
        while len(deltas) < a:
            deltas.append(qseries.mul(deltas[-1], deltas[0], self.modulus))
        return deltas[a - 1].coeffs

    @functools.cached_property
    def _e6(self) -> qseries.QExpansion:
        return qseries.reduce(qseries.eisenstein6(self.prec), self.modulus)

    def _tail(self, b: int, c: int) -> tuple:
        chain = self._tails.get((b % 3, c))
        if chain is None:
            head = self._e4_powers[b % 3]
            chain = self._tails[b % 3, c] = [self._mul(head, self._e6) if c else head]
        while len(chain) <= b // 3:
            chain.append(self._mul(chain[-1], self._e4_cubed))
        return chain[b // 3].coeffs

    def _pack(self, key, build, *args) -> int:
        packed = self._packed.get(key)
        if packed is None:
            packed = self._packed[key] = pack(build(*args), self._width)
        return packed

    def read(self, a: int, b: int, c: int, top: int, exponents=None):
        """delta^a E4^b E6^c through q^top.

        Mod ell, values congruent to the coefficients at 0 .. top: the
        slots of one product of the packed factors, cut there.  Over Z, a
        dict of one dot product per t in `exponents`, each t <= top.
        """
        if top >= self.prec:
            raise InsufficientPrecision("q^%d is beyond a table of %d terms" % (top, self.prec))
        if self.modulus is None:  # delta^a starts at q^a, so t < a reads no products
            delta, tail = self._delta(a), self._tail(b, c)
            return {t: sum(map(operator.mul, delta[a : t + 1], tail[t - a :: -1])) for t in exponents}
        cut = (1 << self._width * (top + 1)) - 1
        delta = self._pack(("delta", a), self._delta, a) & cut
        tail = self._pack(("tail", b, c), self._tail, b, c) & cut
        return unpack(delta if tail == 1 else delta * tail, top + 1, self._width)


# One table per modulus for the process.  It doubles when a request
# outgrows it, and gives way to one of the request's size when it holds
# more than 4 max(prec, 128) coefficients: after a long request
# (charpoly_mod(1999, 120, 5) reads 19,991 coefficients) a short one
# builds its powers at its own size.  Over Z, with kilobit coefficients,
# none is kept.
_SHARED = {}


def _factors(prec: int, modulus) -> _Factors:
    if modulus is None:
        return _Factors(prec, None)
    table = _SHARED.get(modulus)
    if table is None or table.prec < prec:
        table = _SHARED[modulus] = _Factors(max(prec, 2 * table.prec if table else 0), modulus)
    elif table.prec > 4 * max(prec, 128):
        table = _SHARED[modulus] = _Factors(prec, modulus)
    return table


def basis_expansions(k: int, prec: int, modulus=None) -> list:
    """q-expansions of the monomial basis to `prec` coefficients, mod `modulus` if given."""
    table = _factors(prec, modulus)
    reads = [table.read(a, b, c, prec - 1, range(prec)) for a, b, c in monomial_basis(k)]
    expansions = [qseries.QExpansion(tuple(f[t] for t in range(prec))) for f in reads]
    return [qseries.reduce(f, modulus) for f in expansions]


@functools.lru_cache(maxsize=1)  # reused only within one hecke_matrix call
def _weighted_reads(n: int, k: int, out_prec: int, modulus=None) -> tuple:
    """(m, e^(k-1) mod `modulus`, m n / e^2) for m < out_prec and 1 < e | gcd(m, n).

    These are what (T_n f)_m reads of f past f_(m n).
    """
    weights = [(e, pow(e, k - 1, modulus)) for e in range(2, n + 1) if n % e == 0]
    return tuple((m, w, m * n // (e * e)) for e, w in weights for m in range(0, out_prec, e))


def hecke_action(coeffs, n: int, k: int, out_prec: int, modulus=None) -> qseries.QExpansion:
    """T_n applied to a weight-k expansion, to out_prec coefficients mod `modulus` if given.

    `coeffs` maps exponents to coefficients (a sequence or a dict); lacking
    one that T_n reads raises InsufficientPrecision, never truncates.
    """
    if n < 1:
        raise ValueError("Hecke index must be >= 1")
    try:
        out = [coeffs[t] for t in range(0, n * out_prec, n)]
        for m, w, t in _weighted_reads(n, k, out_prec, modulus):
            out[m] += w * coeffs[t]
    except (IndexError, KeyError):
        msg = "T_%d to %d coefficients needs coefficients up to q^%d"
        raise InsufficientPrecision(msg % (n, out_prec, n * (out_prec - 1))) from None
    return qseries.expansion(out, modulus)


# Over Z, hecke_matrix builds T_n (n > 2, d = dim S_k > 1) from T_2 by one
# Krylov solve once n >= KRYLOV_FROM d^2.5.  The smallest n at which the solve
# beat the images, in process on a 2-vCPU Xeon, CPython 3.11, best of 3 below
# d = 20: d = 3: 11, 4: 7, 5: 5, 6 to 10: 4, 12: 5, 15: 9, 20: 17, 25: 29,
# 33: between 53 and 97.  Below d = 8 both take under 1.5 ms.  At the ends:
# (3, 240) 0.25 s against 0.012 s, (29, 400) 23 s against 4.8 s, (97, 240)
# 0.33 s against 5.7 s, (97, 400) 24 s against 51 s, (997, 120) 0.39 s
# against 20.7 s.
KRYLOV_FROM = 0.01


def hecke_matrix(n: int, k: int, modulus=None) -> tuple:
    """Matrix of T_n on the monomial basis, rows/columns 0-indexed.

    Entry [i][j] is the coefficient of basis element i in T_n applied
    to basis element j; with a modulus, entries are reduced mod it.
    Returns () when the space is trivial.  Over Z, from KRYLOV_FROM on,
    T_n comes from T_2 (see `_krylov`), else from the images.

    The span check first requires basis element i to be
    q^(i+1) + O(q^(i+2)), once per matrix.  Then peeling its coordinate
    off zeroes slot i + 1 and leaves slot 0 alone, so slots 1 .. d end at
    zero by construction and are never read, and the check reads the
    constant term of each image.  T_n f has constant term
    sigma_(k-1)(n) f_0 = 0 for a cusp form f, so the check fails only on
    a planted or corrupted factor table.
    """
    if n < 1:
        raise ValueError("Hecke index must be >= 1")
    if k % 2:
        raise ValueError("weight must be even, got %d" % k)
    d = dim_cusp(k)
    if d == 0:
        return ()
    if modulus is None and n > 2 and d > 1 and n >= KRYLOV_FROM * d**2.5:
        table = _Factors(max(n, 2 * d) + 1, None)
        w = [table.read(*abc, n, (n,))[n] for abc in monomial_basis(k)]
        matrix = _krylov.from_t2(n, k, _direct_matrix(2, k, table), w)
        if matrix is not None:
            return matrix
    return _direct_matrix(n, k, _factors(n * d + 1, modulus), modulus)


def _direct_matrix(n: int, k: int, table: _Factors, modulus=None) -> tuple:
    """T_n from the images of the basis elements, read from `table` (see hecke_matrix)."""
    d = dim_cusp(k)
    exponents = None  # mod ell, every coefficient up to q^(n d) comes from one product
    if modulus is None:  # over Z, one dot product per coefficient that T_n reads
        exponents = {t for _, _, t in _weighted_reads(n, k, d + 1, modulus)}
        exponents.update(range(d + 1), range(0, n * (d + 1), n))
    # the back-substitution rows come from the same reads as the images
    elements = [table.read(a, b, c, n * d, exponents) for a, b, c in monomial_basis(k)]
    for i, f in enumerate(elements):  # peeling below relies on these leads
        lead = [f[t] if modulus is None else f[t] % modulus for t in range(i + 2)]
        if lead != [0] * (i + 1) + [1]:
            raise SpanViolation("basis element %d at k=%d does not lead with q^%d" % (i, k, i + 1))
    if modulus is None:
        basis = [[f[t] for t in range(d + 1)] for f in elements]
    else:  # packed from the leading slot on; slots stay below modulus + d modulus (modulus - 1)
        w = width((d + 1) * modulus * modulus)
        mask = (1 << w) - 1
        basis = [pack([x % modulus for x in f[i + 1 : d + 1]], w) for i, f in enumerate(elements)]
    columns = []
    for j, f in enumerate(elements):
        image = hecke_action(f, n, k, d + 1, modulus).coeffs
        if image[0]:
            raise SpanViolation("T_%d image of basis element %d not in the span at k=%d" % (n, j, k))
        # basis element i leads with q^(i+1), so peel coordinates upward
        column = []
        if modulus is None:
            image = list(image)
            for i, row in enumerate(basis):
                coord = image[i + 1]
                if coord:
                    image[i + 1 :] = [x - coord * y for x, y in zip(image[i + 1 :], row[i + 1 :])]
                column.append(coord)
        else:  # a coordinate is the low slot, read mod ell; peeling zeroes it and shifts it out
            image = pack(image, w) >> w
            for row in basis:
                coord = (image & mask) % modulus
                if coord:
                    image += (modulus - coord) * row
                image >>= w
                column.append(coord)
        columns.append(column)
    return tuple(zip(*columns))


def berkowitz_charpoly(matrix) -> tuple:
    """det(xI - A) for a square integer matrix, division-free.

    Berkowitz iterates over principal minors: the characteristic vector
    of each minor is a lower-triangular Toeplitz product of the previous
    one, realized here as a short convolution.  Empty matrix gives the
    constant 1.
    """

    n = len(matrix)
    if n == 0:
        return (1,)
    a = matrix
    v = [1, -a[n - 1][n - 1]]  # descending coefficients, bottom-right minor
    for s in range(2, n + 1):
        i0 = n - s
        row = a[i0][i0 + 1 :]
        m = s - 1
        t = [1, -a[i0][i0]]
        w = [a[r][i0] for r in range(i0 + 1, n)]
        for step in range(m):
            t.append(-sum(row[j] * w[j] for j in range(m)))
            if step < m - 1:
                w = [sum(a[i0 + 1 + r][i0 + 1 + j] * w[j] for j in range(m)) for r in range(m)]
        # v_new = conv(t, v) truncated to length s + 1
        v = [
            sum(t[j] * v[i - j] for j in range(max(0, i - len(v) + 1), min(i, s) + 1))
            for i in range(s + 1)
        ]
    return tuple(reversed(v))


def hessenberg_charpoly(matrix, ell: int) -> tuple:
    """det(xI - A) over F_ell for a prime ell, coefficients in [0, ell).

    Upper Hessenberg form H by similarity, then the charpolys p_m of the
    leading blocks of H: p_(m+1) = x p_m - sum_(i<=m) H[i][m] H[i+1][i]
    ... H[m][m-1] p_i.  O(d^3) (Cohen, GTM 138, Alg. 2.2.9).

    Each column of H is one packed int, read mod ell.  At step m the row
    operations R_i -= u_i R_m (i > m) are C += (ell - C[m]) U per column,
    U packing the u_i, and the column operation is C_m += sum u_i C_i.
    Slot bound: a column with only row operations stays below (m + 1) ell^2
    after step m; only such columns are summed into the step-m target, so
    it reaches n ell times that, and row operations add (ell - 1)^2 a step:
    every slot stays below n^2 ell^3.  The packed p_m are reduced once each.
    """
    n = len(matrix)
    w = width(n * n * ell**3)
    mask = (1 << w) - 1
    cols = [pack([x % ell for x in col], w) for col in zip(*matrix)]
    for m in range(1, n - 1):
        below = unpack_mod(cols[m - 1] >> w * m, n - m, w, ell)  # rows m .. n - 1
        if not below[0]:  # swap rows m and m + pivot, then the same columns
            pivot = next((i for i, x in enumerate(below) if x), None)
            if pivot is None:  # column m - 1 is already zero below the subdiagonal
                continue
            swap = (1 << w * m) - (1 << w * (m + pivot))
            for c in range(m - 1, n):  # the columns before hold zeros in both rows
                col = cols[c]
                cols[c] = col + ((col >> w * (m + pivot) & mask) - (col >> w * m & mask)) * swap
            cols[m], cols[m + pivot] = cols[m + pivot], cols[m]
            below[0], below[pivot] = below[pivot], below[0]
        inv = pow(below[0], -1, ell)
        us = [x * inv % ell for x in below[1:]]  # u_i for rows m + 1 .. n - 1
        lift = pack(us, w) << w * (m + 1)
        for c in range(m, n):  # in the columns before, row m is zero
            x = (cols[c] >> w * m & mask) % ell
            if x:
                cols[c] += (ell - x) * lift
        cols[m - 1] &= (1 << w * (m + 1)) - 1  # what the row operations cleared
        cols[m] += sum(map(operator.mul, us, cols[m + 1 :]))
    sub = [0] + [(cols[i - 1] >> w * i & mask) % ell for i in range(1, n)]  # H[i][i-1]
    p = [1]  # packed, ascending coefficients
    for m, col in enumerate(cols):
        nxt, t = p[m] << w, 1
        for i in range(m, -1, -1):
            c = (col >> w * i & mask) * t % ell
            if c:
                nxt += (ell - c) * p[i]
            t = t * sub[i] % ell
            if not t:
                break
        p.append(pack(unpack_mod(nxt, m + 2, w, ell), w))
    return tuple(unpack_mod(p[n], n + 1, w, ell))


def charpoly(n: int, k: int, modulus=None) -> tuple:
    """Characteristic polynomial of T_n on weight-k cusp forms.

    Coefficients ascending by degree, monic of degree dim S_k; (1,) when
    the space is trivial.  With a prime modulus, the coefficients are reduced mod it.
    """
    if modulus is not None:
        require_prime(modulus, "modulus")
    matrix = hecke_matrix(n, k, modulus)
    return berkowitz_charpoly(matrix) if modulus is None else hessenberg_charpoly(matrix, modulus)
