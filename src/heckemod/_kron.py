"""Kronecker substitution: a polynomial packed into one int, a slot per coefficient.

Coefficient i sits in slot i, bits [w i, w (i + 1)), for a width w that
`width` sizes from a bound on the slots.  Packed sums, multiples and
products are then those of the polynomials (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 8) under one invariant, which every caller
keeps through that bound: each slot stays in [0, 2^w), so nothing
carries into the next slot and nothing borrows from it.  Callers that
step through single slots shift by w i themselves.  `product` works over
Z in signed slots, c + 2^(w - 1) for |c| < 2^(w - 1), and splits large
products in two of half the width (Harvey, J. Symbolic Comput. 44, 2009).
"""

import sys
from array import array

# slot width -> array type code: word-sized slots are packed and read a
# word at a time, on little-endian hosts; other slots go through bytes
_WORDS = {array(code).itemsize * 8: code for code in "BHILQ" if sys.byteorder == "little"}


def width(bound: int) -> int:
    """Bits per slot for slots in [0, bound]: the narrowest of _WORDS, else whole bytes."""
    bits = max(bound.bit_length(), 1)
    return next((w for w in sorted(_WORDS) if w >= bits), -(-bits // 8) * 8)


def pack(coeffs, w: int) -> int:
    """A sequence of coefficients in [0, 2^w) packed into one int."""
    if w in _WORDS:
        return int.from_bytes(array(_WORDS[w], coeffs), "little")
    return int.from_bytes(b"".join([c.to_bytes(w // 8, "little") for c in coeffs]), "little")


def unpack(a: int, n: int, w: int):
    """Slots 0 .. n - 1 of packed a, a sequence of ints."""
    nb = w // 8
    raw = (a & ((1 << w * n) - 1)).to_bytes(nb * n, "little")
    if w in _WORDS:
        return array(_WORDS[w], raw)
    return [int.from_bytes(raw[i : i + nb], "little") for i in range(0, nb * n, nb)]


def unpack_mod(a: int, n: int, w: int, ell: int) -> list:
    """Slots 0 .. n - 1 of packed a, each reduced mod ell."""
    return [x % ell for x in unpack(a, n, w)]


# `product` splits from this many bits per packed operand on.  Best of 25 on a 2-vCPU Xeon, CPython
# 3.11, random signed operands: two half-width products cost 1.45x one at 640 bits, 1.0x at 4 kbit,
# 0.89x at 8 kbit and 0.67x at 1.6 Mbit.
SPLIT_BITS = 8192


def _pack_signed(coeffs, w: int) -> int:
    """sum c_i 2^(w i), packed through slots that hold c_i + 2^(w - 1)."""
    half = 1 << w - 1
    halves = int.from_bytes(half.to_bytes(w // 8, "little") * len(coeffs), "little")
    return pack([c + half for c in coeffs], w) - halves


def _unpack_signed(a: int, n: int, w: int) -> list:
    """Slots 0 .. n - 1 of a = sum c_i 2^(w i): the c_i."""
    half = 1 << w - 1
    halves = int.from_bytes(half.to_bytes(w // 8, "little") * n, "little")
    return [x - half for x in unpack(a + halves, n, w)]


def product(x, y, n: int) -> list:
    """The first n coefficients of x y over Z, for nonempty sequences of ints x and y.

    Every operand and product coefficient has |c| <= n max(1, max|x|) max(1, max|y|).  From SPLIT_BITS
    on, with b = w / 2, x(+-2^b) = E +- O 2^b for E, O its even and odd coefficients packed, and h = x y
    has its even and odd ones packed in (h(2^b) + h(-2^b)) / 2 and (h(2^b) - h(-2^b)) / 2^(b + 1).
    """
    square, x, y = y is x, x[:n], y[:n]
    w = width(2 * n * max(1, *map(abs, x)) * max(1, *map(abs, y)))
    if n * w < SPLIT_BITS:
        px = _pack_signed(x, w)
        return _unpack_signed(px * (px if square else _pack_signed(y, w)), n, w)
    b = w // 2
    ex, ox = _pack_signed(x[::2], w), _pack_signed(x[1::2], w) << b
    ey, oy = (ex, ox) if square else (_pack_signed(y[::2], w), _pack_signed(y[1::2], w) << b)
    xp, xm = ex + ox, ex - ox  # x(2^b), x(-2^b)
    yp, ym = (xp, xm) if square else (ey + oy, ey - oy)  # y is x: the same ints, so squares
    plus, minus = xp * yp, xm * ym
    out = [0] * n
    out[::2] = _unpack_signed(plus + minus >> 1, (n + 1) // 2, w)
    out[1::2] = _unpack_signed(plus - minus >> b + 1, n // 2, w)
    return out
