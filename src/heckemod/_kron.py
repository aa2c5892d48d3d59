"""Kronecker substitution: a polynomial packed into one int, a slot per coefficient.

Coefficient i sits in slot i, bits [w i, w (i + 1)), for a width w that
`width` sizes from a bound on the slots.  Packed sums, multiples and
products are then those of the polynomials (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 8) under one invariant, which every caller
keeps through that bound: each slot stays in [0, 2^w), so nothing
carries into the next slot and nothing borrows from it.  The signed
form, for products over Z, holds c + 2^(w - 1) in a slot, so it takes
|c| < 2^(w - 1): size it with width(2 max |c|).  Callers that step
through single slots shift by w i themselves.
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


def pack_signed(coeffs, w: int) -> int:
    """sum c_i 2^(w i), packed through slots that hold c_i + 2^(w - 1)."""
    half = 1 << w - 1
    halves = int.from_bytes(half.to_bytes(w // 8, "little") * len(coeffs), "little")
    return pack([c + half for c in coeffs], w) - halves


def unpack_signed(a: int, n: int, w: int) -> list:
    """Slots 0 .. n - 1 of a = sum c_i 2^(w i): the c_i."""
    half = 1 << w - 1
    halves = int.from_bytes(half.to_bytes(w // 8, "little") * n, "little")
    return [x - half for x in unpack(a + halves, n, w)]
