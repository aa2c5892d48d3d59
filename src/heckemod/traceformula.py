"""Eichler-Selberg trace of T_n on level-1 cusp forms, in exact integers.

For even k >= 4 and n >= 1 the trace equals

    -1/2 * sum over t^2 <= 4n of P_(k-1)(t, n) * H(4n - t^2)
    -1/2 * sum over d d' = n of min(d, d')^(k-1)

where P_(k-1) is the degree-(k-2) Gegenbauer-style polynomial defined
by the recursion U_0 = 0, U_1 = 1, U_j = t U_(j-1) - n U_(j-2), and H
is the Hurwitz class number with the convention H(0) = -1/12 (which
absorbs the boundary term t^2 = 4n when n is a perfect square).

H(n) is counted as the integer 12 H(n) by divisor enumeration: a reduced
form (a, b, c) of discriminant -n with b >= 0 has b = n (mod 2),
3 b^2 <= n and a c = (b^2 + n)/4 with b <= a <= c, so for each such b
the loop keeps the a up to sqrt((b^2 + n)/4) that divide (b^2 + n)/4.

`traces(n, weights)` gives the traces of one T_n at many weights.  The
class numbers do not depend on k, so each is counted once, and one run
of the recursion per t passes U_(k-1) for every weight on its way up;
`trace(n, k)` is its one-weight case.  The root walks of `modfactor`
check every weight of a class against it.

Everything is summed as the integer 24 * trace; a total that 24 does
not divide is raised as a falsification, never rounded.  This module
deliberately shares no code with the Hecke-matrix path so the two can
check each other.
"""

from __future__ import annotations

import math

from ._primes import divisors
from .errors import NonIntegralTrace


def _hurwitz12(n: int) -> int:
    """12 H(n) for n >= 0, an integer: -1 at n = 0 and even elsewhere."""
    if n == 0:
        return -1
    if n % 4 in (1, 2):
        return 0
    total = 0
    for b in range(n % 2, math.isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if a == b == c:
                total += 4
            elif b == 0 and a == c:
                total += 6
            elif b == 0 or b == a or a == c:
                total += 12  # (a, -b, c) is not reduced, or is (a, b, c)
            else:
                total += 24  # (a, b, c) and (a, -b, c)
    return total


def _terms24(n: int, weights) -> dict:
    """k -> 24 times the elliptic and the hyperbolic part of the trace, as
    integers, for even weights k >= 4.

    Each class number is counted once for all the weights, and one
    recursion per t passes U_(k-1) for every k on its way up.
    """
    if n < 1:
        raise ValueError("Hecke index must be >= 1")
    ks = sorted(set(weights))
    elliptic = dict.fromkeys(ks, 0)
    # for even k both factors are even in t, so -t repeats the term of t
    for t in range(math.isqrt(4 * n) + 1):
        h = _hurwitz12(4 * n - t * t) * (2 if t else 1)
        if not h:
            continue
        u_prev, u, j = 0, 1, 1  # U_(j-1), U_j
        for k in ks:
            for _ in range(k - 1 - j):
                u_prev, u = u, t * u - n * u_prev
            j = k - 1
            elliptic[k] += u * h
    divs = [min(d, n // d) for d in divisors(n)]
    return {k: (-elliptic[k], -12 * sum(m ** (k - 1) for m in divs)) for k in ks}


def traces(n: int, weights) -> dict:
    """k -> exact trace of T_n on the weight-k cusp space, for every k in `weights`."""
    for k in weights:
        if k < 0 or k % 2:
            raise ValueError("weight must be a nonnegative even integer, got %d" % k)
    out = {k: 0 for k in weights if k < 4}  # S_0 and S_2 are zero
    for k, (elliptic, hyperbolic) in _terms24(n, [k for k in weights if k >= 4]).items():
        total = elliptic + hyperbolic
        if total % 24:
            g = math.gcd(total, 24)
            raise NonIntegralTrace(
                "trace formula gave %d/%d for n=%d k=%d" % (total // g, 24 // g, n, k)
            )
        out[k] = total // 24
    return out


def trace(n: int, k: int) -> int:
    """Exact trace of T_n on the weight-k cusp space."""
    return traces(n, (k,))[k]
