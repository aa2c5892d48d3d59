"""T_n over Z from T_2 by one fraction-free Krylov solve (see the `hecke` docstring).

`hecke` calls this module only on the integer path it chooses by
KRYLOV_FROM, so commands on the mod-ell kernel never compile it.
"""

from __future__ import annotations

import operator

from . import traceformula
from .errors import SpanViolation


def from_t2(n: int, k: int, a: tuple, w: list):
    """T_n from A = T_2 and w = (a_n of each basis element); None when K is singular.

    Solves K X = W for K_i = e_0 A^i and W_i = w A^i (i < d) by Bareiss
    elimination on [K | W]: row s ends holding minors of order s + 1, each
    division exact.  Back-substitution divides by the pivots alone, so an
    entry of X that is not an integer leaves a remainder, and raises
    SpanViolation; so does a trace of X other than the trace formula's.
    """
    d = len(a)
    cols, e = list(zip(*a)), [1] + [0] * (d - 1)
    rows = [e + w]
    for _ in range(d - 1):
        e = [sum(map(operator.mul, e, col)) for col in cols]
        w = [sum(map(operator.mul, w, col)) for col in cols]
        rows.append(e + w)
    prev = 1
    for s in range(d):
        pivot = next((r for r in range(s, d) if rows[r][s]), None)
        if pivot is None:  # T_2 has a repeated eigenvalue
            return None
        rows[s], rows[pivot] = rows[pivot], rows[s]
        top = rows[s]
        p = top[s]
        for r in range(s + 1, d):
            row, f = rows[r], rows[r][s]
            tail = [(p * x - f * y) // prev for x, y in zip(row[s + 1 :], top[s + 1 :])]
            rows[r] = [0] * (s + 1) + tail
        prev = p
    x = [None] * d
    for i in range(d - 1, -1, -1):
        row = rows[i]
        below = list(zip(*x[i + 1 :])) or [()] * d  # column c of X below row i
        quotients = [
            divmod(row[d + c] - sum(map(operator.mul, row[i + 1 : d], below[c])), row[i])
            for c in range(d)
        ]
        if any(r for _, r in quotients):
            raise SpanViolation("T_%d from T_2 at k=%d is not integral in row %d" % (n, k, i))
        x[i] = [q for q, _ in quotients]
    found, expected = sum(x[i][i] for i in range(d)), traceformula.trace(n, k)
    if found != expected:
        msg = "T_%d from T_2 at k=%d has trace %d, the trace formula %d"
        raise SpanViolation(msg % (n, k, found, expected))
    return tuple(map(tuple, x))
