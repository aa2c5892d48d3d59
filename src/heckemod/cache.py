"""Persistent store for exact Hecke characteristic polynomials.

Layout: one JSON-lines file per prime p (``p<p>.jsonl``) inside the
cache directory, one record per line with sorted keys and LF
terminators::

    {"coeffs": ["-20468736", "-1080", "1"], "k": 24, "p": 2}

Coefficients are canonical decimal strings, ascending by degree, so
records survive any JSON number-precision concerns and recomputation
reproduces them byte for byte.  A format string writes the line and one
regular expression reads it, with no json module and no int-string
limit.  A cache constructed with directory None memoizes in memory only.

Only that canonical line is accepted: any other line (other spacing or
key order, a number such as 24.0 or 024) is skipped on load, and so are
lines that name another p or are not monic of degree d = dim S_k.  On
the first `get` of (p, k), so are those whose two top coefficients
disagree with the trace formula: for x^d + c_(d-1) x^(d-1) +
c_(d-2) x^(d-2) + ..., trace(T_p) = -c_(d-1) and, since
T_p^2 = T_(p^2) + p^(k-1), trace(T_(p^2)) + p^(k-1) d =
c_(d-1)^2 - 2 c_(d-2).  A record that passes both is then compared,
every coefficient, with the Hecke kernel run mod KERNEL_CHECK_PRIME,
which catches a wrong low coefficient that the traces cannot see.
The last line left wins; with none, the polynomial is recomputed and
appended (on a fresh line after a torn tail) by a single write on an
O_APPEND descriptor.  Only `charpoly`, `certify` and the anchor of
`deduce` use the cache; tables work mod ell and never open it.
"""

from __future__ import annotations

import os
import re

from .errors import ComputationError
from .gfpoly import from_decimal, to_decimal
from .hecke import IntPoly, charpoly, dim_cusp
from .traceformula import trace

# the prime of the mod-ell kernel check on records read from disk
KERNEL_CHECK_PRIME = 1000003


class CharpolyCache:
    def __init__(self, directory=None):
        self.directory = directory
        self._mem = {}  # records that passed every check
        self._unchecked = {}  # (p, k) -> records from disk awaiting their checks
        self._loaded = set()
        self._torn = set()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, p: int) -> str:
        return os.path.join(self.directory, "p%d.jsonl" % p)

    def _load(self, p: int):
        if p in self._loaded or self.directory is None:
            return
        self._loaded.add(p)
        path = self._path(p)
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            text = fh.read()
        if text and not text.endswith("\n"):
            self._torn.add(p)
        for line in text.split("\n"):
            rec = _parse_record(line, p)
            if rec is not None:
                self._unchecked.setdefault(rec[0], []).append(rec[1])

    def get(self, p: int, k: int):
        self._load(p)
        for poly in reversed(self._unchecked.pop((p, k), ())):  # first read: last good line wins
            if _agrees_with_traces(p, k, poly) and _agrees_with_kernel(p, k, poly):
                self._mem[(p, k)] = poly
                break
        return self._mem.get((p, k))

    def put(self, p: int, k: int, poly: IntPoly):
        if self.get(p, k) is not None:
            return
        self._mem[(p, k)] = poly
        if self.directory is not None:
            data = (("\n" if p in self._torn else "") + record_line(p, k, poly)).encode("ascii")
            fd = os.open(self._path(p), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                written = os.write(fd, data)
            finally:
                os.close(fd)
            if written != len(data):
                self._torn.add(p)  # the file now ends inside this record
                raise ComputationError(
                    "cache write to %s stopped after %d of %d bytes"
                    % (self._path(p), written, len(data))
                )
            self._torn.discard(p)

    def charpoly(self, p: int, k: int) -> IntPoly:
        """Cached characteristic polynomial of T_p at weight k."""
        found = self.get(p, k)
        if found is None:
            found = charpoly(p, k)
            self.put(p, k, found)
        return found


def _agrees_with_traces(p: int, k: int, poly: IntPoly) -> bool:
    """The two top coefficients of `poly` against traces of T_p and T_(p^2)."""
    d, c = poly.degree, poly.coeffs
    if d == 0:
        return True
    if c[-2] != -trace(p, k):
        return False
    return d == 1 or c[-2] ** 2 - 2 * c[-3] == trace(p * p, k) + p ** (k - 1) * d


def _agrees_with_kernel(p: int, k: int, poly: IntPoly) -> bool:
    """Every coefficient of `poly` against T_p's charpoly mod KERNEL_CHECK_PRIME."""
    reduced = tuple(c % KERNEL_CHECK_PRIME for c in poly.coeffs)
    return reduced == charpoly(p, k, KERNEL_CHECK_PRIME).coeffs


# the one line `record_line` writes, which is json.dumps(record, sort_keys=True)
_INTEGER = r"(?:0|-?[1-9][0-9]*)"
_RECORD = re.compile(
    r'\{"coeffs": \[("%s"(?:, "%s")*)\], "k": (0|[1-9][0-9]*), "p": ([1-9][0-9]*)\}'
    % (_INTEGER, _INTEGER)
)


def _parse_record(line: str, p: int):
    """((p, k), IntPoly) for a canonical monic record of prime p and degree dim S_k, else None."""
    match = _RECORD.fullmatch(line)
    if match is None or match[3] != "%d" % p:
        return None
    k = from_decimal(match[2])
    coeffs = tuple(map(from_decimal, match[1][1:-1].split('", "')))
    d = dim_cusp(k)
    if len(coeffs) != d + 1 or coeffs[-1] != 1:
        return None
    return (p, k), IntPoly(coeffs)


def record_line(p: int, k: int, poly: IntPoly) -> str:
    coeffs = '", "'.join(map(to_decimal, poly.coeffs))
    return '{"coeffs": ["%s"], "k": %d, "p": %d}\n' % (coeffs, k, p)
