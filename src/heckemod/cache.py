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

Only that canonical line is accepted.  The first `get` of (p, k) parses
only the lines that end in its `"k": K, "p": P}` tail.  Of those it skips
any that is not canonical (other spacing or key order, a number such as
24.0 or 024), names another p or is not monic of degree d = dim S_k, and
any whose two top coefficients disagree with the trace formula: for
x^d + c_(d-1) x^(d-1) + c_(d-2) x^(d-2) + ..., trace(T_p) = -c_(d-1)
and, since T_p^2 = T_(p^2) + p^(k-1), trace(T_(p^2)) + p^(k-1) d =
c_(d-1)^2 - 2 c_(d-2).  A record that passes both is then compared,
every coefficient, with the Hecke kernel run mod KERNEL_CHECK_PRIME,
which catches a wrong low coefficient that the traces cannot see.  At
large p the trace of T_(p^2) and the kernel cost more than the exact
charpoly, so from RECOMPUTE_FROM on a record must instead equal a fresh
`hecke.charpoly(p, k)`, every coefficient, which is stronger than both;
that charpoly is computed once, and written if every record is rejected.
The last line left wins; with none, the polynomial is recomputed and
appended (on a fresh line after a torn tail) by a single write on an
O_APPEND descriptor.  Only `charpoly`, `certify` and the anchor of
`deduce` use the cache; tables work mod ell and never open it.
"""

from __future__ import annotations

import os
import re

from ._primes import from_decimal, to_decimal
from .errors import ComputationError
from .hecke import charpoly, dim_cusp
from .traceformula import trace

# the prime of the mod-ell kernel check on records read from disk
KERNEL_CHECK_PRIME = 1000003

# A record of T_p, p > 2, on S_k of dimension d is checked against a fresh
# exact charpoly once p >= RECOMPUTE_FROM d^4, and by its traces and the
# kernel below that.  The smallest p at which the recompute beat the two
# checks, in process on a 2-vCPU Xeon, CPython 3.11, best of 3 below d = 15:
# d = 2 and 4: 5 to 7; 6: 5 to 11; 10: 13; 15: 53 to 97; 20: 97 to 199;
# 25: 199 to 499.  Below d = 7 both take under 2 ms.  At the ends: (997, 120)
# 0.38 s against 18.8 s, (499, 120) 0.10 s against 2.2 s, (29, 240) 0.35 s
# against 0.035 s, (199, 300) 3.2 s against 1.1 s.  T_2 records, which
# `certify` and the anchor of `deduce` read, keep the checks: for them the
# recompute is the Berkowitz charpoly that a hit saves.
RECOMPUTE_FROM = 0.0012


class CharpolyCache:
    def __init__(self, directory=None):
        self.directory = directory
        self._mem = {}  # records that passed every check
        self._lines = {}  # p -> the lines of p<p>.jsonl, read once
        self._read = set()  # (p, k) whose lines have been checked
        self._fresh = {}  # (p, k) -> the exact charpoly a rejected record was compared with
        self._torn = set()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, p: int) -> str:
        return os.path.join(self.directory, "p%d.jsonl" % p)

    def _file_lines(self, p: int) -> list:
        if p not in self._lines:
            text = ""
            if self.directory is not None and os.path.exists(self._path(p)):
                with open(self._path(p), "r", encoding="ascii", errors="replace") as fh:
                    text = fh.read()
            if text and not text.endswith("\n"):
                self._torn.add(p)
            self._lines[p] = text.split("\n")
        return self._lines[p]

    def get(self, p: int, k: int):
        lines = self._file_lines(p)
        if (p, k) not in self._read:
            self._read.add((p, k))
            tail = ', "k": %d, "p": %d}' % (k, p)
            for line in reversed(lines):  # first read: last good line wins
                rec = _parse_record(line, p) if line.endswith(tail) else None
                if rec is None:
                    continue
                poly = rec[1]
                if _passes_checks(p, k, poly, self._fresh):
                    self._mem[(p, k)] = poly
                    self._fresh.pop((p, k), None)
                    break
        return self._mem.get((p, k))

    def put(self, p: int, k: int, poly: tuple):
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

    def charpoly(self, p: int, k: int) -> tuple:
        """Cached characteristic polynomial of T_p at weight k."""
        found = self.get(p, k)
        if found is None:
            found = self._fresh.pop((p, k), None)
            if found is None:
                found = charpoly(p, k)
            self.put(p, k, found)
        return found


def _passes_checks(p: int, k: int, poly: tuple, fresh: dict) -> bool:
    """A record from disk against a fresh charpoly from RECOMPUTE_FROM on, else traces and kernel.

    The fresh charpoly is computed once per (p, k) and kept in `fresh`, so
    the fill after a rejected record writes it without computing it again.
    """
    if p > 2 and p >= RECOMPUTE_FROM * dim_cusp(k) ** 4:
        if (p, k) not in fresh:
            fresh[p, k] = charpoly(p, k)
        return poly == fresh[p, k]
    return _agrees_with_traces(p, k, poly) and _agrees_with_kernel(p, k, poly)


def _agrees_with_traces(p: int, k: int, c: tuple) -> bool:
    """The two top coefficients of `c` against traces of T_p and T_(p^2)."""
    d = len(c) - 1
    if d == 0:
        return True
    if c[-2] != -trace(p, k):
        return False
    return d == 1 or c[-2] ** 2 - 2 * c[-3] == trace(p * p, k) + p ** (k - 1) * d


def _agrees_with_kernel(p: int, k: int, poly: tuple) -> bool:
    """Every coefficient of `poly` against T_p's charpoly mod KERNEL_CHECK_PRIME."""
    reduced = tuple(c % KERNEL_CHECK_PRIME for c in poly)
    return reduced == charpoly(p, k, KERNEL_CHECK_PRIME)


# the one line `record_line` writes, which is json.dumps(record, sort_keys=True)
_INTEGER = r"(?:0|-?[1-9][0-9]*)"
_RECORD = re.compile(
    r'\{"coeffs": \[("%s"(?:, "%s")*)\], "k": (0|[1-9][0-9]*), "p": ([1-9][0-9]*)\}'
    % (_INTEGER, _INTEGER)
)


def _parse_record(line: str, p: int):
    """((p, k), coeffs) for a canonical monic record of prime p and degree dim S_k, else None."""
    match = _RECORD.fullmatch(line)
    if match is None or match[3] != "%d" % p:
        return None
    k = from_decimal(match[2])
    coeffs = tuple(map(from_decimal, match[1][1:-1].split('", "')))
    d = dim_cusp(k)
    if len(coeffs) != d + 1 or coeffs[-1] != 1:
        return None
    return (p, k), coeffs


def record_line(p: int, k: int, poly: tuple) -> str:
    coeffs = '", "'.join(map(to_decimal, poly))
    return '{"coeffs": ["%s"], "k": %d, "p": %d}\n' % (coeffs, k, p)
