"""Persistent store for exact Hecke characteristic polynomials.

Layout: one JSON-lines file per prime p (``p<p>.jsonl``) inside the
cache directory, one record per line with sorted keys and LF
terminators::

    {"coeffs": ["-20468736", "-1080", "1"], "k": 24, "p": 2}

Coefficients are canonical decimal strings, ascending by degree, so
records survive any JSON number-precision concerns and recomputation
reproduces them byte for byte.  A cache constructed with directory
None memoizes in memory only.

A line that does not parse, names another p, or is not monic of degree
dim S_k is skipped on load, so its polynomial is recomputed and appended
(on a fresh line after a torn tail).  Only `charpoly`, `certify` and the
anchor of `deduce` use the cache; tables work mod ell and never open it.
"""

from __future__ import annotations

import json
import os

from .hecke import IntPoly, charpoly, dim_cusp


class CharpolyCache:
    def __init__(self, directory=None):
        self.directory = directory
        self._mem = {}
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
                self._mem[rec[0]] = rec[1]

    def get(self, p: int, k: int):
        self._load(p)
        return self._mem.get((p, k))

    def put(self, p: int, k: int, poly: IntPoly):
        self._load(p)
        if (p, k) in self._mem:
            return
        self._mem[(p, k)] = poly
        if self.directory is not None:
            with open(self._path(p), "a", encoding="ascii", newline="") as fh:
                if p in self._torn:
                    fh.write("\n")
                    self._torn.discard(p)
                fh.write(record_line(p, k, poly))

    def charpoly(self, p: int, k: int) -> IntPoly:
        """Cached characteristic polynomial of T_p at weight k."""
        found = self.get(p, k)
        if found is None:
            found = charpoly(p, k)
            self.put(p, k, found)
        return found


def _parse_record(line: str, p: int):
    """((p, k), IntPoly) for a well-formed record of prime p, else None."""
    try:
        rec = json.loads(line)
        k = rec["k"]
        coeffs = tuple(int(c) for c in rec["coeffs"])
        if rec["p"] != p or type(k) is not int:
            return None
    except (ValueError, KeyError, TypeError):
        return None
    if len(coeffs) != dim_cusp(k) + 1 or coeffs[-1] != 1:
        return None
    return (p, k), IntPoly(coeffs)


def record_line(p: int, k: int, poly: IntPoly) -> str:
    rec = {"coeffs": [str(c) for c in poly.coeffs], "k": k, "p": p}
    return json.dumps(rec, sort_keys=True) + "\n"


def cached_charpoly(p: int, k: int, cache=None) -> IntPoly:
    """charpoly through an optional CharpolyCache."""
    if cache is None:
        return charpoly(p, k)
    return cache.charpoly(p, k)
