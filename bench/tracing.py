"""Spans and counters recorded from outside the program.

The traced pass wraps public functions of each heckemod module at every
place they are bound: the defining module and every module that imported
the name.  The program itself carries no instrumentation.  A wrapped call
records a span (name, start, end, parent span, invocation id); spans stay
in memory and are reduced to per-name self time when the pass ends.

A target that no longer exists (a refactor renamed or removed it) is
left unwrapped, and every metric that needs it is reported as missing,
never as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute, span name).  Several attributes may share one span
# name; the span's layer is the part before the first dot.
SPAN_TARGETS = (
    ("qseries", "mul", "qseries.mul"),
    ("hecke", "basis_expansions", "hecke.basis_expansions"),
    ("hecke", "hecke_action", "hecke.hecke_action"),
    ("hecke", "hecke_matrix", "hecke.hecke_matrix"),
    ("hecke", "berkowitz_charpoly", "hecke.berkowitz_charpoly"),
    ("hecke", "charpoly", "hecke.charpoly"),
    ("gfpoly", "reduce_mod", "gfpoly.reduce_mod"),
    ("gfpoly", "factor", "gfpoly.factor"),
    ("gfpoly", "roots", "gfpoly.roots"),
    ("modfactor", "root_sequence", "modfactor.root_sequence"),
    ("modfactor", "charpoly_mod", "modfactor.charpoly_mod"),
    ("galois", "cycle_type", "galois.cycle_type"),
    ("galois", "certify_irreducible", "galois.certify"),
    ("galois", "certify_full_symmetric", "galois.certify"),
    ("galois", "deduce", "galois.deduce"),
    ("traceformula", "trace", "traceformula.trace"),
    ("cache", "CharpolyCache.get", "cache.get"),
    ("cache", "CharpolyCache.put", "cache.put"),
)

# Called too often for a span each (FpPoly checks its modulus on every
# construction, a million times in one certify-sweep pass); only the calls
# are counted.
COUNT_TARGETS = (("_primes", "is_prime", "primes.is_prime"),)

# layers whose exceptions are counted (an exception in is_prime is counted
# in the layer that called it)
LAYERS = ("cli", "qseries", "hecke", "gfpoly", "modfactor", "galois", "traceformula", "cache")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _plain(span, kind):
    unit = "count" if kind == "calls" else "s"
    return ("%s.%s" % (span, kind), unit, "lower", (span,), lambda s: getattr(s, kind)[span])


# (metric, unit, better, span names it needs, value from a Stats).  Most
# are a plain call count or self time of one span, written as (span, kind).
LAYER_METRICS = tuple(
    _plain(span, kind)
    for span, kind in (
        ("qseries.mul", "calls"),
        ("qseries.mul", "self_s"),
        ("hecke.basis_expansions", "self_s"),
        ("hecke.hecke_action", "self_s"),
        ("hecke.hecke_matrix", "self_s"),
        ("hecke.berkowitz_charpoly", "self_s"),
        ("hecke.charpoly", "calls"),
        ("gfpoly.reduce_mod", "self_s"),
        ("gfpoly.factor", "calls"),
        ("gfpoly.factor", "self_s"),
        ("gfpoly.roots", "self_s"),
        ("modfactor.root_sequence", "calls"),
        ("modfactor.root_sequence", "self_s"),
        ("modfactor.charpoly_mod", "calls"),
        ("galois.cycle_type", "calls"),
        ("galois.certify", "self_s"),
        ("galois.deduce", "self_s"),
        ("traceformula.trace", "calls"),
        ("traceformula.trace", "self_s"),
        ("cache.get", "self_s"),
        ("cache.put", "self_s"),
        ("primes.is_prime", "calls"),
    )
) + (
    ("qseries.mul.coeff_products", "count", "lower", ("qseries.mul",),
     lambda s: s.counts["qseries.mul.coeff_products"]),
    ("galois.squarefree_ratio", "ratio", "higher", ("galois.cycle_type",),
     lambda s: _ratio(s.counts["galois.cycle_type.squarefree"], s.calls["galois.cycle_type"])),
    ("galois.found_ratio", "ratio", "higher", ("galois.certify",),
     lambda s: _ratio(s.counts["galois.certify.found"], s.calls["galois.certify"])),
    ("cache.hits", "count", "higher", ("cache.get",), lambda s: s.counts["cache.hits"]),
    ("cache.misses", "count", "lower", ("cache.get",), lambda s: s.counts["cache.misses"]),
    ("cache.hit_ratio", "ratio", "higher", ("cache.get",),
     lambda s: _ratio(s.counts["cache.hits"], s.counts["cache.hits"] + s.counts["cache.misses"])),
    ("cache.bytes_read", "bytes", "lower", (), lambda s: s.counts["cache.bytes_read"]),
) + tuple(
    ("%s.errors" % layer, "count", "lower", (), lambda s, layer=layer: s.counts["%s.errors" % layer])
    for layer in LAYERS
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None, invocation]
        self.calls = Counter()
        self.counts = Counter()
        self.counters = {}  # name -> counting wrapper
        self.invocation = 0
        self._stack = []
        self._last_error = None

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.invocation])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def error(self, name, exc):
        # count an exception once, in the innermost layer it escaped from
        if exc is not self._last_error:
            self._last_error = exc
            self.counts["%s.errors" % name.split(".")[0]] += 1

    def span_wrapper(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if before is not None:
                before(self, args)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.error(name, exc)
                raise
            finally:
                self.close(index)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        # lru_cache with maxsize 0 caches nothing and counts every call as
        # a miss, in C: a Python wrapper would add seconds to its callers'
        # self time.  Exceptions pass through to the caller's layer.
        wrapper = functools.lru_cache(maxsize=0)(fn)
        self.counters[name] = wrapper
        return wrapper

    def all_calls(self) -> Counter:
        calls = Counter(self.calls)
        for name, wrapper in self.counters.items():
            calls[name] += wrapper.cache_info().misses
        return calls


def self_times(spans) -> Counter:
    """Per-name self time: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def _mul_products(tracer, args):
    # coefficient pairs a schoolbook product visits at this precision
    a, b = args[0], args[1]
    prec = min(a.prec, b.prec)
    tracer.counts["qseries.mul.coeff_products"] += prec * (prec + 1) // 2


def _cycle_type_result(tracer, result):
    if type(result).__name__ == "CycleType":
        tracer.counts["galois.cycle_type.squarefree"] += 1


def _certify_result(tracer, result):
    if type(result).__name__ == "Certificate":
        tracer.counts["galois.certify.found"] += 1


def _cache_get_result(tracer, result):
    tracer.counts["cache.misses" if result is None else "cache.hits"] += 1


HOOKS = {
    "qseries.mul": (_mul_products, None),
    "galois.cycle_type": (None, _cycle_type_result),
    "galois.certify": (None, _certify_result),
    "cache.get": (None, _cache_get_result),
}


def _resolve(module, attribute):
    """(owner, name, object) for `module.attribute`; raises when gone."""
    owner = importlib.import_module("heckemod." + module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def install(tracer) -> set:
    """Wrap every target where it is bound; return the span names not found."""
    importlib.import_module("heckemod.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "heckemod" or n.startswith("heckemod.")]
    missing = set()
    targets = [(m, a, n, True) for m, a, n in SPAN_TARGETS]
    targets += [(m, a, n, False) for m, a, n in COUNT_TARGETS]
    for module, attribute, name, span in targets:
        try:
            owner, attr, fn = _resolve(module, attribute)
        except (ImportError, AttributeError):
            missing.add(name)
            continue
        if span:
            wrapped = tracer.span_wrapper(name, fn, *HOOKS.get(name, (None, None)))
        else:
            wrapped = tracer.count_wrapper(name, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for m in modules:
            for bound, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, bound, wrapped)
    return missing


class Stats:
    def __init__(self, tracer):
        self.calls = tracer.all_calls()
        self.counts = tracer.counts
        self.self_s = self_times(tracer.spans)


def layer_metrics(tracer, missing) -> dict:
    """Metric name -> value, leaving out every metric whose span is missing."""
    stats = Stats(tracer)
    return {
        name: value(stats)
        for name, _, _, needs, value in LAYER_METRICS
        if not missing.intersection(needs)
    }
