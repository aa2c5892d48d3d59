"""Exact Hecke operator characteristic polynomials on level-1 cusp
spaces, their factorizations modulo primes, the periodic root tables
those factorizations fall into, trace-formula cross checks, and
Galois-theoretic irreducibility certificates.

Importing the package registers every submodule in sys.modules without
running it (importlib.util.LazyLoader); a submodule's code runs when one
of its attributes is first read, so a command runs only the modules it
calls.  The public names below are read through the package on demand
(PEP 562).  Registering rather than importing per command keeps every
module in sys.modules from the first `import heckemod.cli`, which is the
snapshot bench/tracing.py rebinds traced functions in.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"


def _lazy(name):
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update(
    (name, _lazy(name))
    for name in ("_primes", "_record", "_kron", "errors", "qseries", "gfpoly", "hecke",
                 "_krylov", "traceformula", "cache", "modfactor", "galois")
)

# public name -> the submodule that defines it
_OWNER = {
    name: module
    for module, names in (
        ("_primes", "poly_str"),
        ("cache", "CharpolyCache"),
        ("errors", "ComputationError EigenvalueViolation FalsificationError "
         "InsufficientPrecision Lemma1Violation NonIntegralTrace PeriodNotFound "
         "SpanViolation"),
        ("galois", "Certificate CycleType NotFound SquarefreeFailure certify "
         "certify_full_symmetric certify_irreducible corollary_conclusion "
         "cycle_type deduce theorem1_conclusion"),
        ("gfpoly", "FactorMultiset factor reduce_mod roots"),
        ("hecke", "charpoly dim_cusp hecke_matrix monomial_basis"),
        ("modfactor", "charpoly_mod congruence_class_invariance root_sequence "
         "serre_eigenvalue_set small_ell_rule table_rows"),
        ("qseries", "QExpansion delta eisenstein4 eisenstein6"),
        ("traceformula", "trace"),
    )
    for name in names.split()
}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
