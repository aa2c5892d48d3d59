"""The benchmark's workloads and the checks on their outputs.

An invocation is the argument list of one `heckemod` subcommand, without
the global options.  The runner appends `--seed <n>` to every invocation
and `--cache-dir <dir>` to those of workloads that keep a disk cache.
Reference outputs are keyed by the invocation joined with spaces, so they
do not depend on the seed or on where the cache lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

PRIMES_BELOW_100 = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))

# k = 120 .. 228 crosses the edge of what --bound 200 can certify (from
# k = 184 on, most weights come back NotFound).
CERTIFY_WEIGHTS = tuple(range(120, 229, 4))

# Large primes at moderate weights: long q-expansions (prec = p * dim + 1)
# and an integer charpoly that is itself the required output.  Each (p, k)
# also runs the trace formula for T_p and T_{p^2}, which check the two top
# coefficients; with twice as many trace processes as charpolys, the median
# process time falls inside one kind of command, not between two.
TRACE_GRID = ((29, 96), (29, 120), (53, 72), (53, 96), (97, 60), (97, 84))


def _charpoly_json(p, k):
    return ("charpoly", "--prime", str(p), "--weight", str(k), "--format", "json")


def _trace(n, k):
    return ("trace", "--n", str(n), "--weight", str(k))


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    # without a disk cache the CLI keeps its in-memory one; a disk cache
    # starts empty, or holds what set-up computed by running `fill`
    disk_cache: bool
    fill: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tables",
            # cold table --ell 5 then --ell 13 on one empty cache: integer charpolys and cache writes
            invocations=(("table", "--ell", "5"), ("table", "--ell", "13")),
            disk_cache=True,
        ),
        Workload(
            name="certify-sweep",
            # certify T_2 for k = 120..228 from a filled cache: factoring mod ell and the Galois scan
            invocations=tuple(
                ("certify", "--prime", "2", "--weight", str(k), "--bound", "200")
                for k in CERTIFY_WEIGHTS
            ),
            disk_cache=True,
            fill=tuple(("charpoly", "--prime", "2", "--weight", str(k)) for k in CERTIFY_WEIGHTS),
        ),
        Workload(
            name="deduce-sweep",
            # deduce every p < 100 at weight 24 on one empty cache: short commands, start-up and cache reads
            invocations=tuple(
                ("deduce", "--target-prime", str(p), "--weight", "24") for p in PRIMES_BELOW_100
            ),
            disk_cache=True,
        ),
        Workload(
            name="trace-oracle",
            # exact charpoly and trace formula at p = 29, 53, 97, no cache: large-precision basis products
            invocations=tuple(
                inv
                for p, k in TRACE_GRID
                for inv in (_charpoly_json(p, k), _trace(p, k), _trace(p * p, k))
            ),
            disk_cache=False,
        ),
    )
}


def key(invocation) -> str:
    return " ".join(invocation)


def ordered(workload: Workload, seed: int) -> list:
    """The workload's invocations in the order the seed picks."""
    order = list(workload.invocations)
    random.Random(seed).shuffle(order)
    return order


def cli_args(invocation, seed: int, cache_dir) -> list:
    args = list(invocation) + ["--seed", str(seed)]
    if cache_dir is not None:
        args += ["--cache-dir", str(cache_dir)]
    return args


def oracle_failures(results) -> set:
    """Keys of `trace` invocations that disagree with the charpoly of T_p.

    For the charpoly x^d + c_{d-1} x^{d-1} + c_{d-2} x^{d-2} + ... of T_p
    on S_k: trace(T_p) = -c_{d-1}, and since T_p^2 = T_{p^2} + p^(k-1),
    trace(T_{p^2}) + p^(k-1) d = c_{d-1}^2 - 2 c_{d-2}.
    """
    stdout = {key(inv): out for inv, out, _ in results}
    bad = set()
    for p, k in TRACE_GRID:
        poly = stdout.get(key(_charpoly_json(p, k)))
        for n in (p, p * p):
            trace_key = key(_trace(n, k))
            if poly is None or trace_key not in stdout:
                continue
            try:
                c = [int(x) for x in json.loads(poly)["coeffs"]]
                d = len(c) - 1
                want = -c[d - 1] if n == p else c[d - 1] ** 2 - 2 * c[d - 2] - p ** (k - 1) * d
                agrees = int(stdout[trace_key]) == want
            except (ValueError, KeyError, IndexError, TypeError):
                agrees = False
            if not agrees:
                bad.add(trace_key)
    return bad


def failures(results, reference: dict) -> list:
    """Keys of the failed invocations among `results`.

    `results` holds (invocation, stdout, exit code) triples.  An
    invocation fails when its stdout differs from the reference byte for
    byte, when its exit code differs, or when the trace oracle disagrees
    with the charpoly printed for the same (p, k).
    """
    bad = []
    oracle = oracle_failures(results)
    for inv, out, code in results:
        ref = reference.get(key(inv))
        if ref is None or out != ref["stdout"] or code != ref["exit"] or key(inv) in oracle:
            bad.append(key(inv))
    return bad
