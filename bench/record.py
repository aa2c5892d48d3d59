"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py

Runs one CLI pass of every workload under each of two seeds, requires
every invocation's stdout and exit code to be the same under both, and
writes them to bench/reference.json.  Run it only on a commit whose outputs are known to
be right; the benchmark then counts any byte of difference as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

SEEDS = (1, 2)


def main() -> int:
    work = run.ROOT / ".bench_work" / ("record-%d" % os.getpid())
    reference = {}
    try:
        for name, workload in sorted(workloads.WORKLOADS.items()):
            seen = []
            for seed in SEEDS:
                runner = run.Runner(work / ("%s-%d" % (name, seed)))
                _, _, filled = runner.setup(workload, seed)
                p = runner.cli_pass(workload, seed, filled, "record")
                seen.append(
                    {workloads.key(inv): {"stdout": out, "exit": code} for inv, out, code in p["results"]}
                )
                print("%s seed %d: %.1f s" % (name, seed, p["wall_s"]), file=sys.stderr)
            if seen[0] != seen[1]:
                differ = sorted(k for k in seen[0] if seen[0][k] != seen[1].get(k))
                print("%s: output depends on --seed: %s" % (name, differ), file=sys.stderr)
                return 1
            if workloads.oracle_failures(p["results"]) or any(c for _, _, c in p["results"]):
                print("%s: an invocation failed or the trace oracle disagrees" % name, file=sys.stderr)
                return 1
            reference[name] = dict(sorted(seen[0].items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
