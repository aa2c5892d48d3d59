"""Run heckemod CLI invocations inside one process.

    python3 bench/inproc.py SPEC OUT [--trace]

SPEC is a JSON file {"calls": [[arg, ...], ...], "cache_dir": dir or null}.
Each call goes through `heckemod.cli.main(argv)` with stdout captured.
OUT receives {"results": [[stdout, exit code], ...]} and, with --trace,
the per-layer metrics of tracing.py, the span count and the names of the
spans that could not be wrapped.  heckemod is imported from PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def _dir_size(path) -> int:
    if path is None or not os.path.isdir(path):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def run(calls, cache_dir, tracer=None) -> list:
    from heckemod.cli import main

    results = []
    for i, argv in enumerate(calls):
        if tracer is not None:
            tracer.invocation = i
            tracer.counts["cache.bytes_read"] += _dir_size(cache_dir)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            if tracer is not None:
                tracer.counts["cli.errors"] += 1
            code = -1
        results.append([out.getvalue(), code])
    return results


def main(argv) -> int:
    spec_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {}
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    report["results"] = run(spec["calls"], spec["cache_dir"], tracer)
    if traced:
        report["metrics"] = tracing.layer_metrics(tracer, missing)
        report["missing"] = sorted(missing)
        report["spans"] = len(tracer.spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
