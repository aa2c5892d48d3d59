"""heckemod benchmark: cold CLI workloads, timed end to end and split by layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the runner starts one CLI process per invocation, one at a
time, repeats whole passes of the workload while they fit in S seconds,
and reports the end-to-end metrics, scaled to a reference machine speed
(see REFERENCE_PROBE_S).  With --trace 1 it runs the workload's
invocations in a single process three times, untraced, traced (see
tracing.py) and untraced, and reports the per-layer metrics as measured.
Every invocation's stdout and exit code are compared with reference.json.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SETUP_REPEATS = 5
# The host's speed drifts by up to 2x over minutes, and CPU time drifts
# with it.  So the runner also times a probe: a fresh interpreter doing a
# fixed bit of big-integer arithmetic, which no change to heckemod can
# speed up.  It runs once per set-up, once before each pass, and after
# every CLI child once per PROBE_EVERY_S of the child's time.  Each child's
# time is scaled by REFERENCE_PROBE_S over the mean of two medians: of the
# probes just before it and of those just after it.  The set-up times are
# scaled by the same over the median of the set-up's probes.  They read as
# seconds on a machine where the probe takes REFERENCE_PROBE_S, about its
# time on the VM of README.md when lightly loaded.
PROBE_ARGV = (
    sys.executable,
    "-c",
    "x, y = 3 ** 4000, 7 ** 4000\nfor i in range(60):\n    z = (x * y + i) % (x + i)",
)
PROBE_EVERY_S = 1.0
REFERENCE_PROBE_S = 0.080
CALL_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "cmd_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
EXTRA_LAYER_UNITS = {
    "cli.import_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}
LAYER_UNITS = dict(EXTRA_LAYER_UNITS, **{name: unit for name, unit, *_ in LAYER_METRICS})


def bracket(before, after) -> float:
    """Probe time during a child, from the probes just before and after it."""
    return (statistics.median(before) + statistics.median(after)) / 2


def speed(probes) -> float:
    """How many reference seconds one second is worth, from probe times."""
    return REFERENCE_PROBE_S / statistics.median(probes)


class BenchError(Exception):
    """The benchmark could not set up or run; no result is printed."""


class Runner:
    def __init__(self, work: Path):
        self.work = work
        work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # the variable would override every --cache-dir the runner passes
        self.env.pop("HECKE_MOD_CACHE", None)
        self.probes = []

    def probe(self) -> float:
        """Time one speed probe and keep it in self.probes."""
        seconds, _, code, _ = self.spawn(list(PROBE_ARGV), "speed probe")
        if code != 0:
            raise BenchError("the speed probe failed")
        self.probes.append(seconds)
        return seconds

    def spawn(self, argv, label):
        """Run one child to completion: (seconds, stdout, exit code, peak RSS in KiB)."""
        err_path = self.work / "stderr.txt"
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=str(ROOT)
            )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print("%s exited %d\n%s" % (label, proc.returncode, tail), file=sys.stderr)
        return seconds, out.decode("utf-8", errors="replace"), proc.returncode, usage.ru_maxrss

    def inproc(self, calls, cache_dir, trace: bool) -> dict:
        spec, out = self.work / "spec.json", self.work / "inproc.json"
        spec.write_text(json.dumps({"calls": calls, "cache_dir": cache_dir}), encoding="utf-8")
        argv = [sys.executable, str(BENCH / "inproc.py"), str(spec), str(out)]
        seconds, _, code, _ = self.spawn(argv + (["--trace"] if trace else []), "inproc.py")
        if code != 0:
            raise BenchError("in-process run failed with exit code %d" % code)
        report = json.loads(out.read_text(encoding="utf-8"))
        report["wall_s"] = seconds
        return report

    def setup(self, workload, seed):
        """Set up SETUP_REPEATS times; return (set-up times, import probes, cache to start from)."""
        times, bare, imported, filled = [], [], [], None
        for rep in range(SETUP_REPEATS):
            self.probe()
            for probe, into in (("pass", bare), ("import heckemod.cli", imported)):
                seconds, _, code, _ = self.spawn([sys.executable, "-c", probe], probe)
                if code != 0:
                    raise BenchError("probe %r failed; is src/heckemod in this checkout?" % probe)
                into.append(seconds)
            fill_s = 0.0
            if workload.fill:
                filled = self.work / ("fill%d" % rep)
                calls = [workloads.cli_args(c, seed, str(filled)) for c in workload.fill]
                report = self.inproc(calls, str(filled), trace=False)
                if any(code != 0 for _, code in report["results"]):
                    raise BenchError("filling the starting cache failed")
                fill_s = report["wall_s"]
            times.append(bare[-1] + imported[-1] + fill_s)
        import_s = statistics.median(imported) - statistics.median(bare)
        return times, import_s, filled

    def cache_for_pass(self, workload, filled, label):
        if not workload.disk_cache:
            return None
        path = self.work / ("cache-" + label)
        if filled is not None:
            shutil.copytree(filled, path)
        else:
            path.mkdir()
        return str(path)

    def cli_pass(self, workload, seed, filled, label):
        """One pass, one process per invocation."""
        cache_dir = self.cache_for_pass(workload, filled, label)
        results, measured, times, rss = [], [], [], []
        before = [self.probe()]
        for inv in workloads.ordered(workload, seed):
            argv = [sys.executable, "-m", "heckemod"] + workloads.cli_args(inv, seed, cache_dir)
            seconds, out, code, maxrss = self.spawn(argv, workloads.key(inv))
            after = [self.probe() for _ in range(math.ceil(seconds / PROBE_EVERY_S))]
            results.append((inv, out, code))
            measured.append(seconds)
            times.append(seconds * REFERENCE_PROBE_S / bracket(before, after))
            rss.append(maxrss)
            before = after
        return {
            "wall_s": sum(times),
            "measured_wall_s": sum(measured),
            "times": times,
            "measured": measured,
            "rss_kib": max(rss),
            "results": results,
        }


def _check(results, reference):
    """(attempted, failed) for one pass; names each failure on stderr."""
    bad = workloads.failures(results, reference)
    for key in bad:
        print("wrong output: %s" % key, file=sys.stderr)
    return len(results), len(bad)


def run_workload(runner, workload, seed, seconds, trace, reference):
    setup_times, import_s, filled = runner.setup(workload, seed)
    lines = ["workload %s, seed %d: %d invocations" % (workload.name, seed, len(workload.invocations))]
    attempted = failed = 0
    if not trace:
        setup_probes = len(runner.probes)
        passes, pass_s = [], []
        measure_start = time.perf_counter()
        while True:
            start = time.perf_counter()
            passes.append(runner.cli_pass(workload, seed, filled, "p%d" % len(passes)))
            pass_s.append(time.perf_counter() - start)
            if time.perf_counter() - measure_start + statistics.median(pass_s) > seconds:
                break
        for p in passes:
            a, f = _check(p["results"], reference)
            attempted, failed = attempted + a, failed + f
        cmd_times = [t for p in passes for t in p["times"]]
        lines[0] += " x %d CLI pass(es)" % len(passes)
        setup_speed = speed(runner.probes[:setup_probes])
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cmd_p50_s": statistics.median(cmd_times),
            "setup_s": statistics.median(setup_times) * setup_speed,
            "peak_rss_mb": max(p["rss_kib"] for p in passes) / 1024,
        }
        measured = {
            "wall_s": statistics.median(p["measured_wall_s"] for p in passes),
            "cmd_p50_s": statistics.median(t for p in passes for t in p["measured"]),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
        counts = {
            "wall_s": "median of %d passes" % len(passes),
            "cmd_p50_s": "n=%d" % len(cmd_times),
            "setup_s": "median of %d" % len(setup_times),
        }
        notes = {name: "%s; %.6g s as measured" % (counts[name], measured[name]) for name in measured}
        notes["peak_rss_mb"] = "max over %d processes" % len(cmd_times)
        lines.append(
            "speed factor %.4f over %d probes in the passes, %.4f over %d in set-up"
            % (speed(runner.probes[setup_probes:]), len(runner.probes) - setup_probes,
               setup_speed, setup_probes)
        )
    else:
        # the same calls in one process, untraced, traced and untraced
        # again, each from a fresh copy of the starting cache: the traced
        # pass minus the mean untraced one is the tracer's cost, not the
        # start-up it saves, and a steady drift in machine speed cancels
        order = workloads.ordered(workload, seed)
        reports = []
        for i, traced in enumerate((False, True, False)):
            cache_dir = runner.cache_for_pass(workload, filled, "inproc%d" % i)
            calls = [workloads.cli_args(inv, seed, cache_dir) for inv in order]
            reports.append(runner.inproc(calls, cache_dir, trace=traced))
            results = [(inv, out, code) for inv, (out, code) in zip(order, reports[-1]["results"])]
            a, f = _check(results, reference)
            attempted, failed = attempted + a, failed + f
        untraced, report = (reports[0]["wall_s"] + reports[2]["wall_s"]) / 2, reports[1]
        lines[0] += " in one process: untraced, traced, untraced"
        metrics = dict(
            report["metrics"],
            **{
                "cli.import_s": import_s,
                "tracing.untraced_wall_s": untraced,
                "tracing.traced_wall_s": report["wall_s"],
                "tracing.overhead_s": report["wall_s"] - untraced,
                "tracing.spans": report["spans"],
            },
        )
        units = LAYER_UNITS
        notes = {}
        if report["missing"]:
            lines.append("missing (no such function): %s" % ", ".join(report["missing"]))
    for name, value in metrics.items():
        note = " (%s)" % notes[name] if name in notes else ""
        lines.append("%-34s %.6g %s%s" % (name, value, units[name], note))
    lines.append("error_rate %d/%d" % (failed, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heckemod" / "cli.py").is_file():
        print("no src/heckemod/cli.py under %s: run from a checkout" % ROOT, file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        results = {}
        for name in names:
            lines, results[name] = run_workload(
                Runner(work / name),
                workloads.WORKLOADS[name],
                args.seed,
                args.seconds,
                bool(args.trace),
                reference.get(name, {}),
            )
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (name, metric): value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
