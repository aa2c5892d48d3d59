"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench -q
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["middle", 1.0, 7.0, 0, 0],
        ["inner", 2.0, 5.0, 1, 0],
        ["inner", 5.5, 6.0, 1, 0],
        ["middle", 8.0, 9.0, 0, 0],
    ]
    got = tracing.self_times(spans)
    assert got["outer"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert got["middle"] == pytest.approx((6.0 - 3.0 - 0.5) + 1.0)
    assert got["inner"] == pytest.approx(3.0 + 0.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_wrappers_record_nested_spans_and_errors():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf(x):
        clock.now += 2.0
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_w = tracer.span_wrapper("gfpoly.leaf", leaf)

    def outer(x):
        clock.now += 1.0
        leaf_w(x)
        clock.now += 1.0
        return leaf_w(x)

    outer_w = tracer.span_wrapper("galois.outer", outer)
    tracer.invocation = 7
    assert outer_w(3) == 3
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert {s[4] for s in tracer.spans} == {7}
    got = tracing.self_times(tracer.spans)
    assert got["galois.outer"] == pytest.approx(2.0)
    assert got["gfpoly.leaf"] == pytest.approx(4.0)
    assert tracer.calls == {"galois.outer": 1, "gfpoly.leaf": 2}

    with pytest.raises(ValueError):
        outer_w(-1)
    # one exception, counted once, in the layer it escaped from first
    assert tracer.counts["gfpoly.errors"] == 1
    assert tracer.counts["galois.errors"] == 0
    assert tracer._stack == []


def test_missing_target_is_reported_missing_not_zero():
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer, {"qseries.mul", "galois.certify"})
    assert "qseries.mul.calls" not in metrics
    assert "qseries.mul.coeff_products" not in metrics
    assert "galois.found_ratio" not in metrics
    assert metrics["hecke.charpoly.calls"] == 0
    assert metrics["galois.squarefree_ratio"] == 0.0


def _results(workload, reference):
    return [
        (inv, reference[workloads.key(inv)]["stdout"], reference[workloads.key(inv)]["exit"])
        for inv in workload.invocations
    ]


def _fake_reference():
    ref = {}
    for p, k in workloads.TRACE_GRID:
        c0, c1 = p * k, -(p + k)
        poly = json.dumps({"coeffs": [str(c0), str(c1), "1"], "dim": 2, "k": k, "p": p}, indent=2, sort_keys=True)
        ref["charpoly --prime %d --weight %d --format json" % (p, k)] = {"stdout": poly + "\n", "exit": 0}
        ref["trace --n %d --weight %d" % (p, k)] = {"stdout": "%d\n" % -c1, "exit": 0}
        square = c1 * c1 - 2 * c0 - p ** (k - 1) * 2
        ref["trace --n %d --weight %d" % (p * p, k)] = {"stdout": "%d\n" % square, "exit": 0}
    return ref


def test_output_checker_counts_wrong_stdout_and_wrong_exit_code():
    workload = workloads.WORKLOADS["trace-oracle"]
    reference = _fake_reference()
    results = _results(workload, reference)
    assert workloads.failures(results, reference) == []

    inv, out, code = results[0]
    wrong_stdout = [(inv, out + " ", code)] + results[1:]
    assert workloads.failures(wrong_stdout, reference) == [workloads.key(inv)]

    wrong_exit = [(inv, out, 2)] + results[1:]
    assert workloads.failures(wrong_exit, reference) == [workloads.key(inv)]

    unknown = results + [(("trace", "--n", "2", "--weight", "12"), "-24\n", 0)]
    assert workloads.failures(unknown, reference) == ["trace --n 2 --weight 12"]


@pytest.mark.parametrize("square", [False, True])
def test_output_checker_counts_trace_oracle_disagreement(square):
    workload = workloads.WORKLOADS["trace-oracle"]
    reference = _fake_reference()
    p, k = workloads.TRACE_GRID[0]
    trace_key = "trace --n %d --weight %d" % (p * p if square else p, k)
    wrong = int(reference[trace_key]["stdout"]) + 1
    # the reference itself is wrong here, so only the oracle can catch it
    reference[trace_key] = {"stdout": "%d\n" % wrong, "exit": 0}
    assert workloads.failures(_results(workload, reference), reference) == [trace_key]


def test_seed_only_reorders_invocations():
    for workload in workloads.WORKLOADS.values():
        a, b = workloads.ordered(workload, 1), workloads.ordered(workload, 1)
        assert a == b
        assert sorted(a) == sorted(workload.invocations)


def test_reference_covers_every_invocation():
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        assert sorted(reference[name]) == sorted(map(workloads.key, workload.invocations))
        results = _results(workload, reference[name])
        assert workloads.failures(results, reference[name]) == []


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    better = {name: b for name, _, b, *_ in tracing.LAYER_METRICS}
    for m in spec["per_layer"]:
        if m["name"] in better:
            assert m["better"] == better[m["name"]]
