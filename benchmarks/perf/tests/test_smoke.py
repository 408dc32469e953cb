"""Tiny-size smoke of every workload (``pytest benchmarks/perf/tests``).

Outside tier-1's ``testpaths``: these test the benchmark, not the
program.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import measure
import run
import workloads
from conftest import PERF, ROOT

WORKLOADS = ("write", "read", "mixed", "serve")
HOST_METRICS = {"setup_s", "host_cpu_us_per_op", "host_peak_rss_mb"}
SHRINK = "20"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def run_process(workload, trace, hashseed="0"):
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--shrink", SHRINK],
        capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_and_repeatable(workload):
    # identical virtual metrics across the repeats inside one process
    # are asserted by the run itself (exit code 3 otherwise); here: the
    # same across two processes that hash differently
    first, text = run_process(workload, 0, hashseed="1")
    second, _ = run_process(workload, 0, hashseed="2")
    check_result(first, CONTRACT["end_to_end"])
    for name, metric in first["metrics"].items():
        assert metric["value"] > 0, name
        assert f"{name} = " in text
        if name not in HOST_METRICS:
            assert metric == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_and_trace_written(workload):
    # the traced pass reproducing the untraced virtual numbers exactly
    # is asserted by the run itself
    result, _ = run_process(workload, 1)
    check_result(result, CONTRACT["per_layer"])
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["bench.host_calls_per_op"] > 0
    assert values["lsm.host_self_us_per_op"] > 0
    if workload == "read":
        assert values["sim.dev_read_bytes_per_op"] > 0
        assert values["fs.pagecache_hit_rate"] < 1
        assert values["read_amp"] > 0
        assert values["lsm.table_probes_per_get"] > 0
    else:
        assert values["read_amp"] == 0
    if workload == "write":
        assert values["lsm.get_p50_us"] == 0
        assert values["core.sync_reduction_vs_leveldb"] > 0
    if workload == "serve":
        assert values["serve.host_calls_per_op"] > 0
        assert values["serve.p999_us.r135k"] > 0
    with open(os.path.join(PERF, "out", f"{workload}.trace.json")) as handle:
        trace = json.load(handle)
    names = {span[1] for span in trace["spans"]}
    assert {"setup", "timed"} <= names
    timed = next(span[0] for span in trace["spans"] if span[1] == "timed")
    calls = [span for span in trace["spans"] if span[4] == timed]
    assert calls and all(span[3] >= span[2] for span in calls)


def plant(monkeypatch, workload, corrupt):
    original = workloads.WORKLOADS[workload].generate

    def generate(seed, size):
        inputs = original(seed, size)
        corrupt(inputs)
        return inputs

    monkeypatch.setattr(workloads.WORKLOADS[workload], "generate", generate)


def wrong_expected_get(inputs):
    index = next(i for i, op in enumerate(inputs.ops) if op[0] == workloads.GET)
    kind, key, argument, _ = inputs.ops[index]
    inputs.ops[index] = (kind, key, argument, b"not what was written")


def wrong_expected_scan(inputs):
    index = next(i for i, op in enumerate(inputs.ops) if op[0] == workloads.SCAN)
    kind, key, argument, expected = inputs.ops[index]
    inputs.ops[index] = (kind, key, argument, expected[:-1])


def wrong_final_value(inputs):
    # a key the timed phase never overwrites, so the planted value stays
    rewritten = {op[1] for op in inputs.ops}
    rewritten.update((r.tenant, r.key) for r in inputs.requests)
    key = next(k for k in inputs.model if k not in rewritten)
    inputs.model[key] = b"never written"


@pytest.mark.parametrize("workload, corrupt", [
    ("read", wrong_expected_get),
    ("read", wrong_expected_scan),
    ("mixed", wrong_expected_get),
    ("write", wrong_final_value),
    ("serve", wrong_final_value),
])
def test_planted_wrong_value_fails_the_run(monkeypatch, capsys, workload, corrupt):
    plant(monkeypatch, workload, corrupt)
    code = run.main(["--workload", workload, "--seconds", "0", "--shrink", SHRINK])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_differing_repeats_are_refused():
    measure.check_identical({"a": 1.0}, {"a": 1.0}, "x")
    with pytest.raises(measure.BenchmarkError):
        measure.check_identical({"a": 1.0}, {"a": 1.0000001}, "x")


def test_contract_file_is_within_the_driver_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = [w["name"] for w in CONTRACT["workloads"]]
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        names.append(metric["name"])
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
