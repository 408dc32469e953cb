"""The perf-regression gate: compare_documents and the CLI subcommand."""

import copy
import json

import pytest

from repro.bench import cli
from repro.bench.compare import compare_documents, render_compare, row_key
from repro.bench.targets import TARGETS


def make_doc(us_per_op=10.0, put_p99=40.0, stall_ns=0, syncs=100,
             device_bytes=1_000_000, rows=1):
    results = []
    for i in range(rows):
        results.append(
            {
                "store": "noblsm",
                "workload": "fillrandom",
                "value_size": 100,
                "ops": 5000,
                "us_per_op": us_per_op,
                "stall_ns": stall_ns,
                "syncs": syncs,
                "device_bytes_written": device_bytes,
                "latency_us": {"put": {"p99": put_p99}},
                "extras": {"num_channels": 1 + i, "background_threads": 1},
            }
        )
    return {"schema": "repro.bench/1", "meta": {"scale": 2000.0},
            "results": results}


def test_identical_documents_pass():
    doc = make_doc()
    report = compare_documents(doc, copy.deepcopy(doc))
    assert report.passed
    assert not report.regressions
    assert "PASS" in render_compare(report)


def test_ten_percent_throughput_regression_fails():
    base = make_doc(us_per_op=10.0)
    cur = make_doc(us_per_op=11.5)  # +15% > 10% threshold + 0.01 floor
    report = compare_documents(base, cur)
    assert not report.passed
    assert [d.metric for d in report.regressions] == ["us_per_op"]
    assert "REGRESSED" in render_compare(report)


def test_floor_absorbs_tiny_absolute_wobble():
    # syncs 2 -> 4 is +100% relative but within the absolute floor of 2
    base = make_doc(syncs=2)
    cur = make_doc(syncs=4)
    report = compare_documents(base, cur)
    assert report.passed


def test_p99_regression_fails():
    base = make_doc(put_p99=40.0)
    cur = make_doc(put_p99=60.0)  # +50% > 25% + 5us floor
    report = compare_documents(base, cur)
    assert any(d.metric == "put_p99_us" for d in report.regressions)


def test_missing_row_fails():
    base = make_doc(rows=2)
    cur = make_doc(rows=1)
    report = compare_documents(base, cur)
    assert not report.passed
    assert len(report.missing_rows) == 1
    assert "MISSING" in render_compare(report)


def test_new_rows_are_not_gated():
    base = make_doc(rows=1)
    cur = make_doc(rows=2)
    report = compare_documents(base, cur)
    assert report.passed
    assert len(report.new_rows) == 1


def test_improvements_never_regress():
    base = make_doc(us_per_op=10.0, put_p99=40.0, syncs=100)
    cur = make_doc(us_per_op=5.0, put_p99=20.0, syncs=50)
    report = compare_documents(base, cur)
    assert report.passed
    assert all(d.ratio <= 1.0 for d in report.deltas)


def test_schema_mismatch_rejected():
    with pytest.raises(ValueError):
        compare_documents({"schema": "other/1", "results": []}, make_doc())
    with pytest.raises(ValueError):
        compare_documents(make_doc(), {"schema": "repro.bench/1"})


def test_row_key_includes_parallelism_extras():
    doc = make_doc(rows=2)
    keys = {row_key(r) for r in doc["results"]}
    assert len(keys) == 2  # rows differ only in num_channels


def test_default_metrics_all_have_floors():
    metrics = [m for t in TARGETS.values() for m in t.metrics]
    assert metrics and all(m.floor > 0 for m in metrics)


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_compare_identical_exits_zero(tmp_path, capsys):
    base = write_doc(tmp_path / "base.json", make_doc())
    cur = write_doc(tmp_path / "cur.json", make_doc())
    assert cli.main(["compare", base, cur]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_compare_regression_exits_nonzero(tmp_path, capsys):
    base = write_doc(tmp_path / "base.json", make_doc(us_per_op=10.0))
    cur = write_doc(tmp_path / "cur.json", make_doc(us_per_op=11.5))
    assert cli.main(["compare", base, cur]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_compare_needs_two_paths(capsys):
    assert cli.main(["compare"]) == 2
    assert cli.main(["compare", "one.json"]) == 2
