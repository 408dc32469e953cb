"""End-to-end observability acceptance tests.

The tentpole's contract: an observed db_bench run reports per-layer
virtual-time breakdown, put/get percentiles and a valid JSON document —
and observing changes *nothing* about the simulated timing, because
recording never touches the virtual clock.
"""

import json

from repro.bench.db_bench import WORKLOADS, run_workload
from repro.bench.harness import ScaledConfig
from repro.bench.report import (
    RESULTS_SCHEMA,
    format_breakdown_table,
    format_latency_table,
    results_document,
    write_json,
)
from repro.obs.export import SCHEMA, registry_document

SCALE = 2000.0
NUM_OPS = 1500


def _config(observe=False, trace=False):
    return ScaledConfig(
        scale=SCALE, num_ops=NUM_OPS, observe=observe, trace=trace
    )


def test_observation_does_not_change_virtual_timing():
    plain = run_workload("fillrandom", "noblsm", _config(observe=False))
    observed = run_workload("fillrandom", "noblsm", _config(observe=True))
    assert observed.virtual_ns == plain.virtual_ns
    assert observed.sync_calls == plain.sync_calls
    assert observed.device_bytes_written == plain.device_bytes_written
    assert observed.stall_ns == plain.stall_ns
    # only the observed run carries the extra sections
    assert plain.latency_us == {} and plain.breakdown_ns == {}
    assert observed.latency_us != {} and observed.breakdown_ns != {}


def test_observed_run_reports_breakdown_and_percentiles():
    result = run_workload("fillrandom", "noblsm", _config(observe=True))
    assert set(result.breakdown_ns) == {"device", "journal", "compaction", "stalls"}
    assert result.breakdown_ns["device"] > 0
    # the scaled run seals memtables, so compaction spans must exist
    assert result.minor_compactions > 0
    assert result.breakdown_ns["compaction"] > 0

    put = result.latency_us["put"]
    assert put["count"] == NUM_OPS
    assert 0 < put["p50"] <= put["p95"] <= put["p99"]


def test_traced_run_keeps_minor_compaction_roots_and_exports():
    config = _config(trace=True)
    result, stack, _ = WORKLOADS["fillrandom"]("noblsm", config)
    roots = [s for s in stack.obs.tracer.spans if s.parent is None]
    minor = next(s for s in roots if s.name == "db.compaction.minor")
    assert minor.attrs["input_bytes"] > 0
    doc = registry_document(stack.obs, meta={"workload": "fillrandom"})
    assert doc["schema"] == SCHEMA
    assert doc["meta"]["workload"] == "fillrandom"
    assert doc["breakdown_ns"] == result.breakdown_ns
    assert doc["histograms"]["db.put_ns"]["count"] == NUM_OPS
    assert "journal" in doc["sources"] and "device" in doc["sources"]
    json.dumps(doc)  # must not raise


def test_results_json_document(tmp_path):
    result = run_workload("fillrandom", "noblsm", _config(observe=True))
    path = tmp_path / "results.json"
    doc = write_json(
        str(path), results_document([result], meta={"suite": "unit"})
    )
    assert doc["schema"] == RESULTS_SCHEMA
    on_disk = json.loads(path.read_text())
    assert on_disk["meta"] == {"suite": "unit"}
    (row,) = on_disk["results"]
    assert row["store"] == "noblsm"
    assert row["breakdown_ns"]["device"] > 0
    assert row["latency_us"]["put"]["p99"] >= row["latency_us"]["put"]["p50"]
    # document builder matches the file
    assert results_document([result], meta={"suite": "unit"}) == doc


def test_report_tables_render_observed_columns():
    result = run_workload("fillrandom", "noblsm", _config(observe=True))
    latency = format_latency_table([result])
    assert "p99" in latency and "noblsm" in latency and "put" in latency
    breakdown = format_breakdown_table([result])
    assert "compaction" in breakdown and "noblsm" in breakdown
    # unobserved lists degrade gracefully
    assert "no observed runs" in format_latency_table([])
    assert "no observed runs" in format_breakdown_table([])


def test_journal_commit_spans_carry_transaction_attrs():
    config = _config(trace=True)
    stack, db = config.build_store("leveldb")
    t = stack.now
    for i in range(200):
        t = db.put(b"k%06d" % i, b"v" * 512, at=t)
    t = db.wait_for_background(t)
    stack.settle()
    commits = [s for s in stack.obs.tracer.spans if s.name == "journal.commit"]
    assert commits, "journal should have committed at least once"
    span = commits[0]
    assert span.ended
    assert span.attrs["tid"] >= 1
    assert span.attrs["inodes"] >= 0
    assert "forced" in span.attrs
