"""The soak target: windowed stability metrics, schema, and its gate.

Everything here is virtual-time deterministic, so the tests assert
exact run-to-run equality and real tuned-vs-untuned improvement, not
just structure.
"""

import json
from dataclasses import replace

import pytest

from repro.bench.compare import compare_documents
from repro.bench.report import results_document, write_json
from repro.bench.soak import (
    SOAK_SCHEMA,
    SoakConfig,
    render_soak,
    render_timeline,
    run_soak,
    run_soak_pair,
)
from repro.bench.targets import SOAK_METRICS
from repro.lsm.pressure import stability_limiter

#: small enough for the suite, long enough to reach the spike regime
SMALL = SoakConfig(duration_s=0.15, arrival_rate=40_000.0, window_ms=25.0)


def soak_document(results, meta=None):
    return results_document(results, meta, SOAK_SCHEMA)


@pytest.fixture(scope="module")
def pair():
    return run_soak_pair(replace(SMALL, duration_s=0.3))


def test_run_soak_is_deterministic():
    a = run_soak(SMALL).to_dict()
    b = run_soak(SMALL).to_dict()
    a.pop("host", None)
    b.pop("host", None)
    assert a == b


def test_result_shape_and_window_accounting():
    result = run_soak(SMALL)
    assert result.workload == "soak"
    assert result.store == "noblsm"
    assert result.num_ops > 0
    assert result.windows, "no latency windows recorded"
    assert sum(w.ops for w in result.windows) == result.num_ops
    assert result.windowed_p999_us >= result.median_p999_us > 0
    assert result.p999_ratio >= 1.0
    # stall spans were attributed: the cause totals tile the unified
    # blocked time exactly, and the per-window view never exceeds them
    # (a stall beginning after the last arrival window is only in the
    # totals)
    assert sum(result.stall_cause_ns.values()) == result.blocked_ns
    per_window = sum(sum(w.stall_ns.values()) for w in result.windows)
    assert per_window <= result.blocked_ns
    assert result.blocked_ns == result.stall_ns + result.slowdown_ns


def test_tuned_variant_enables_the_stability_machinery():
    tuned = replace(SMALL, tuned=True)
    assert tuned.variant == "soak-tuned"
    assert not SMALL.tuned and SMALL.variant == "soak"
    ingest = int(SMALL.arrival_rate * (SMALL.key_size + SMALL.value_size))
    assert tuned.ingest_bytes_per_sec == ingest
    # the recipe the tuned store runs: 14x ingest cap, ingest/10 bucket
    limiter = stability_limiter(ingest)
    assert limiter.bytes_per_sec == 14 * ingest
    assert limiter.burst_bytes == ingest // 10
    # same workload, same seed: only the tuning knobs differ
    assert (tuned.seed, tuned.arrival_rate, tuned.duration_s) == (
        SMALL.seed,
        SMALL.arrival_rate,
        SMALL.duration_s,
    )


def test_tuned_strictly_improves_stability(pair):
    base, tuned = pair
    assert base.workload == "soak" and tuned.workload == "soak-tuned"
    # the PR's acceptance bar: both gated improvement metrics, strictly
    assert tuned.p999_ratio < base.p999_ratio
    assert tuned.max_stall_ns < base.max_stall_ns
    assert tuned.windowed_p999_us < base.windowed_p999_us
    assert tuned.blocked_ns < base.blocked_ns


def test_soak_document_schema(pair):
    doc = soak_document(pair, meta={"target": "soak"})
    assert doc["schema"] == SOAK_SCHEMA
    assert doc["meta"]["target"] == "soak"
    assert {r["workload"] for r in doc["results"]} == {"soak", "soak-tuned"}
    row = doc["results"][0]
    for key in (
        "store",
        "ops",
        "value_size",
        "windowed_p999_us",
        "p999_ratio",
        "max_stall_ns",
        "blocked_ns",
        "l0_stop_abandoned",
        "windows",
    ):
        assert key in row, key
    assert row["extras"]["num_channels"] == 1
    assert row["extras"]["background_threads"] == 1


def test_write_soak_json_roundtrip(pair, tmp_path):
    path = tmp_path / "soak.json"
    doc = write_json(str(path), soak_document(pair))
    assert json.loads(path.read_text()) == doc


def test_compare_gate_accepts_soak_documents(pair):
    doc = soak_document(pair)
    report = compare_documents(doc, doc)
    assert report.passed
    # the soak metric set is what actually ran
    gated = {d.metric for d in report.deltas}
    assert gated == {m.name for m in SOAK_METRICS}


def test_compare_gate_flags_stability_regressions(pair):
    base_doc = soak_document(pair)
    cur_doc = json.loads(json.dumps(base_doc))
    for row in cur_doc["results"]:
        row["windowed_p999_us"] = row["windowed_p999_us"] * 10 + 1000
        row["max_stall_ns"] = row["max_stall_ns"] * 10 + 10_000_000
    report = compare_documents(base_doc, cur_doc)
    assert not report.passed
    regressed = {d.metric for d in report.regressions}
    assert "windowed_p999_us" in regressed
    assert "max_stall_ns" in regressed


def test_compare_gate_rejects_schema_mismatch(pair):
    bench_doc = {"schema": "repro.bench/1", "results": []}
    with pytest.raises(ValueError, match="schema mismatch"):
        compare_documents(bench_doc, soak_document(pair))


def test_render_smoke(pair):
    text = render_soak(pair)
    assert "stability: tuned vs untuned" in text
    assert "windowed p99.9" in text
    timeline = render_timeline(pair[0])
    assert "soak" in timeline and "#" in timeline
