"""The soak target: a one-shard serve run, its stability metrics and gate.

The soak gate is :func:`repro.serve.bench.soak_config` — one store, one
tenant, constant-rate puts, admission off — run untuned and fair. One
CI-sized pair is built per module and every gate-level assertion reads
from it; the source-level mutations rerun only the tuned twin.
Everything is virtual-time deterministic, so the tests assert exact
run-to-run equality and real tuned-vs-untuned improvement.
"""

import json
from dataclasses import replace

import pytest

from repro.bench import cli, targets
from repro.bench.compare import compare_documents
from repro.bench.report import results_document, write_json
from repro.bench.targets import SOAK_METRICS, SOAK_SCHEMA, TARGETS
from repro.lsm.pressure import stability_limiter
from repro.serve.bench import (
    ServeConfig,
    render_serve,
    render_timeline,
    run_serve,
    run_serve_pair,
    soak_config,
)

SOAK = TARGETS["soak"]

#: small enough for a determinism check
TINY = soak_config(duration_s=0.05, window_ms=10.0)


def soak_document(results, meta=None):
    return results_document(results, meta, SOAK_SCHEMA)


def check(results, out_dir):
    """The soak gate's check on a document holding ``results``."""
    write_json(str(out_dir / "soak.json"), soak_document(results))
    return SOAK.check(str(out_dir))


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    """The soak target at its CI size: (config, [untuned, tuned], dir)."""
    out_dir = tmp_path_factory.mktemp("soak-gate")
    runs = []

    def keep(config):
        runs.append((config, run_serve_pair(config)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(targets, "run_serve_pair", keep)
        argv = ["soak", *SOAK.ci_argv, "--json", str(out_dir)]
        assert cli.main(argv) == 0
    ((config, results),) = runs
    return config, results, out_dir


@pytest.fixture(scope="module")
def pair(gate_run):
    return gate_run[1]


def tuned_twin(config):
    result = run_serve(replace(config, fair=True))
    result.workload = "soak-tuned"
    return result


def test_run_soak_is_deterministic():
    a = run_serve(TINY).to_dict()
    b = run_serve(TINY).to_dict()
    a.pop("host", None)
    b.pop("host", None)
    assert a == b


def test_result_shape_and_window_accounting(pair):
    for result in pair:
        assert result.store == "noblsm"
        assert (result.num_shards, result.num_tenants) == (1, 1)
        assert result.num_ops == result.served > 0
        assert result.windows, "no latency windows recorded"
        assert sum(w["ops"] for w in result.windows) == result.num_ops
        assert result.windowed_p999_us >= result.median_p999_us > 0
        assert result.p999_ratio >= 1.0
        # stall spans were attributed: the cause totals tile the unified
        # blocked time exactly, and the per-window view never exceeds
        # them (a stall beginning after the last arrival window is only
        # in the totals)
        assert sum(result.stall_cause_ns.values()) == result.blocked_ns
        per_window = sum(sum(w["stall_ns"].values()) for w in result.windows)
        assert per_window <= result.blocked_ns
        assert max(
            (w["max_stall_ns"] for w in result.windows), default=0
        ) <= result.max_stall_ns
        (shard,) = result.shards
        stalls = shard.stalls
        assert stalls["blocked_ns"] == result.blocked_ns
        assert stalls["blocked_ns"] == stalls["stall_ns"] + stalls["slowdown_ns"]
    base, _ = pair
    assert base.blocked_ns > 0, "the untuned run must stall at CI size"


def test_tuned_variant_enables_the_stability_machinery():
    config = soak_config()
    tuned = replace(config, fair=True)
    assert (tuned.num_shards, tuned.num_tenants, tuned.max_queue) == (1, 1, 0)
    assert (tuned.write_fraction, tuned.diurnal_amplitude) == (1.0, 0.0)
    assert config.keys_per_tenant == config.expected_ops
    # one shard takes the whole ingest, so the tuning is sized to all of it
    ingest = int(config.arrival_rate * (config.key_size + config.value_size))
    assert tuned.cluster_config().stability_ingest_bytes_per_sec == ingest
    assert config.cluster_config().stability_ingest_bytes_per_sec == 0
    # the recipe the tuned store runs: 14x ingest cap, ingest/10 bucket
    limiter = stability_limiter(ingest)
    assert limiter.bytes_per_sec == 14 * ingest
    assert limiter.burst_bytes == ingest // 10
    # same workload, same seed: only the tuning differs
    assert tuned.load_config() == config.load_config()


def test_tuned_strictly_improves_stability(pair, gate_run):
    base, tuned = pair
    assert base.workload == "soak" and tuned.workload == "soak-tuned"
    # the gate's bar, strictly, on all four soak metrics
    assert tuned.p999_ratio < base.p999_ratio
    assert tuned.max_stall_ns < base.max_stall_ns
    assert tuned.windowed_p999_us < base.windowed_p999_us
    assert tuned.blocked_ns < base.blocked_ns
    assert SOAK.check(str(gate_run[2])) == []


def test_gate_trips_when_the_tuned_twin_loses_its_tuning(
    gate_run, monkeypatch, tmp_path
):
    """A source-level regression: no stability tuning on the tuned run."""
    config, (base, _), _ = gate_run
    monkeypatch.setattr(ServeConfig, "hot_shard_ingest", property(lambda c: 0))
    problems = check([base, tuned_twin(config)], tmp_path)
    assert any("p999_ratio" in p for p in problems), problems
    assert any("max_stall_ns" in p for p in problems), problems


def test_gate_trips_when_the_tuning_is_sized_for_half_the_ingest(
    gate_run, monkeypatch, tmp_path
):
    """A source-level regression: the fixed 0.5 hot-shard share, which
    sizes a one-shard run's tuning for half of what it ingests."""
    config, (base, _), _ = gate_run

    def half_share(c):
        per_op = c.key_size + c.value_size
        return int(c.arrival_rate * c.write_fraction * per_op * 0.5)

    monkeypatch.setattr(ServeConfig, "hot_shard_ingest", property(half_share))
    problems = check([base, tuned_twin(config)], tmp_path)
    assert any("max_stall_ns" in p for p in problems), problems


def test_soak_document_schema(gate_run):
    doc = json.loads((gate_run[2] / "soak.json").read_text())
    assert doc["schema"] == SOAK_SCHEMA
    assert doc["meta"]["target"] == "soak"
    assert {r["workload"] for r in doc["results"]} == {"soak", "soak-tuned"}
    row = doc["results"][0]
    for key in (
        "store",
        "ops",
        "value_size",
        "windowed_p999_us",
        "median_p999_us",
        "p999_ratio",
        "max_stall_ns",
        "blocked_ns",
        "stall_cause_ns",
        "throttled_jobs",
        "windows",
    ):
        assert key in row, key
    assert {"stall_ns", "max_stall_ns"} <= set(row["windows"][0])
    assert row["extras"] == {"num_shards": 1, "num_tenants": 1}


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


def test_render_smoke(pair, gate_run):
    text = render_serve(pair)
    assert "stability: fair vs untuned" in text
    assert "p99.9 ratio" in text and "max stall" in text
    assert "windowed p99.9" in text
    timeline = render_timeline(pair[0])
    assert "soak" in timeline and "#" in timeline
    assert "[slow:" in timeline  # a tail window names its stall cause
    assert (gate_run[2] / "soak-timeline.txt").read_text() == text + "\n"
