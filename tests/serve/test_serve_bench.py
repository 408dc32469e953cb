"""Integration tests for the serve benchmark and its gate wiring.

One small hot-tenant overload pair (untuned + fair) is run once per
module and every assertion reads from it: the untuned cluster must
actually hit backpressure, the fair-scheduled twin must beat it on the
worst tenant's tail, and the resulting ``repro.serve/1`` document must
be deterministic (modulo the host section) and gateable by
``repro.bench.compare``.
"""

import copy
import gc
import json
from dataclasses import replace

import pytest

from repro.bench.compare import compare_documents
from repro.bench.report import results_document, write_json
from repro.bench.targets import SERVE_METRICS
from repro.obs.spans import Span
from repro.serve.bench import (
    SERVE_SCHEMA,
    ServeConfig,
    render_serve,
    render_timeline,
    run_serve,
    run_serve_pair,
)

#: hot enough that the untuned hot shard queues *and* sheds, small
#: enough for a unit-test budget (~2.5 s for the pair)
SMALL = ServeConfig(
    num_shards=2,
    num_tenants=3,
    arrival_rate=90_000.0,
    duration_s=0.06,
    window_ms=10.0,
)

#: even smaller, for tests that need their own runs
TINY = ServeConfig(
    num_shards=2,
    num_tenants=3,
    arrival_rate=60_000.0,
    duration_s=0.03,
    window_ms=10.0,
)


@pytest.fixture(scope="module")
def pair():
    return run_serve_pair(SMALL)


def canonical(doc):
    """The byte-deterministic view: host wall-clock stripped."""
    doc = copy.deepcopy(doc)
    for row in doc["results"]:
        row.pop("host", None)
    return doc


def test_pair_runs_untuned_then_fair(pair):
    base, fair = pair
    assert base.workload == "serve"
    assert fair.workload == "serve-fair"
    # same open-loop stream: both variants face identical offered load
    assert base.num_ops == fair.num_ops > 0


def test_admission_control_engages_on_the_untuned_cluster(pair):
    base, _ = pair
    assert base.shed > 0
    assert base.queued > 0
    # shedding happens at the hot shard, attributed to a pressure cause
    sheds = {s.shard: s.admission["shed"] for s in base.shards}
    assert sum(sheds.values()) == base.shed
    causes = {}
    for shard in base.shards:
        for cause, count in shard.admission["shed_by_pressure"].items():
            causes[cause] = causes.get(cause, 0) + count
    assert sum(causes.values()) == base.shed
    assert causes, "sheds must carry a pressure cause"


def test_fair_scheduling_beats_untuned_on_worst_tenant_tail(pair):
    base, fair = pair
    assert fair.worst_tenant_p999_us < base.worst_tenant_p999_us
    assert fair.shed <= base.shed
    assert fair.blocked_ns <= base.blocked_ns


def test_accounting_adds_up(pair):
    for result in pair:
        assert result.served + result.shed == result.num_ops
        assert sum(t.served for t in result.tenants) == result.served
        assert sum(t.shed for t in result.tenants) == result.shed
        assert sum(s.served for s in result.shards) == result.served
        assert sum(s.shed for s in result.shards) == result.shed
        assert result.blocked_ns == sum(
            s.stalls["blocked_ns"] for s in result.shards
        )
        assert result.fairness_ratio >= 1.0
        assert result.worst_tenant_p999_us >= result.worst_tenant_p99_us
        assert result.windows, "timeline windows missing"
        if result.shed:
            assert 0 < sum(w["shed"] for w in result.windows) <= result.shed


def test_stalls_are_attributed_to_windows(pair):
    """Every write stall on every shard is charged, by cause, to the
    window where it began; the cause totals tile ``blocked_ns``."""
    base, _ = pair
    assert base.blocked_ns > 0, "the untuned pair must stall"
    for result in pair:
        assert result.windowed_p999_us >= result.median_p999_us > 0
        assert result.p999_ratio >= 1.0
        assert sum(result.stall_cause_ns.values()) == result.blocked_ns
        per_window = sum(sum(w["stall_ns"].values()) for w in result.windows)
        assert per_window <= result.blocked_ns
        assert max(w["max_stall_ns"] for w in result.windows) <= (
            result.max_stall_ns
        )
        for shard in result.shards:
            stalls = shard.stalls
            assert stalls["blocked_ns"] == (
                stalls["stall_ns"] + stalls["slowdown_ns"]
            )


def serve_document(results, meta=None):
    return results_document(results, meta, SERVE_SCHEMA)


def test_document_schema_and_shape(pair):
    doc = serve_document(pair, meta={"k": "v"})
    assert doc["schema"] == SERVE_SCHEMA
    assert doc["meta"] == {"k": "v"}
    rows = {r["workload"]: r for r in doc["results"]}
    assert set(rows) == {"serve", "serve-fair"}
    for row in rows.values():
        assert {"ops", "served", "shed", "queued", "fairness_ratio",
                "worst_tenant_p99_us", "worst_tenant_p999_us",
                "blocked_ns"} <= set(row)
        assert row["extras"] == {
            "num_shards": SMALL.num_shards,
            "num_tenants": SMALL.num_tenants,
        }
        tenants = {t["tenant"] for t in row["tenants"]}
        assert tenants == set(SMALL.load_config().tenant_ids())
        for tenant in row["tenants"]:
            assert {"p50_us", "p99_us", "p999_us",
                    "worst_window_p999_us"} <= set(tenant)
        assert len(row["shards"]) == SMALL.num_shards
    # the document round-trips through JSON
    assert json.loads(json.dumps(doc)) == doc


def test_serve_run_is_deterministic_modulo_host():
    a = serve_document([run_serve(TINY)])
    b = serve_document([run_serve(TINY)])
    assert canonical(a) == canonical(b)
    # only the host wall-clock may differ between identical runs
    assert json.dumps(canonical(a), sort_keys=True) == json.dumps(
        canonical(b), sort_keys=True
    )


def _spans_held_by(root):
    """Every Span reachable from ``root`` through plain containers."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for ref in gc.get_referents(obj):
            if isinstance(ref, Span):
                found.append(ref)
            elif isinstance(ref, (dict, list, tuple, set)):
                todo.append(ref)
    return found


def test_shard_registries_keep_no_span():
    clusters = []

    class Rig:
        """The telemetry hooks ``run_serve`` calls, recording nothing."""

        registry = None

        def on_cluster(self, cluster):
            clusters.append(cluster)

        def advance(self, at):
            pass

        def finish(self, at):
            pass

    result = run_serve(TINY, telemetry=Rig())
    assert result.num_ops > 0
    (cluster,) = clusters
    for shard in cluster.shards:
        obs = shard.stack.obs
        assert obs.find_histogram("span.fs.writeback_ns").count > 0
        assert _spans_held_by(obs) == []


def test_fair_variant_same_workload_different_tuning():
    fair = replace(TINY, fair=True)
    assert fair.variant == "serve-fair"
    assert TINY.variant == "serve"
    # every shard is tuned for the hot shard's ingest; untuned is stock
    assert fair.cluster_config().stability_ingest_bytes_per_sec == int(
        TINY.arrival_rate
        * TINY.write_fraction
        * (TINY.key_size + TINY.value_size)
        * 0.5
    )
    assert TINY.cluster_config().stability_ingest_bytes_per_sec == 0
    # the workload shape is untouched: same stream, same seed
    assert fair.load_config() == TINY.load_config()


def test_compare_gate_accepts_and_gates_serve_documents(pair):
    doc = serve_document(pair)
    report = compare_documents(doc, doc)
    assert report.passed
    gated = {d.metric for d in report.deltas}
    assert gated == {m.name for m in SERVE_METRICS}

    worse = canonical(doc)
    for row in worse["results"]:
        row["worst_tenant_p999_us"] = row["worst_tenant_p999_us"] * 10 + 1e4
    report = compare_documents(doc, worse)
    assert not report.passed
    assert all(
        d.metric == "worst_tenant_p999_us" for d in report.regressions
    )


def test_write_serve_json_round_trip(tmp_path, pair):
    path = tmp_path / "serve.json"
    doc = write_json(str(path), serve_document(pair, meta={"rate": 90_000}))
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    assert on_disk["schema"] == SERVE_SCHEMA


def test_renderers_tell_the_story(pair):
    base, fair = pair
    timeline = render_timeline(base)
    assert "shards x" in timeline and "tenants" in timeline
    assert "fairness (max/min tenant p99)" in timeline
    for tenant in SMALL.load_config().tenant_ids():
        assert tenant in timeline
    text = render_serve(pair)
    assert "stability: fair vs untuned" in text
    assert f"shed {base.shed} -> {fair.shed}" in text
    assert f"p99.9 ratio {base.p999_ratio:.2f}x -> {fair.p999_ratio:.2f}x" in text
    # the worst window names the stall cause under it
    assert "stall" in timeline and "[slow:" in timeline


def test_closed_loop_mode_runs():
    config = ServeConfig(
        num_shards=2,
        num_tenants=2,
        duration_s=0.005,
        mode="closed",
        clients_per_tenant=2,
        window_ms=5.0,
    )
    result = run_serve(config)
    assert result.mode == "closed"
    assert result.served > 0
    assert {t.tenant for t in result.tenants} == {"tenant0", "tenant1"}


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_serve(ServeConfig(duration_s=0.001, mode="bogus"))


def test_shard_registry_exposes_admission_source():
    """Each shard's stack registry carries its front-door stats, so a
    ``repro.obs/1`` snapshot of the shard sees admission alongside the
    fs/device metrics (PR 8 left these unregistered)."""
    from repro.serve.cluster import ServeCluster

    cluster = ServeCluster(TINY.cluster_config())
    from repro.serve.loadgen import open_loop

    for request in open_loop(TINY.load_config()):
        cluster.serve(request)
    for index, shard in enumerate(cluster.shards):
        snap = shard.stack.obs.snapshot()
        source = snap["sources"][f"serve.shard{index}.admission"]
        assert {"admitted", "queued", "shed", "queued_ns",
                "shed_by_pressure", "depth"} <= set(source)
        stats = shard.admission.stats
        assert source["admitted"] == stats.admitted
        assert source["shed"] == stats.shed
        # the snapshot's depth probe is the read-only view
        assert source["depth"] == shard.admission.peek_depth(shard.stack.now)


def test_cluster_without_telemetry_uses_null_front_door():
    """No cluster registry -> the shared null singletons, no accounting."""
    from repro.obs.metrics import NULL_COUNTER, NULL_REGISTRY
    from repro.serve.cluster import ServeCluster

    cluster = ServeCluster(TINY.cluster_config())
    assert cluster.obs is NULL_REGISTRY
    assert cluster._c_offered is NULL_COUNTER
    assert cluster._c_offered.value == 0


def test_hand_off_records_never_cross_shards():
    """Every shard numbers its files (and its stack its inodes) from the
    same start, so ``000007.ldb`` exists in each of them with different
    contents. A shard's table cache must hold records for its own tables
    only: each record has to describe the very bytes of that shard's
    file, and reads through the cluster have to return what was put."""
    from repro.lsm.filenames import table_file_name
    from repro.lsm.sstable import Table
    from repro.serve.cluster import ServeCluster
    from repro.serve.loadgen import OP_PUT, open_loop

    cluster = ServeCluster(TINY.cluster_config())
    model = {}
    last = 0
    for request in open_loop(TINY.load_config()):
        done = cluster.serve(request)
        if done is not None and request.op == OP_PUT:
            model[(request.tenant, request.key)] = request.value
            last = max(last, done)
    records = 0
    numbers = []
    for shard in cluster.shards:
        db, fs = shard.db, shard.stack.fs
        built = db.table_cache._built
        numbers.append(set(built))
        for number, record in built.items():
            path = table_file_name(db.dbname, number)
            assert fs.stat_size(path) == record.file_size
            from_bytes, _ = Table.open(fs, path, at=shard.stack.now)
            entries, _ = from_bytes.all_entries(at=shard.stack.now)
            assert entries == [
                pair for block in record.blocks for pair in block.entries()
            ]
            records += 1
    assert records and len(cluster.shards) >= 2
    # the busier shard has issued every number the other one's live
    # tables carry: a record keyed by number alone would have collided
    issued = [
        range(2, shard.db.versions.next_file_number)
        for shard in cluster.shards
    ]
    assert any(n in issued[1] for n in numbers[0]) or any(
        n in issued[0] for n in numbers[1]
    )
    for (tenant, key), value in model.items():
        shard = cluster.shards[cluster.router.shard_of(tenant, key)]
        got, _ = shard.db.get(
            cluster.router.storage_key(tenant, key), at=max(last, shard.stack.now)
        )
        assert got == value
