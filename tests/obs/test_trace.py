"""Causal tracing: trace ids, tracks, flows, Chrome export round-trips."""

import json

import pytest

from repro.bench.db_bench import run_fillrandom
from repro.bench.harness import ScaledConfig
from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.obs.trace import (
    Tracer,
    chrome_trace_document,
    validate_chrome_trace,
    write_chrome_trace,
)


def traced_registry():
    registry = MetricRegistry()
    tracer = Tracer(registry)
    return registry, tracer


# ----------------------------------------------------------------------
# tracer basics
# ----------------------------------------------------------------------


def test_tracer_requires_enabled_registry():
    with pytest.raises(ValueError):
        Tracer(NULL_REGISTRY)


def test_tracer_attaches_once():
    registry, _ = traced_registry()
    with pytest.raises(RuntimeError):
        Tracer(registry)


def test_root_spans_get_fresh_trace_ids():
    registry, _ = traced_registry()
    a = registry.start_span("db.write", 0)
    b = registry.start_span("db.write", 10)
    assert a.trace_id != 0
    assert b.trace_id == a.trace_id + 1


def test_children_inherit_trace_id():
    registry, _ = traced_registry()
    root = registry.start_span("db.write", 0)
    child = root.child("wal.append", 5)
    grandchild = child.child("inner", 6)
    assert child.trace_id == root.trace_id
    assert grandchild.trace_id == root.trace_id


def test_track_stack_stamps_spans():
    registry, tracer = traced_registry()
    root = registry.start_span("db.write", 0)
    assert root.track == "client"
    tracer.push_track("bg.db.t0")
    on_thread = registry.start_span("db.compaction.minor", 10)
    child = root.child("seg", 12)
    tracer.pop_track()
    assert on_thread.track == "bg.db.t0"
    # children take the track active at creation, not the parent's
    assert child.track == "bg.db.t0"
    assert registry.start_span("db.write", 20).track == "client"


def test_track_stack_underflow_raises():
    _, tracer = traced_registry()
    with pytest.raises(RuntimeError):
        tracer.pop_track()


def test_listener_collects_children_too():
    registry, tracer = traced_registry()
    root = registry.start_span("db.write", 0)
    root.child("wal.append", 1).end(2)
    root.end(3)
    assert sorted(s.name for s in tracer.spans) == ["db.write", "wal.append"]


def test_inode_bindings_and_commit_links():
    registry, tracer = traced_registry()
    produce = registry.start_span("db.compaction.minor", 0)
    produce.end(100)
    tracer.bind_inode(7, produce)
    commit = registry.start_span("journal.commit", 200)
    commit.end(250)
    tracer.note_commit({7, 99}, commit)  # 99 unknown: ignored
    assert tracer.commit_span_of(7) is commit
    assert tracer.commit_span_of(99) is None
    assert len(tracer.flows) == 1
    assert tracer.flows[0].name == "journal-commit"
    # a later commit must not re-link an already-committed inode
    tracer.note_commit({7}, registry.start_span("journal.commit", 300))
    assert len(tracer.flows) == 1
    tracer.drop_inode(7)
    assert tracer.commit_span_of(7) is None


def test_flow_src_clamped_to_dst():
    registry, tracer = traced_registry()
    src = registry.start_span("a", 0)
    src.end(500)
    dst = registry.start_span("b", 100)  # starts inside src
    dst.end(200)
    tracer.link(src, dst)
    assert tracer.flows[0].src_ts <= tracer.flows[0].dst_ts


def test_tracer_span_list_is_bounded(monkeypatch):
    monkeypatch.setattr(Tracer, "max_spans", 2)
    registry, tracer = traced_registry()
    for i in range(5):
        registry.start_span("op", at=i).end(i + 1)
    assert len(tracer.spans) == 2
    assert tracer.spans_dropped == 3
    # every finished span still fed the duration histogram
    assert registry.find_histogram("span.op_ns").count == 5


def test_registry_reset_clears_tracer():
    registry, tracer = traced_registry()
    registry.start_span("db.write", 0).end(5)
    tracer.io_slice("write", 0, 0, 10, 64, None)
    registry.reset()
    assert not tracer.spans
    assert not tracer.io_slices


# ----------------------------------------------------------------------
# Chrome export
# ----------------------------------------------------------------------


def test_chrome_document_validates_and_has_tracks():
    registry, tracer = traced_registry()
    registry.start_span("db.write", 1000).end(2000)
    tracer.push_track("bg.db.t0")
    registry.start_span("db.compaction.minor", 1500).end(9000)
    tracer.pop_track()
    tracer.io_slice("write", 0, 2000, 4000, 4096, "jbd2")
    doc = chrome_trace_document(tracer)
    validate_chrome_trace(doc)
    names = {
        e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        if e["name"] == "thread_name"
    }
    assert {"client", "bg.db.t0", "dev.ch0"} <= names


def test_chrome_export_clip_and_limit():
    registry, tracer = traced_registry()
    for i in range(10):
        registry.start_span("db.write", i * 1000).end(i * 1000 + 100)
    doc = chrome_trace_document(tracer, clip=(5000, 7000))
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 3  # spans at 5000, 6000, 7000
    doc = chrome_trace_document(tracer, limit=2)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 2
    assert xs[-1]["ts"] == 9.0  # keeps the LAST events


def test_validate_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": "nope"})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 1, "ts": -5, "dur": 1}
            ]}
        )


# ----------------------------------------------------------------------
# whole-stack round trips (multi-channel x multi-thread)
# ----------------------------------------------------------------------


def run_traced(**kwargs):
    config = ScaledConfig(scale=20000.0, seed=7, trace=True, **kwargs)
    result, stack, db = run_fillrandom("noblsm", config)
    return result, stack, db


def test_trace_survives_executor_handoff():
    _, stack, _ = run_traced(num_channels=4, background_threads=2)
    tracer = stack.obs.tracer
    minor_tracks = {
        s.track for s in tracer.spans if s.name == "db.compaction.minor"
    }
    assert minor_tracks  # dumps happened
    assert all(t.startswith("bg.") for t in minor_tracks)
    # causal arrows from client batches into background dumps exist
    kv_flows = [f for f in tracer.flows if f.name == "kv-batch"]
    assert kv_flows
    assert any(
        f.src_track == "client" and f.dst_track.startswith("bg.")
        for f in kv_flows
    )
    # journal commits run on the journal track and link to retirement
    assert any(s.track == "journal" for s in tracer.spans
               if s.name == "journal.commit")
    assert any(f.name == "journal-commit" for f in tracer.flows)


def test_per_thread_attribution_in_chrome_trace():
    _, stack, db = run_traced(num_channels=4, background_threads=2)
    doc = chrome_trace_document(stack.obs.tracer)
    validate_chrome_trace(doc)
    tracks = {
        e["args"]["name"] for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    # both background threads did work and appear as distinct tracks
    busy_threads = sum(1 for n in db.bg.thread_jobs if n)
    bg_tracks = {t for t in tracks if t.startswith("bg.")}
    assert len(bg_tracks) == busy_threads >= 2
    # several device channels saw I/O
    dev_tracks = {t for t in tracks if t.startswith("dev.ch")}
    assert len(dev_tracks) >= 2
    assert "dev.barrier" in tracks  # flushes happened
    # track -> tid mapping is injective
    tids = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "M" and e["name"] == "thread_name":
            tids[e["args"]["name"]] = e["tid"]
    assert len(set(tids.values())) == len(tids)


def test_export_byte_deterministic(tmp_path):
    paths = []
    for i in range(2):
        _, stack, _ = run_traced(num_channels=4, background_threads=2)
        path = tmp_path / f"trace{i}.json"
        write_chrome_trace(str(path), stack.obs.tracer, meta={"run": "x"})
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_written_trace_is_valid_json_and_schema(tmp_path):
    _, stack, _ = run_traced()
    path = tmp_path / "t.json"
    write_chrome_trace(str(path), stack.obs.tracer)
    doc = json.loads(path.read_text())
    count = validate_chrome_trace(doc)
    assert count > 100
    # every db.write span links back to its trace id
    writes = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"] == "db.write"
    ]
    assert writes and all(e["args"]["trace"] >= 1 for e in writes)


def test_tracing_never_moves_virtual_clock():
    config = dict(scale=20000.0, seed=7)
    plain, _, _ = run_fillrandom("noblsm", ScaledConfig(**config))
    observed, _, _ = run_fillrandom(
        "noblsm", ScaledConfig(observe=True, **config)
    )
    traced, _, _ = run_fillrandom(
        "noblsm", ScaledConfig(trace=True, **config)
    )
    assert plain.virtual_ns == observed.virtual_ns == traced.virtual_ns
    assert plain.sync_calls == traced.sync_calls


def test_noblsm_retirement_closes_causal_chain():
    _, stack, db = run_traced()
    db.close(stack.now)
    tracer = stack.obs.tracer
    retire_spans = [s for s in tracer.spans if s.name == "db.retire"]
    assert retire_spans  # shadows were reclaimed
    retire_flows = [f for f in tracer.flows if f.name == "retire"]
    assert retire_flows
    assert all(f.src_track == "journal" for f in retire_flows)
