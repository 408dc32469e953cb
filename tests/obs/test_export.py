"""Tests for the JSON export document and the per-layer breakdown."""

import json

from repro.obs.export import (
    SCHEMA,
    layer_breakdown,
    registry_document,
    to_json,
    write_json,
)
from repro.obs.metrics import MetricRegistry


def _populated_registry():
    reg = MetricRegistry()
    reg.register_source("device", lambda: {"busy_ns": 1_000})
    reg.start_span("journal.commit", at=0).end(200)
    reg.start_span("db.compaction.minor", at=0).end(300)
    reg.start_span("db.compaction.major", at=100).end(500)
    reg.counter("db.stall.l0_slowdown_ns").inc(50)
    reg.counter("db.stall.memtable_wait_ns").inc(20)
    reg.counter("db.stall.l0_stop_ns").inc(30)
    return reg


def test_layer_breakdown_from_well_known_names():
    breakdown = layer_breakdown(_populated_registry())
    assert breakdown == {
        "device": 1_000,
        "journal": 200,
        "compaction": 700,  # 300 minor + 400 major
        "stalls": 100,  # 50 + 20 + 30
    }


def test_layer_breakdown_of_empty_registry_is_zero():
    assert layer_breakdown(MetricRegistry()) == {
        "device": 0,
        "journal": 0,
        "compaction": 0,
        "stalls": 0,
    }


def test_registry_document_shape_and_schema():
    doc = registry_document(_populated_registry(), meta={"run": "unit"})
    assert doc["schema"] == SCHEMA == "repro.obs/1"
    assert doc["meta"] == {"run": "unit"}
    for key in ("counters", "gauges", "histograms", "sources", "breakdown_ns"):
        assert key in doc, key
    assert "spans" not in doc
    assert doc["sources"]["device"] == {"busy_ns": 1_000}


def test_to_json_round_trips():
    text = to_json(_populated_registry(), meta={"k": "v"})
    parsed = json.loads(text)
    assert parsed["schema"] == SCHEMA
    assert parsed["breakdown_ns"]["compaction"] == 700


def test_write_json_creates_readable_file(tmp_path):
    path = tmp_path / "obs.json"
    doc = write_json(str(path), _populated_registry(), meta={"k": 1})
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    assert on_disk["meta"] == {"k": 1}
