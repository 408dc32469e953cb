"""Unit tests for the amplification analysis (tiny scale)."""

import json

import pytest

from repro.baselines.registry import PAPER_STORES
from repro.bench.amplification import measure_amplification
from repro.bench.harness import ScaledConfig


def small_config():
    return ScaledConfig(scale=10_000, value_size=512)


@pytest.fixture(scope="module")
def paper_reports():
    """Every paper store's amplification report at the small config."""
    return {
        store: measure_amplification(store, small_config())
        for store in PAPER_STORES
    }


def test_report_fields_sane(paper_reports):
    report = paper_reports["leveldb"]
    assert report.user_bytes > 0
    assert report.logical_bytes <= report.user_bytes
    assert report.wa_compaction >= 1.0
    assert report.wa_device >= report.wa_compaction * 0.5
    assert report.ra_point >= 1.0
    assert report.space_amplification >= 0.5
    row = report.row()
    assert set(row) == {"wa_device", "wa_compaction", "ra_point", "space_amp"}


def test_noblsm_matches_leveldb_compaction_wa(paper_reports):
    """NobLSM changes when data is persisted, not how much is rewritten."""
    assert paper_reports["noblsm"].wa_compaction == pytest.approx(
        paper_reports["leveldb"].wa_compaction, rel=0.30
    )


def test_pebblesdb_trades_read_for_write_amplification():
    """PebblesDB's guards rewrite less than LevelDB's levels but leave
    more files to probe; at 1 KiB the trade shows at scale 2000."""
    config = ScaledConfig(scale=2000, value_size=1024)
    leveldb = measure_amplification("leveldb", config)
    pebbles = measure_amplification("pebblesdb", config)
    assert pebbles.wa_compaction < leveldb.wa_compaction
    assert pebbles.ra_point > leveldb.ra_point * 0.9


def test_every_paper_store_settles_to_sane_space_amplification(
    paper_reports,
):
    """No store's shadows or garbage leave space amplification at 4x."""
    for store, report in paper_reports.items():
        assert report.space_amplification < 4.0, store


def test_table_get_restored_after_probe():
    from repro.lsm.sstable import Table

    before = Table.get
    measure_amplification("leveldb", small_config())
    assert Table.get is before  # monkeypatch cleaned up


def test_kv_sweep_reduces_write_amplification():
    """The separation claim at honest accounting: noblsm-kv must write
    strictly fewer bytes per user byte than noblsm at 4 KiB values,
    even with vLog appends counted into WA(compaction) and the full
    (garbage-included) vLog footprint counted into SA."""
    from repro.bench.amplification import run_amplification_sweep

    rows = run_amplification_sweep(
        value_sizes=(4096,), scale=2000.0, num_ops=2500
    )
    by_store = {row["store"]: row for row in rows}
    kv, plain = by_store["noblsm-kv"], by_store["noblsm"]
    assert kv["wa_device"] < plain["wa_device"]
    assert kv["wa_compaction"] < plain["wa_compaction"]
    assert kv["vlog_bytes"] > 0
    assert kv["vlog"]["vlog_appended_bytes"] > 0


def test_amplification_document_compares_cleanly():
    from repro.bench.amplification import (
        AMPLIFICATION_SCHEMA,
        amplification_document,
        run_amplification_sweep,
    )
    from repro.bench.compare import compare_documents

    rows = run_amplification_sweep(
        value_sizes=(1024,), scale=2000.0, num_ops=1500
    )
    doc = amplification_document(rows, {"target": "amplification"})
    assert doc["schema"] == AMPLIFICATION_SCHEMA
    report = compare_documents(doc, doc)
    assert report.passed
    gated = {d.metric for d in report.deltas}
    assert gated == {"wa_device", "wa_compaction", "ra_point", "space_amp"}


def test_render_amplification_lists_stores():
    from repro.bench.amplification import (
        render_amplification,
        run_amplification_sweep,
    )

    rows = run_amplification_sweep(
        value_sizes=(1024,), scale=2000.0, num_ops=1000
    )
    text = render_amplification(rows)
    assert "noblsm" in text and "noblsm-kv" in text


def test_dbbench_cli_runs(capsys, tmp_path):
    from repro.bench.dbbench_cli import main

    path = tmp_path / "smoke.json"
    exit_code = main(
        [
            "--store", "noblsm",
            "--benchmarks", "fillrandom,readrandom",
            "--num", "500",
            "--scale", "20000",
            "--observe",
            "--json", str(path),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "fillrandom" in out and "readrandom" in out
    assert "micros/op" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.bench/1"
    rows = doc["results"]
    assert len(rows) == 2
    for row in rows:
        assert row["breakdown_ns"]["device"] >= 0
        assert "stalls" in row["breakdown_ns"]
        assert "latency_us" in row


def test_dbbench_cli_rejects_unknown_benchmark(capsys):
    from repro.bench.dbbench_cli import main

    exit_code = main(
        ["--store", "noblsm", "--benchmarks", "nosuch", "--scale", "20000"]
    )
    assert exit_code == 2
