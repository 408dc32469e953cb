"""Unit tests for the figures entry points and the CLI (tiny scales)."""

import pytest

from repro.bench import figures
from repro.bench.cli import main


def test_fig4_subset_runs_fast():
    series = figures.fig4(
        "fillrandom",
        stores=["leveldb", "noblsm"],
        value_sizes=[256],
        scale=20_000,
    )
    assert set(series) == {"leveldb", "noblsm"}
    assert 256 in series["noblsm"]
    assert series["noblsm"][256] > 0


def test_fig4_unknown_workload_rejected():
    with pytest.raises(KeyError):
        figures.fig4("scanrandom")


def test_table1_subset():
    rows = figures.table1(stores=["leveldb", "noblsm"], scale=20_000)
    assert rows["noblsm"][0] < rows["leveldb"][0]


def test_render_helpers_produce_tables():
    series = figures.fig4(
        "readseq", stores=["noblsm"], value_sizes=[256], scale=20_000
    )
    text = figures.render_fig4("readseq", series)
    assert "Figure 4c" in text
    assert "noblsm" in text


def test_fig5_subset():
    series = figures.fig5(
        1, stores=["noblsm"], scale=50_000, workloads=["load-a", "c"]
    )
    assert "load-a" in series["noblsm"]
    assert "c" in series["noblsm"]


def test_cli_runs_target(capsys):
    exit_code = main(["fig4c", "--scale", "20000", "--stores", "noblsm"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Figure 4c" in out
    assert "noblsm" in out


def test_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        main(["fig9"])


def test_describe_snapshot():
    from repro.bench.harness import ScaledConfig

    config = ScaledConfig(scale=10_000)
    _, db = config.build_store("noblsm")
    t = 0
    for i in range(300):
        t = db.put(f"key{i % 200:05d}".encode(), b"v" * 200, at=t)
    info = db.describe()
    assert info["store"] == "noblsm"
    assert info["stats"]["puts"] == 300
    assert info["levels"]  # something got flushed
