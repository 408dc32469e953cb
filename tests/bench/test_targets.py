"""The bench-target registry behind ``python -m repro.bench``.

Each target takes its real defaults and only the flags it honours; each
figure is computed once however it is rendered; and every gate trips on
a planted regression. The planted-regression tests copy a gate's
committed baselines into a temp dir, break one invariant (or push one
gated metric past its threshold) and assert ``check`` (or ``compare``)
reports it — no simulation runs, so they stay cheap. One source-level
regression runs Table 1 at its CI size with NobLSM's central change
undone and asserts its gate notices.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import cli, figures, targets
from repro.bench.compare import compare_documents
from repro.bench.targets import GATES, METRICS_BY_SCHEMA, TARGETS, VLOG_KINDS
from repro.core.noblsm import NobLSM
from repro.lsm.db import DB

REPO = Path(__file__).resolve().parents[2]
BASELINES = REPO / "benchmarks" / "baselines"


def test_fillrandom_takes_its_real_defaults(tmp_path):
    """``--num 240`` and ``--seed 0`` used to read as 'unset'."""
    argv = ["fillrandom", "--num", "240", "--seed", "0", "--json", str(tmp_path)]
    assert cli.main(argv) == 0
    doc = json.loads((tmp_path / "fillrandom.json").read_text())
    assert doc["results"][0]["ops"] == 240
    assert doc["meta"]["seed"] == 0


def test_fig2b_takes_its_own_scale():
    """fig2b used to default to the db_bench figures' scale (500), not
    the 1000 its experiment is documented at."""
    args = cli.build_parser().parse_args(["fig2b"])
    assert args.scale == figures.FIG2B_SCALE == 1000.0


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--channels", "1,4"],
        ["slo", "--channels", "4", "--threads", "2"],
        ["soak", "--stores", "noblsm,leveldb"],
        ["fig2a", "--scale", "100"],
    ],
    ids=["serve-channel-list", "slo-channels", "soak-store-list",
         "fig2a-scale"],
)
def test_flags_a_target_does_not_honour_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_channels_and_threads_reach_the_serve_config(monkeypatch, capsys):
    seen = []

    def fake_pair(config):
        seen.append(config)
        return []

    monkeypatch.setattr(targets, "run_serve_pair", fake_pair)
    assert cli.main(["serve", "--channels", "4", "--threads", "2"]) == 0
    (config,) = seen
    assert (config.num_channels, config.background_threads) == (4, 2)


@pytest.mark.parametrize("chart", [False, True])
def test_figure_is_computed_once(monkeypatch, tmp_path, capsys, chart):
    calls = []

    def fake_fig4(workload, stores=None, value_sizes=(), scale=0.0):
        calls.append((workload, stores, scale))
        return {"noblsm": {256: 1.5, 1024: 2.5}}

    monkeypatch.setattr(figures, "fig4", fake_fig4)
    argv = ["fig4c", "--stores", "noblsm", "--json", str(tmp_path)]
    assert cli.main(argv + (["--chart"] if chart else [])) == 0
    assert calls == [("readseq", ["noblsm"], figures.DEFAULT_SCALE)]
    assert "Figure 4c" in capsys.readouterr().out
    doc = json.loads((tmp_path / "fig4c.json").read_text())
    assert doc == {
        "schema": "repro.figure/1",
        "figure": "fig4c",
        "workload": "readseq",
        "series": {"noblsm": {"256": 1.5, "1024": 2.5}},
    }


def test_targets_sharing_a_schema_share_its_metrics():
    for target in TARGETS.values():
        if target.metrics:
            assert METRICS_BY_SCHEMA[target.schema] == target.metrics


def test_package_import_stays_light():
    """``import repro.bench`` (what ``benchmarks/perf`` pulls in) must not
    load the registry or any target module."""
    code = (
        "import sys, repro.bench; "
        "print(sorted(m for m in sys.modules if m in "
        "('repro.bench.targets', 'repro.bench.cli', 'repro.bench.slo')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(REPO / "src")},
    ).stdout
    assert out.strip() == "[]"


# ----------------------------------------------------------------------
# the gate command, end to end
# ----------------------------------------------------------------------


def test_gate_passes_as_committed_and_fails_on_a_faster_baseline(
    tmp_path, monkeypatch, capsys
):
    baselines = tmp_path / "benchmarks" / "baselines"
    baselines.mkdir(parents=True)
    shutil.copy(BASELINES / "fillrandom.json", baselines)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gate", "fillrandom"]) == 0
    assert "GATE PASS fillrandom" in capsys.readouterr().out
    assert (tmp_path / "results" / "fillrandom-gate" / "compare.json").is_file()

    doc = json.loads((baselines / "fillrandom.json").read_text())
    doc["results"][0]["us_per_op"] /= 2
    (baselines / "fillrandom.json").write_text(json.dumps(doc))
    assert cli.main(["gate", "fillrandom"]) == 1
    assert "GATE FAIL fillrandom" in capsys.readouterr().out


# ----------------------------------------------------------------------
# every gate trips on a planted regression
# ----------------------------------------------------------------------


def _rows(doc):
    return {row["workload"]: row for row in doc["results"]}


def slow_sweep(doc):
    for row in doc["results"]:
        extras = row["extras"]
        if (extras["num_channels"], extras["background_threads"]) == (4, 2):
            extras["speedup"] = 1.2


def flat_soak(doc):
    rows = _rows(doc)
    rows["soak-tuned"]["p999_ratio"] = rows["soak"]["p999_ratio"]


def unfair_serve(doc):
    rows = _rows(doc)
    rows["serve-fair"]["worst_tenant_p999_us"] = (
        rows["serve"]["worst_tenant_p999_us"]
    )


def idle_admission(doc):
    untuned = _rows(doc)["serve"]
    untuned["shed"] = untuned["queued"] = 0


def noisy_tuned_slo(doc):
    _rows(doc)["serve-fair"]["alerts_total"] = 1


def empty_timeseries(doc):
    doc["samples"] = 0


def kv_without_gain(doc):
    rows = {(r["store"], r["value_size"]): r for r in doc["results"]}
    rows[("noblsm-kv", 4096)]["wa_device"] = rows[("noblsm", 4096)]["wa_device"]


def crash_violation(doc):
    doc["total_violations"] = 1


def sync_as_cheap_as_direct(doc):
    doc["series"]["sync"] = dict(doc["series"]["direct"])


def syncs_free_at_64mb(doc):
    points = doc["points"]
    points["fillrand-64MB-nosync"] = 0.9 * points["fillrand-64MB-sync"]


def noblsm_behind_bolt(doc):
    series = doc["series"]
    series["noblsm"]["256"] = series["bolt"]["256"]


def overwrite_gain_gone(doc):
    series = doc["series"]
    series["noblsm"]["4096"] = 0.9 * series["leveldb"]["4096"]


def readseq_far_apart(doc):
    series = doc["series"]
    series["noblsm"]["1024"] = 4 * series["leveldb"]["1024"]


def readrandom_slow(doc):
    series = doc["series"]
    series["noblsm"]["1024"] = 2 * series["leveldb"]["1024"]


def noblsm_syncs_like_leveldb(doc):
    stores = doc["stores"]
    stores["noblsm"]["syncs"] = stores["leveldb"]["syncs"]


def load_a_gain_gone(doc):
    series = doc["series"]
    series["noblsm"]["load-a"] = 0.9 * series["leveldb"]["load-a"]


def workload_c_slow(doc):
    series = doc["series"]
    series["noblsm"]["c"] = 1.5 * series["leveldb"]["c"]


#: (gate, file, planted regression, text the reported problem contains)
PLANTED = [
    ("parallelism", "parallelism.json", slow_sweep, "speed-up"),
    ("soak", "soak.json", flat_soak, "p999_ratio"),
    ("serve", "serve.json", unfair_serve, "worst_tenant_p999_us"),
    ("serve", "serve.json", idle_admission, "admission never engaged"),
    ("slo", "slo.json", noisy_tuned_slo, "expected 0 alerts"),
    ("slo", "timeseries-serve.json", empty_timeseries, "no samples"),
    ("amplification", "amplification.json", kv_without_gain, "wa_device"),
    ("crash-matrix", "crash-matrix.json", crash_violation, "violation"),
    ("fig2a", "fig2a.json", sync_as_cheap_as_direct, "sync/direct"),
    ("fig2b", "fig2b.json", syncs_free_at_64mb, "64MB no-sync vs sync"),
    ("fig4a", "fig4a.json", noblsm_behind_bolt, "noblsm vs bolt"),
    ("fig4b", "fig4b.json", overwrite_gain_gone, "at 4 KB"),
    ("fig4c", "fig4c.json", readseq_far_apart, "differ 4x"),
    ("fig4d", "fig4d.json", readrandom_slow, "1.5x leveldb"),
    ("table1", "table1.json", noblsm_syncs_like_leveldb, "syncs"),
    ("fig5a", "fig5a.json", load_a_gain_gone, "load-a"),
    ("fig5b", "fig5b.json", workload_c_slow, "1.2x leveldb"),
]


def clean_output(out_dir: Path, name: str) -> str:
    """A passing gate output dir: the committed baselines, or for the
    crash matrix (which has none) a clean CI-sized document."""
    for file in TARGETS[name].baselines:
        shutil.copy(BASELINES / file, out_dir)
    if name == "crash-matrix":
        modes = [
            {"mode": mode, "points_by_kind": {kind: 3 for kind in VLOG_KINDS}}
            for mode in ("noblsm", "sync", "noblsm-kv")
        ]
        doc = {
            "schema": "repro.crashmatrix/1",
            "modes": modes,
            "total_points": 180,
            "total_violations": 0,
        }
        (out_dir / "crash-matrix.json").write_text(json.dumps(doc))
    return str(out_dir)


def test_every_checked_gate_has_a_planted_regression():
    assert {p[0] for p in PLANTED} == {t.name for t in GATES if t.check}


@pytest.mark.parametrize(
    "name, document, plant, expected",
    PLANTED,
    ids=[f"{p[0]}-{p[2].__name__}" for p in PLANTED],
)
def test_check_trips_on_planted_regression(
    tmp_path, name, document, plant, expected
):
    check = TARGETS[name].check
    out_dir = clean_output(tmp_path, name)
    assert check(out_dir) == []
    path = tmp_path / document
    doc = json.loads(path.read_text())
    plant(doc)
    path.write_text(json.dumps(doc))
    problems = check(out_dir)
    assert any(expected in problem for problem in problems), problems


def test_table1_trips_when_noblsm_syncs_its_major_outputs(
    tmp_path, monkeypatch, capsys
):
    """A source-level regression: NobLSM persisting its compaction
    outputs the LevelDB way loses Table 1's sync reduction."""

    def sync_like_leveldb(db, outputs, at):
        # DB's hook, with the sync_major that noblsm_options clears
        db.options.sync.sync_major = True
        return DB._persist_major_outputs(db, outputs, at)

    monkeypatch.setattr(NobLSM, "_persist_major_outputs", sync_like_leveldb)
    table1 = TARGETS["table1"]
    assert cli.main(["table1", *table1.ci_argv, "--json", str(tmp_path)]) == 0
    problems = table1.check(str(tmp_path))
    assert any("noblsm vs leveldb syncs" in p for p in problems), problems


@pytest.mark.parametrize(
    "gate", [t for t in GATES if t.metrics], ids=lambda t: t.name
)
def test_compare_trips_on_planted_regression(gate):
    base = json.loads((BASELINES / f"{gate.name}.json").read_text())
    assert compare_documents(base, copy.deepcopy(base)).passed
    spec = gate.metrics[0]
    worse = copy.deepcopy(base)
    row = worse["results"][0]
    row[spec.name] = spec.limit(row[spec.name]) + 1
    report = compare_documents(base, worse)
    assert not report.passed
    assert [d.metric for d in report.regressions] == [spec.name]
