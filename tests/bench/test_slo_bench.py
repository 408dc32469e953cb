"""Integration tests for the flight recorder: sampler + SLOs + gate.

One small telemetry-on serve pair is run once per module and every
assertion reads from it: the untuned cluster's shed burst must fire a
fast-burn alert at a pinned virtual timestamp, the fair twin must stay
silent, attaching the rig must not change the serve numbers, and the
``repro.slo/1`` / ``repro.timeseries/1`` documents must be
deterministic and gateable by ``repro.bench.compare``.
"""

import copy
import json
import re

import pytest

from repro.bench.compare import compare_documents, report_payload
from repro.bench.report import results_document, write_json
from repro.bench.slo import (
    SLO_SCHEMA,
    SloConfig,
    Telemetry,
    check_discrimination,
    render_dashboard,
    render_slo,
    run_slo,
)
from repro.bench.targets import METRICS_BY_SCHEMA, SLO_METRICS
from repro.serve.bench import ServeConfig, run_serve, soak_config
from repro.serve.cluster import ServeCluster

#: the serve-bench SMALL shape: hot enough that the untuned hot shard
#: sheds, small enough for a unit-test budget (~3 s for the pair)
SMALL_SERVE = ServeConfig(
    num_shards=2,
    num_tenants=3,
    arrival_rate=90_000.0,
    duration_s=0.06,
    window_ms=10.0,
)

#: the untuned run's first fast-burn alert, pinned: the 54 ms sampler
#: tick is the first whose fast-rule short window sees the hot shard's
#: shed burst. Deterministic for this config + seed; a change here is a
#: behaviour change and must be explained, not waved through.
FIRST_FAST_BURN_NS = 54_000_000


def slo_document(results, meta=None):
    return results_document(results, meta, SLO_SCHEMA)


def small_config():
    return SloConfig(interval_ms=2.0, serve=SMALL_SERVE)


@pytest.fixture(scope="module")
def pair():
    return run_slo(small_config())


def test_pair_runs_untuned_then_fair(pair):
    base, fair = pair
    assert base.workload == "serve"
    assert fair.workload == "serve-fair"
    assert base.row["ops"] == fair.row["ops"] > 0
    assert base.row["samples"] == fair.row["samples"] > 0


def test_untuned_fires_fast_burn_at_pinned_timestamp(pair):
    base, _ = pair
    assert base.row["fast_burn_alerts"] >= 1
    assert base.row["first_fast_burn_at_ns"] == FIRST_FAST_BURN_NS
    # the sampler grid quantises alert times: every fire/resolve sits on
    # a tick boundary
    for monitor in base.telemetry.monitors:
        for alert in monitor.alerts:
            assert alert.fired_at_ns % base.telemetry.config.interval_ns == 0


def test_fair_twin_fires_nothing(pair):
    _, fair = pair
    assert fair.row["alerts_total"] == 0
    assert fair.row["bad_events"] == 0
    assert fair.row["max_burn"] == 0.0


def test_discrimination_check_passes_and_fails_correctly(pair):
    assert check_discrimination([r.row for r in pair]) == []
    # strip the untuned run's alerts -> the recorder failed its job
    muted = copy.deepcopy(pair[0].row)
    muted["fast_burn_alerts"] = 0
    problems = check_discrimination([muted])
    assert len(problems) == 1 and "fast-burn" in problems[0]
    # an alert on the tuned twin is equally a failure
    noisy = copy.deepcopy(pair[1].row)
    noisy["alerts_total"] = 2
    problems = check_discrimination([noisy])
    assert len(problems) == 1 and "0 alerts" in problems[0]


def test_telemetry_does_not_change_serve_numbers(pair):
    """The rig's own clock/queue never touches the shard stacks."""
    plain = run_serve(SMALL_SERVE)  # untuned already: tuning fields zero
    observed = pair[0].base
    a, b = plain.to_dict(), observed.to_dict()
    a.pop("host", None), b.pop("host", None)
    assert a == b


def test_expected_health_series_exist(pair):
    base, _ = pair
    series = base.telemetry.sampler.series
    for name in (
        "serve.offered.delta",
        "serve.served.delta",
        "serve.shed.delta",
        "serve.latency_ns.ops",
        "serve.latency_ns.p999",
        "shard0.pressure",
        "shard0.queue_depth",
        "shard0.debt_bytes",
        "slo.latency.burn",
        "slo.availability.burn",
    ):
        assert name in series, sorted(series)
    # offered = served + shed + nothing else, tick by tick
    offered = sum(v for _, v in series["serve.offered.delta"].points())
    served = sum(v for _, v in series["serve.served.delta"].points())
    shed = sum(v for _, v in series["serve.shed.delta"].points())
    assert offered == served + shed == base.row["ops"]


def test_slo_document_shape_and_round_trip(pair):
    doc = slo_document(pair, {"target": "slo"})
    assert doc["schema"] == SLO_SCHEMA and SLO_SCHEMA in METRICS_BY_SCHEMA
    assert [r["workload"] for r in doc["results"]] == ["serve", "serve-fair"]
    for row in doc["results"]:
        assert {"alerts_total", "fast_burn_alerts", "bad_events",
                "max_burn", "slos"} <= set(row)
        for slo in row["slos"]:
            assert {"spec", "rules", "good", "bad", "alerts"} <= set(slo)
    assert json.loads(json.dumps(doc)) == doc


def test_documents_are_deterministic():
    """Same config + seed -> byte-identical slo and timeseries exports."""
    tiny = SloConfig(
        interval_ms=2.0,
        serve=ServeConfig(
            num_shards=2, num_tenants=3, arrival_rate=60_000.0,
            duration_s=0.03, window_ms=10.0,
        ),
    )
    first = run_slo(tiny)
    second = run_slo(tiny)
    assert json.dumps(slo_document(first), sort_keys=True) == json.dumps(
        slo_document(second), sort_keys=True
    )
    for a, b in zip(first, second):
        assert json.dumps(a.telemetry.sampler.document(), sort_keys=True) == \
            json.dumps(b.telemetry.sampler.document(), sort_keys=True)


def test_write_json_files(tmp_path, pair):
    slo_path = tmp_path / "slo.json"
    doc = write_json(str(slo_path), slo_document(pair, {"target": "slo"}))
    assert json.loads(slo_path.read_text()) == doc
    ts_path = tmp_path / "timeseries-serve.json"
    ts_doc = write_json(
        str(ts_path), pair[0].telemetry.sampler.document({"w": "serve"})
    )
    on_disk = json.loads(ts_path.read_text())
    assert on_disk == ts_doc
    assert on_disk["schema"] == "repro.timeseries/1"
    assert on_disk["series"]["serve.offered.delta"]["points"]


def test_dashboard_renders_lanes_and_alert_markers(pair):
    text = render_dashboard(pair[0])
    assert "flight recorder" in text
    assert "slo.latency.burn" in text
    assert "!" in text  # alert overlay on the burn lanes
    assert "fired @54.0 ms" in text
    # every series gets exactly one lane
    lanes = [l for l in text.splitlines() if re.search(r"\|.*\|$", l)]
    assert len(lanes) >= len(pair[0].telemetry.sampler.series)
    full = render_slo(pair)
    assert "alert discrimination: PASS" in full


def test_compare_gates_alert_counts(pair):
    doc = slo_document(pair)
    same = compare_documents(doc, copy.deepcopy(doc))
    assert same.passed
    assert {d.metric for d in same.deltas} == {m.name for m in SLO_METRICS}
    # a new alert on a previously silent row fails the gate exactly
    noisy = copy.deepcopy(doc)
    noisy["results"][1]["alerts_total"] = 1
    noisy["results"][1]["fast_burn_alerts"] = 1
    report = compare_documents(doc, noisy)
    assert not report.passed
    regressed = {d.metric for d in report.regressions}
    assert "alerts_total" in regressed and "fast_burn_alerts" in regressed


def test_report_payload_is_machine_readable(pair):
    doc = slo_document(pair)
    noisy = copy.deepcopy(doc)
    noisy["results"][1]["alerts_total"] = 3
    report = compare_documents(doc, noisy)
    payload = report_payload(report)
    assert payload["schema"] == "repro.compare/1"
    assert payload["passed"] is False
    assert payload["regression_count"] == len(report.regressions)
    flagged = [d for d in payload["deltas"] if d["regressed"]]
    assert flagged and flagged[0]["metric"] == "alerts_total"
    assert json.loads(json.dumps(payload)) == payload


def test_soak_scenario_wires_store_probes():
    """The recorder flies over the one-store soak preset too: the
    store's health probes bind, and the soak outcome does not move."""
    soak = soak_config(duration_s=0.05, window_ms=10.0)
    results = run_slo(SloConfig(interval_ms=2.0, serve=soak))
    assert [r.workload for r in results] == ["serve", "serve-fair"]
    base, tuned = results
    series = base.telemetry.sampler.series
    assert "serve.latency_ns.ops" in series
    assert "shard0.pressure" in series
    assert "shard0.debt_bytes" in series
    assert "slo.latency.burn" in series
    # the tuned twin runs with a rate limiter -> its token level appears
    assert "shard0.ratelimit_tokens" in tuned.telemetry.sampler.series
    # attaching telemetry must not change the soak outcome either
    plain = run_serve(soak)
    a, b = plain.to_dict(), base.base.to_dict()
    a.pop("host", None), b.pop("host", None)
    assert a == b


def test_telemetry_rig_wires_once():
    config = small_config()
    rig = Telemetry(config)
    cluster = ServeCluster(config.serve.cluster_config(), obs=rig.registry)
    rig.on_cluster(cluster)
    with pytest.raises(RuntimeError):
        rig.on_cluster(cluster)
