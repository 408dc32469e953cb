"""Satellite: disabled observability is zero-cost on the hot path."""

import time

from repro.bench.db_bench import run_fillrandom
from repro.bench.harness import ScaledConfig
from repro.obs import metrics as metrics_module
from repro.obs import spans as spans_module


def run_once(**kwargs):
    config = ScaledConfig(scale=20000.0, seed=7, **kwargs)
    start = time.perf_counter()
    result, stack, db = run_fillrandom("noblsm", config)
    host = time.perf_counter() - start
    return result, host


def test_disabled_run_creates_no_spans(monkeypatch):
    """NULL_REGISTRY runs must not instantiate a single Span object."""
    created = []
    original = spans_module.Span.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(spans_module.Span, "__init__", counting_init)
    run_once()  # observe=False, trace=False -> NULL_REGISTRY everywhere
    assert not created


def test_disabled_run_creates_no_metric_instruments(monkeypatch):
    """NULL_REGISTRY runs must not instantiate any counter/gauge/histogram.

    The shared NULL_* singletons are created at import time, so any
    instantiation observed here would be a hot path allocating a real
    instrument despite observability being disabled.
    """
    created = []
    for cls in (
        metrics_module.Counter,
        metrics_module.Gauge,
        metrics_module.Histogram,
    ):
        original = cls.__init__

        def counting_init(self, *args, _original=original, **kwargs):
            created.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    run_once()  # observe=False, trace=False -> NULL_REGISTRY everywhere
    assert not created


def test_observability_never_changes_virtual_results():
    plain, _ = run_once()
    observed, _ = run_once(observe=True)
    traced, _ = run_once(trace=True)
    for other in (observed, traced):
        assert other.virtual_ns == plain.virtual_ns
        assert other.sync_calls == plain.sync_calls
        assert other.device_bytes_written == plain.device_bytes_written
        assert other.stall_ns == plain.stall_ns


def test_tracing_overhead_is_bounded():
    """Micro-bench: host cost of tracing stays within a generous bound.

    The bound is deliberately loose (50x) — the point is to catch an
    accidental O(n^2) or per-op I/O regression in the trace path, not to
    benchmark the host machine.
    """
    # warm up imports/caches so the first measured run isn't penalised
    run_once()
    _, base = run_once()
    _, traced = run_once(trace=True)
    assert traced < max(base, 0.05) * 50


def test_disabled_run_creates_no_timeseries_or_slo_objects(monkeypatch):
    """With no telemetry rig attached, the continuous-telemetry layer
    (PR 10) must never be constructed: no Series, no sampler, no SLO
    monitors — the disabled path stays allocation-free."""
    from repro.obs import slo as slo_module
    from repro.obs import timeseries as ts_module

    created = []
    for cls in (
        ts_module.Series,
        ts_module.TimeSeriesSampler,
        slo_module.SLOMonitor,
    ):
        original = cls.__init__

        def counting_init(self, *args, _original=original, **kwargs):
            created.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    run_once()
    assert not created


def test_pressure_gauge_only_exists_when_observed():
    """Write-pressure telemetry is gated on the observe flag."""
    config = ScaledConfig(scale=20000.0, seed=7)
    result, stack, db = run_fillrandom("noblsm", config)
    assert not hasattr(db.pressure, "_gauge")
    assert db.versions.on_install is None
    observed = ScaledConfig(scale=20000.0, seed=7, observe=True)
    result, stack, db = run_fillrandom("noblsm", observed)
    snap = stack.obs.snapshot()
    assert "db.write_pressure" in snap["gauges"]
    assert "db.write_pressure.transitions" in snap["counters"]
