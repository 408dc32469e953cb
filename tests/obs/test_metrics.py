"""Unit tests for the metric registry and its instruments."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NULL_WINDOWED_HISTOGRAM,
    NullRegistry,
    WindowedHistogram,
    default_latency_buckets,
)


def test_counter_and_gauge_basics():
    c = Counter("x")
    c.inc()
    c.inc(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0

    g = Gauge("y")
    g.set(10)
    g.add(-3)
    assert g.value == 7


def test_default_buckets_strictly_increasing():
    bounds = default_latency_buckets()
    assert list(bounds) == sorted(set(bounds))
    assert bounds[0] == 1_000  # 1 us
    assert bounds[-1] == 5 * 10**10  # 50 s


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(5, 2, 10))
    with pytest.raises(ValueError):
        Histogram("dup", buckets=(1, 1, 2))


def test_histogram_exact_aggregates():
    h = Histogram("lat")
    for v in (100, 200, 300, 400):
        h.record(v)
    assert h.count == 4
    assert h.sum == 1000
    assert h.min == 100
    assert h.max == 400
    assert h.mean == 250.0


def test_histogram_percentiles_clamped_and_ordered():
    h = Histogram("lat")
    for v in range(1, 101):
        h.record(v * 1000)
    assert h.min <= h.p50 <= h.p95 <= h.p99 <= h.max
    # p50 of a uniform 1..100k spread lands mid-range
    assert 20_000 < h.p50 < 80_000
    # percentile of an empty histogram is 0
    assert Histogram("empty").p99 == 0.0
    with pytest.raises(ValueError):
        h.percentile(0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_single_value_percentiles_are_exact():
    h = Histogram("lat")
    h.record(12_345)
    assert h.p50 == 12_345
    assert h.p99 == 12_345


def test_registry_caches_instruments_by_name():
    reg = MetricRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.gauge("b") is reg.gauge("b")
    assert reg.histogram("c") is reg.histogram("c")
    assert reg.find_histogram("c") is reg.histogram("c")
    assert reg.find_histogram("never-created") is None


def test_registry_snapshot_sections():
    reg = MetricRegistry()
    reg.counter("hits").inc(3)
    reg.gauge("depth").set(2)
    reg.histogram("lat").record(500)
    reg.register_source("component", lambda: {"k": 1})
    snap = reg.snapshot()
    assert snap["counters"] == {"hits": 3}
    assert snap["gauges"] == {"depth": 2}
    assert snap["histograms"]["lat"]["count"] == 1
    assert snap["sources"] == {"component": {"k": 1}}
    assert set(snap) == {"counters", "gauges", "histograms", "windowed", "sources"}


def test_registry_reset_zeroes_instruments_keeps_sources():
    reg = MetricRegistry()
    reg.counter("hits").inc(3)
    reg.histogram("lat").record(500)
    span = reg.start_span("op", at=0)
    span.end(10)
    reg.register_source("component", lambda: {"k": 1})
    reg.reset()
    snap = reg.snapshot()
    assert snap["counters"] == {"hits": 0}
    assert snap["histograms"]["lat"]["count"] == 0
    assert snap["sources"] == {"component": {"k": 1}}


def test_null_registry_is_shared_noops():
    assert NULL_REGISTRY.enabled is False
    assert MetricRegistry.enabled is True
    assert NULL_REGISTRY.counter("a") is NULL_COUNTER
    assert NULL_REGISTRY.gauge("b") is NULL_GAUGE
    assert NULL_REGISTRY.histogram("c") is NULL_HISTOGRAM
    NULL_REGISTRY.counter("a").inc(100)
    NULL_REGISTRY.histogram("c").record(123)
    assert NULL_COUNTER.value == 0
    assert NULL_HISTOGRAM.count == 0
    assert NULL_REGISTRY.snapshot() == {}
    # sources are dropped, not held
    NULL_REGISTRY.register_source("x", lambda: {})
    assert NULL_REGISTRY.snapshot() == {}
    assert isinstance(NULL_REGISTRY, NullRegistry)


def test_windowed_histogram_routes_values_by_window():
    wh = WindowedHistogram("lat", window_ns=1000)
    wh.record(0, 100)
    wh.record(999, 200)
    wh.record(1000, 5000)
    wh.record(2500, 300)
    assert wh.window_indices() == [0, 1, 2]
    assert wh.windows[0].count == 2
    assert wh.windows[1].count == 1
    assert wh.windows[2].count == 1
    assert wh.count == 4 and wh.total.count == 4


def test_windowed_histogram_rejects_bad_window():
    with pytest.raises(ValueError):
        WindowedHistogram("bad", window_ns=0)


def test_windowed_histogram_spike_statistics():
    wh = WindowedHistogram("lat", window_ns=1000)
    # four flat windows at ~2us, one spike window at ~5ms
    for index in range(5):
        value = 5_000_000 if index == 2 else 2_000
        for i in range(100):
            wh.record(index * 1000 + i, value)
    worst = wh.max_over_windows(99.9)
    median = wh.median_over_windows(99.9)
    assert worst > median > 0
    assert worst >= 5_000_000 * 0.9  # the spike window dominates
    series = wh.series(99.9)
    assert [index for index, _ in series] == [0, 1, 2, 3, 4]
    assert max(v for _, v in series) == worst
    # empty histogram degenerates to zero, not an error
    empty = WindowedHistogram("none", window_ns=10)
    assert empty.max_over_windows(99.9) == 0.0
    assert empty.median_over_windows(99.9) == 0.0


def test_windowed_histogram_snapshot_and_reset():
    wh = WindowedHistogram("lat", window_ns=1000)
    wh.record(10, 500)
    wh.record(1500, 700)
    snap = wh.snapshot()
    assert snap["window_ns"] == 1000
    assert snap["windows"] == 2
    assert snap["count"] == 2
    assert snap["max_windowed_p999"] >= snap["median_windowed_p999"] > 0
    wh.reset()
    assert wh.count == 0 and wh.window_indices() == []


def test_registry_windowed_histograms_cached_and_snapshotted():
    reg = MetricRegistry()
    wh = reg.windowed_histogram("soak.put_ns", 1000)
    assert reg.windowed_histogram("soak.put_ns", 1000) is wh
    assert reg.find_windowed_histogram("soak.put_ns") is wh
    assert reg.find_windowed_histogram("absent") is None
    wh.record(0, 100)
    snap = reg.snapshot()
    assert snap["windowed"]["soak.put_ns"]["count"] == 1
    reg.reset()
    assert reg.find_windowed_histogram("soak.put_ns").count == 0


def test_null_registry_windowed_histogram_is_noop():
    wh = NULL_REGISTRY.windowed_histogram("x", 1000)
    assert wh is NULL_WINDOWED_HISTOGRAM
    wh.record(0, 123)
    assert wh.count == 0
    assert wh.window_indices() == []


def test_count_over_is_exact_at_bucket_bounds():
    """count_over splits good/bad exactly when the bound is a bucket edge.

    Buckets hold ``(lo, hi]``, so a value equal to the bound counts as
    *within* it — meeting a 100 us objective at exactly 100 us is good.
    """
    h = Histogram("lat")
    h.record(50_000)
    h.record(100_000)   # == bound: within
    h.record(100_001)   # strictly over
    h.record(5_000_000)
    assert h.count_over(100_000) == 2
    assert h.count_over(50_000) == 3
    # over the top bucket bound nothing can be counted twice
    assert h.count_over(h.bounds[-1]) == 0
    # a non-bound threshold counts the whole enclosing bucket as over
    assert h.count_over(99_999) == 3
    # empty histogram: zero, not an error
    assert Histogram("empty").count_over(100_000) == 0


def test_windowed_histogram_single_sample_median():
    wh = WindowedHistogram("lat", window_ns=1000)
    wh.record(100, 500)
    assert wh.median_over_windows(99.9) == wh.max_over_windows(99.9) > 0


def test_windowed_histogram_gap_windows_do_not_dilute_median():
    """Only materialised windows enter the stats — gaps are not zeros."""
    wh = WindowedHistogram("lat", window_ns=1000)
    wh.record(100, 1_000_000)   # window 0: slow
    wh.record(5_500, 1_000_000)  # window 5: slow; 1-4 never existed
    assert wh.window_indices() == [0, 5]
    assert wh.median_over_windows(99.9) == wh.max_over_windows(99.9)


def test_null_windowed_histogram_record_allocates_nothing():
    assert NULL_WINDOWED_HISTOGRAM.windows == {}
    NULL_WINDOWED_HISTOGRAM.record(123, 456)
    NULL_WINDOWED_HISTOGRAM.record(999_999, 1)
    assert NULL_WINDOWED_HISTOGRAM.windows == {}  # no lazy Histogram made
    assert NULL_WINDOWED_HISTOGRAM.count == 0


def test_registry_iterators_are_sorted_and_null_is_empty():
    reg = MetricRegistry()
    reg.counter("b.ops")
    reg.counter("a.ops")
    reg.gauge("z.depth")
    reg.windowed_histogram("m.lat", 1000)
    assert [n for n, _ in reg.iter_counters()] == ["a.ops", "b.ops"]
    assert [n for n, _ in reg.iter_gauges()] == ["z.depth"]
    assert [n for n, _ in reg.iter_windowed()] == ["m.lat"]
    assert NULL_REGISTRY.iter_counters() == []
    assert NULL_REGISTRY.iter_gauges() == []
    assert NULL_REGISTRY.iter_windowed() == []
