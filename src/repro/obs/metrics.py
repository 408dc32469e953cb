"""The metric registry: counters, gauges, fixed-bucket histograms, spans.

One :class:`MetricRegistry` is the sink for everything a simulated
machine observes about itself. Components grab their instruments once
(``registry.counter("device.queue_ns")``) and record into them on the
hot path; instruments are cached by name so every layer referring to the
same name shares the same cell.

Recording must be **zero-cost when disabled**: the default registry on a
:class:`~repro.fs.stack.StorageStack` is :data:`NULL_REGISTRY`, whose
instruments are shared no-op singletons and whose ``enabled`` flag lets
hot paths skip recording blocks entirely. Benchmark numbers are
therefore unaffected unless observability is explicitly requested — and
because recording never touches the virtual clock, enabling it changes
*no* simulated timing, only host-side cost.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import NULL_SPAN, Span


def default_latency_buckets() -> Tuple[int, ...]:
    """1-2-5 log-spaced upper bounds from 1 us to 50 s (virtual ns)."""
    bounds: List[int] = []
    for exp in range(3, 11):
        for mantissa in (1, 2, 5):
            bounds.append(mantissa * 10**exp)
    return tuple(bounds)


DEFAULT_LATENCY_BUCKETS = default_latency_buckets()


class Counter:
    """A monotonically increasing integer cell."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A settable level (last-write-wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``buckets`` are inclusive upper bounds; values above the last bound
    land in an implicit overflow bucket. Percentiles interpolate linearly
    inside the winning bucket and are clamped to the observed min/max,
    so small-sample answers stay sane.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, buckets: Optional[Sequence[int]] = None
    ) -> None:
        self.name = name
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min = 0
        self.max = 0

    def record(self, value: int) -> None:
        value = int(value)
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.sum += value
        self.counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated value at percentile ``q`` (0 < q <= 100)."""
        if not 0 < q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.max
                )
                fraction = (target - cumulative) / bucket_count
                value = lower + (upper - lower) * fraction
                return float(min(max(value, self.min), self.max))
            cumulative += bucket_count
        return float(self.max)

    def count_over(self, bound: int) -> int:
        """Recorded values strictly greater than ``bound``.

        Exact when ``bound`` is one of the bucket bounds (buckets are
        inclusive upper bounds, so the buckets above it hold precisely
        the values ``> bound``) — and therefore a monotone integer as
        the histogram grows, which is what SLO good/bad accounting
        needs. A non-bound threshold counts the whole enclosing bucket
        as over (the threshold is effectively rounded down to the
        bucket's lower bound).
        """
        index = bisect.bisect_left(self.bounds, bound)
        if index < len(self.bounds) and self.bounds[index] == bound:
            index += 1
        return sum(self.counts[index:])

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min = 0
        self.max = 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.0f})"


class WindowedHistogram:
    """A histogram per fixed-width virtual-time window.

    Long-horizon stability analysis ("On Performance Stability in
    LSM-based Storage Systems") needs latency percentiles *per window*,
    not per run: a store can have a flat overall p99 and still spike to
    100x in one bad minute. Values are recorded with the virtual time
    they belong to (for request latency: the *arrival* time, so an op
    delayed across a window boundary is charged to the window whose load
    caused the delay) and land in the histogram of window
    ``at // window_ns``.

    Windows are materialised lazily in a dict, so sparse timelines cost
    nothing, and every window shares the same bucket layout so
    percentiles are comparable across the run.
    """

    __slots__ = ("name", "window_ns", "bounds", "windows", "total")

    def __init__(
        self,
        name: str,
        window_ns: int,
        buckets: Optional[Sequence[int]] = None,
    ) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.name = name
        self.window_ns = int(window_ns)
        self.bounds = (
            tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        )
        #: window index -> Histogram (indices are ``at // window_ns``)
        self.windows: Dict[int, Histogram] = {}
        #: run-wide histogram over the same values, for overall p99.9
        self.total = Histogram(name, self.bounds)

    def record(self, at: int, value: int) -> None:
        index = int(at) // self.window_ns
        hist = self.windows.get(index)
        if hist is None:
            hist = self.windows[index] = Histogram(
                f"{self.name}[{index}]", self.bounds
            )
        hist.record(value)
        self.total.record(value)

    @property
    def count(self) -> int:
        return self.total.count

    def window_indices(self) -> List[int]:
        return sorted(self.windows)

    def series(self, q: float) -> List[Tuple[int, float]]:
        """``(window_index, percentile(q))`` for every non-empty window."""
        return [
            (index, self.windows[index].percentile(q))
            for index in sorted(self.windows)
        ]

    def max_over_windows(self, q: float) -> float:
        """The worst windowed percentile — the spike the run hit."""
        if not self.windows:
            return 0.0
        return max(h.percentile(q) for h in self.windows.values())

    def median_over_windows(self, q: float) -> float:
        """The typical windowed percentile — the run's steady state."""
        if not self.windows:
            return 0.0
        values = sorted(h.percentile(q) for h in self.windows.values())
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2.0

    def reset(self) -> None:
        self.windows.clear()
        self.total.reset()

    def snapshot(self) -> Dict[str, object]:
        return {
            "window_ns": self.window_ns,
            "windows": len(self.windows),
            "count": self.total.count,
            "p50": self.total.p50,
            "p99": self.total.p99,
            "p999": self.total.percentile(99.9),
            "max_windowed_p999": self.max_over_windows(99.9),
            "median_windowed_p999": self.median_over_windows(99.9),
        }

    def __repr__(self) -> str:
        return (
            f"WindowedHistogram({self.name!r}, window={self.window_ns}ns, "
            f"windows={len(self.windows)}, n={self.total.count})"
        )


class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: int) -> None:
        pass

    def add(self, n: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", buckets=(1,))

    def record(self, value: int) -> None:
        pass


class _NullWindowedHistogram(WindowedHistogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", window_ns=1, buckets=(1,))

    def record(self, at: int, value: int) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
NULL_WINDOWED_HISTOGRAM = _NullWindowedHistogram()

#: fn() -> Dict[str, object]; a component-owned snapshot provider
SnapshotSource = Callable[[], Dict[str, object]]

#: fn(span) -> None; called for every finished span (roots and children)
SpanListener = Callable[[Span], None]


class MetricRegistry:
    """Instrument factory + span collector + snapshot aggregator.

    - :meth:`counter` / :meth:`gauge` / :meth:`histogram` create or
      return the named instrument (shared by name).
    - :meth:`start_span` opens a virtual-time :class:`Span`; finished
      root spans are collected (bounded by ``max_spans``) and every
      finished span feeds a ``span.<name>_ns`` duration histogram — the
      basis of the per-layer time breakdown.
    - :meth:`register_source` plugs in a component's own ``snapshot()``
      (e.g. :class:`~repro.sim.stats.DeviceStats`), so legacy stats
      appear in the unified snapshot without per-op double counting.
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._windowed: Dict[str, WindowedHistogram] = {}
        self._sources: Dict[str, SnapshotSource] = {}
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self._span_listeners: List[SpanListener] = []
        #: the attached :class:`~repro.obs.trace.Tracer`, if any
        self.tracer = None

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        cell = self._counters.get(name)
        if cell is None:
            cell = self._counters[name] = Counter(name)
        return cell

    def gauge(self, name: str) -> Gauge:
        cell = self._gauges.get(name)
        if cell is None:
            cell = self._gauges[name] = Gauge(name)
        return cell

    def histogram(
        self, name: str, buckets: Optional[Sequence[int]] = None
    ) -> Histogram:
        cell = self._histograms.get(name)
        if cell is None:
            cell = self._histograms[name] = Histogram(name, buckets)
        return cell

    def find_histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram if some component created it, else None."""
        return self._histograms.get(name)

    def windowed_histogram(
        self,
        name: str,
        window_ns: int,
        buckets: Optional[Sequence[int]] = None,
    ) -> WindowedHistogram:
        cell = self._windowed.get(name)
        if cell is None:
            cell = self._windowed[name] = WindowedHistogram(
                name, window_ns, buckets
            )
        return cell

    def find_windowed_histogram(self, name: str) -> Optional[WindowedHistogram]:
        return self._windowed.get(name)

    def register_source(self, name: str, source: SnapshotSource) -> None:
        self._sources[name] = source

    # name-sorted live views, for the time-series sampler: scraping per
    # tick must not build the full nested ``snapshot()`` dict
    def iter_counters(self) -> List[Tuple[str, Counter]]:
        return sorted(self._counters.items())

    def iter_gauges(self) -> List[Tuple[str, Gauge]]:
        return sorted(self._gauges.items())

    def iter_windowed(self) -> List[Tuple[str, WindowedHistogram]]:
        return sorted(self._windowed.items())

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def start_span(
        self, name: str, at: int, parent: Optional[Span] = None, **attrs: object
    ) -> Span:
        if parent is not None:
            return parent.child(name, at, **attrs)
        span = Span(name, at, registry=self, **attrs)
        if self.tracer is not None:
            self.tracer._on_start(span)
        return span

    def _finish_span(self, span: Span) -> None:
        self.histogram(f"span.{span.name}_ns").record(span.duration_ns)
        for listener in self._span_listeners:
            listener(span)
        if span.parent is None:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.spans_dropped += 1

    def add_span_listener(self, listener: SpanListener) -> None:
        """Call ``listener(span)`` for every span as it finishes.

        Unlike the bounded ``spans`` collection, listeners see *every*
        finished span (children included) as a stream — the crash-test
        harness uses this to discover injection points without retaining
        the spans themselves.
        """
        self._span_listeners.append(listener)

    def remove_span_listener(self, listener: SpanListener) -> None:
        self._span_listeners.remove(listener)

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One nested dict of everything recorded so far."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
            "windowed": {
                n: w.snapshot() for n, w in sorted(self._windowed.items())
            },
            "sources": {n: fn() for n, fn in sorted(self._sources.items())},
            "spans": {
                "collected": len(self.spans),
                "dropped": self.spans_dropped,
            },
        }

    def reset(self) -> None:
        """Zero every instrument and forget collected spans.

        Registered sources are kept but not reset — they belong to their
        components (call their own ``reset()`` for a new experiment).
        """
        for cell in self._counters.values():
            cell.reset()
        for cell in self._gauges.values():
            cell.reset()
        for cell in self._histograms.values():
            cell.reset()
        for cell in self._windowed.values():
            cell.reset()
        self.spans.clear()
        self.spans_dropped = 0
        if self.tracer is not None:
            self.tracer.reset()


class NullRegistry(MetricRegistry):
    """The disabled registry: every instrument is a shared no-op.

    Hot paths may additionally guard whole recording blocks with
    ``if registry.enabled:`` so that disabled runs pay nothing beyond an
    attribute check.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=0)

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[int]] = None
    ) -> Histogram:
        return NULL_HISTOGRAM

    def windowed_histogram(
        self,
        name: str,
        window_ns: int,
        buckets: Optional[Sequence[int]] = None,
    ) -> WindowedHistogram:
        return NULL_WINDOWED_HISTOGRAM

    def register_source(self, name: str, source: SnapshotSource) -> None:
        pass

    def start_span(
        self, name: str, at: int, parent: Optional[Span] = None, **attrs: object
    ):
        return NULL_SPAN

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_REGISTRY = NullRegistry()
