"""The flight recorder: continuous telemetry + SLO gate over serve.

This is the bench-side harness for :mod:`repro.obs.timeseries` and
:mod:`repro.obs.slo`: run the serving pair with a
:class:`Telemetry` rig attached, sample every health signal the stack
exposes at a fixed virtual interval, evaluate latency and availability
SLOs with fast/slow burn-rate alerting, render an ASCII flight-recorder
dashboard (one sparkline lane per series, alert markers inline), and
emit the versioned ``repro.slo/1`` gate document.

The rig owns a *dedicated* virtual clock + event queue (an instance of
the same sim machinery the stacks run on): the bench loop advances it
to every request arrival, so sampler ticks fire at deterministic
virtual times between requests and never touch any stack's timeline —
results with telemetry attached are identical to results without.

The gate's discrimination claim, checked by CI: the **untuned** serve
run must fire at least one fast-burn alert (its hot shard genuinely
burns the availability/latency budget), while the **fair-scheduled**
twin must fire none — an alerting layer that cannot tell those two
apart is decoration, not observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.bench.ascii_plot import sparkline
from repro.lsm.pressure import PRESSURE_CODES
from repro.obs.metrics import MetricRegistry
from repro.obs.slo import (
    AVAILABILITY,
    LATENCY,
    CounterRatioSource,
    LatencyThresholdSource,
    SLOMonitor,
    SLOSpec,
    default_burn_rules,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve.bench import ServeConfig, run_serve
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue

SLO_SCHEMA = "repro.slo/1"


@dataclass
class SloConfig:
    """One flight-recorder run: the serve pair + sampling + objectives."""

    interval_ms: float = 5.0
    capacity: int = 4096
    #: latency objective: ``latency_target`` of requests complete within
    #: ``latency_threshold_us``. Keep the threshold on a 1-2-5 histogram
    #: bucket bound so good/bad counting is exact (see
    #: ``Histogram.count_over``). 99.95% (not three nines) because the
    #: untuned cluster's breach is one concentrated stall burst: at
    #: three nines its long-window burn peaks just *under* the canonical
    #: 14.4x fast threshold, and the recorder's job is to page on
    #: exactly this burst.
    latency_target: float = 0.9995
    latency_threshold_us: float = 100.0
    #: availability objective: fraction of requests not shed
    availability_target: float = 0.9995
    serve: ServeConfig = field(default_factory=ServeConfig)

    @property
    def interval_ns(self) -> int:
        return max(int(self.interval_ms * 1_000_000), 1)

    @property
    def latency_threshold_ns(self) -> int:
        return max(int(self.latency_threshold_us * 1_000), 1)

    @property
    def horizon_ns(self) -> int:
        return max(int(self.serve.duration_s * 1e9), 1)


class Telemetry:
    """One run's continuous-telemetry rig.

    Owns the sampling timeline (clock + event queue), the cluster-level
    registry, the sampler, and the SLO monitors. The bench loop drives
    :meth:`advance` to each arrival and :meth:`finish` at the horizon;
    the serve runner calls :meth:`on_cluster` once the shards exist so
    probes can bind.
    """

    def __init__(self, config: SloConfig) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.events = EventQueue(self.clock)
        #: cluster-level registry (the serve front door records here)
        self.registry = MetricRegistry()
        self.sampler: Optional[TimeSeriesSampler] = None
        self.monitors: List[SLOMonitor] = []

    # ------------------------------------------------------------------
    # wiring, called by the runner
    # ------------------------------------------------------------------

    def _add_monitor(self, monitor: SLOMonitor) -> None:
        self.monitors.append(monitor)
        self.sampler.add_monitor(monitor)

    def _add_store_probes(self, name: str, db) -> None:
        """Health levels of one store: debt, pressure, tokens, garbage."""
        sampler = self.sampler
        pressure = db.pressure
        sampler.add_probe(
            f"{name}.pressure",
            lambda at, p=pressure: float(PRESSURE_CODES[p.state()]),
        )
        sampler.add_probe(
            f"{name}.debt_bytes",
            lambda at, p=pressure: float(p.debt_bytes()),
        )
        limiter = pressure.limiter
        if limiter is not None:
            sampler.add_probe(
                f"{name}.ratelimit_tokens",
                lambda at, l=limiter: float(l.tokens_at(at)),
            )
        vlog = getattr(db, "vlog", None)
        if vlog is not None:

            def garbage_ratio(at: int, v=vlog) -> float:
                snap = v.snapshot()
                total = snap.get("total_bytes", 0)
                if not total:
                    return 0.0
                return round(1.0 - snap["live_bytes"] / total, 4)

            sampler.add_probe(f"{name}.vlog_garbage", garbage_ratio)

    def on_cluster(self, cluster) -> None:
        """Wire the run: front-door SLOs + per-shard probes."""
        if self.sampler is not None:
            raise RuntimeError("telemetry rig already wired to a run")
        config = self.config
        self.sampler = TimeSeriesSampler(
            self.registry, config.interval_ns, capacity=config.capacity
        )
        self.sampler.attach(self.events)
        rules = default_burn_rules(config.horizon_ns)
        latency = self.registry.windowed_histogram(
            "serve.latency_ns", cluster.config.window_ns
        )
        self._add_monitor(
            SLOMonitor(
                SLOSpec(
                    "latency",
                    LATENCY,
                    config.latency_target,
                    config.latency_threshold_ns,
                ),
                LatencyThresholdSource(latency, config.latency_threshold_ns),
                rules,
            )
        )
        self._add_monitor(
            SLOMonitor(
                SLOSpec("availability", AVAILABILITY, config.availability_target),
                CounterRatioSource(
                    self.registry.counter("serve.served"),
                    self.registry.counter("serve.shed"),
                ),
                rules,
            )
        )
        for shard in cluster.shards:
            name = f"shard{shard.index}"
            self.sampler.add_probe(
                f"{name}.queue_depth",
                lambda at, a=shard.admission: float(a.peek_depth(at)),
            )
            self._add_store_probes(name, shard.db)

    # ------------------------------------------------------------------
    # driven by the bench loop
    # ------------------------------------------------------------------

    def advance(self, at: int) -> None:
        self.events.run_until(at)

    def finish(self, at: int) -> None:
        self.events.run_until(at)
        if self.sampler is not None:
            self.sampler.finish(at)


@dataclass
class SloRunResult:
    """One variant's flight-recorder outcome."""

    row: Dict[str, object]
    telemetry: Telemetry
    base: object  # the underlying ServeResult

    @property
    def workload(self) -> str:
        return str(self.row["workload"])

    def to_dict(self) -> Dict[str, object]:
        return dict(self.row)


def _slo_row(base, telemetry: Telemetry, config: SloConfig) -> Dict[str, object]:
    """The gate row: base identity + alert/budget summary (flat metrics)."""
    monitors = telemetry.monitors
    alerts = [a for m in monitors for a in m.alerts]
    fast = [a for a in alerts if a.rule == "fast-burn"]
    slow = [a for a in alerts if a.rule == "slow-burn"]
    return {
        "store": base.store,
        "workload": base.workload,
        "ops": base.num_ops,
        "value_size": base.value_size,
        "scenario": "serve",
        "interval_ns": config.interval_ns,
        "horizon_ns": config.horizon_ns,
        "samples": telemetry.sampler.samples,
        "series": len(telemetry.sampler.series),
        "alerts_total": len(alerts),
        "fast_burn_alerts": len(fast),
        "slow_burn_alerts": len(slow),
        "first_fast_burn_at_ns": min(
            (a.fired_at_ns for a in fast), default=None
        ),
        "bad_events": sum(m.bad_total for m in monitors),
        "max_burn": round(max((m.peak_burn for m in monitors), default=0.0), 3),
        "slos": [m.snapshot() for m in monitors],
    }


def run_slo(config: SloConfig) -> List[SloRunResult]:
    """Run the serve pair (untuned, fair) with telemetry attached."""
    results = []
    for fair in (False, True):
        telemetry = Telemetry(config)
        base = run_serve(replace(config.serve, fair=fair), telemetry=telemetry)
        results.append(
            SloRunResult(
                row=_slo_row(base, telemetry, config),
                telemetry=telemetry,
                base=base,
            )
        )
    return results


# ----------------------------------------------------------------------
# the gate's invariant
# ----------------------------------------------------------------------


def check_discrimination(rows: Sequence[Dict[str, object]]) -> List[str]:
    """The alerting layer's reason to exist, as gate failures.

    ``rows`` are ``repro.slo/1`` result rows. Untuned variants must fire
    >= 1 fast-burn alert; tuned variants must fire none at all. Returns
    human-readable problems (empty = pass).
    """
    problems = []
    for row in rows:
        if row["workload"] == "serve" and row["fast_burn_alerts"] < 1:
            problems.append(
                f"{row['workload']}: expected >= 1 fast-burn alert, got 0 "
                "(the untuned run should breach its SLOs)"
            )
        if row["workload"] == "serve-fair" and row["alerts_total"] > 0:
            problems.append(
                f"{row['workload']}: expected 0 alerts, got "
                f"{row['alerts_total']} (the tuned run should hold its SLOs)"
            )
    return problems


# ----------------------------------------------------------------------
# the dashboard
# ----------------------------------------------------------------------


def _lane_cells(
    series, horizon_ns: int, width: int
) -> List[Optional[float]]:
    """Time-aligned bucket maxima: column = t * width / horizon."""
    cells: List[Optional[float]] = [None] * width
    for t, value in zip(series.times, series.values):
        column = min(int(t) * width // max(horizon_ns, 1), width - 1)
        if cells[column] is None or value > cells[column]:
            cells[column] = value
    return cells


def _alert_columns(
    monitor: SLOMonitor, horizon_ns: int, width: int
) -> List[int]:
    """Columns where any of the monitor's alerts were active."""
    columns = set()
    for alert in monitor.alerts:
        start = min(int(alert.fired_at_ns) * width // max(horizon_ns, 1),
                    width - 1)
        end_ns = (
            alert.resolved_at_ns
            if alert.resolved_at_ns is not None
            else horizon_ns
        )
        end = min(int(end_ns) * width // max(horizon_ns, 1), width - 1)
        columns.update(range(start, end + 1))
    return sorted(columns)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:,.6g}"


def render_dashboard(result: SloRunResult, width: int = 60) -> str:
    """The flight recorder: one sparkline lane per series, alerts inline.

    SLO burn lanes overlay ``!`` on the columns where an alert was
    active, so the breach is visible in the lane itself; the alert log
    below gives the exact virtual timestamps.
    """
    telemetry = result.telemetry
    sampler = telemetry.sampler
    row = result.row
    horizon = int(row["horizon_ns"])
    title = (
        f"flight recorder — {row['store']}/{row['workload']} "
        f"({row['scenario']}), {sampler.samples} samples @ "
        f"{sampler.interval_ns / 1e6:g} ms over {horizon / 1e6:g} ms"
    )
    lines = [title, "-" * min(len(title), 78)]
    name_width = max((len(n) for n in sampler.series), default=4)
    name_width = min(max(name_width, 24), 34)
    lines.append(
        f"{'series':<{name_width}} {'min':>10} {'max':>10} {'last':>10}  "
        f"|0 .. {horizon / 1e6:g} ms|"
    )
    burn_lanes = {
        f"slo.{m.spec.name}.burn": m for m in telemetry.monitors
    }
    for name in sorted(sampler.series):
        series = sampler.series[name]
        cells = _lane_cells(series, horizon, width)
        present = [v for v in cells if v is not None]
        spark = list(sparkline(cells, width))
        monitor = burn_lanes.get(name)
        if monitor is not None:
            for column in _alert_columns(monitor, horizon, width):
                spark[column] = "!"
        lines.append(
            f"{name:<{name_width}} "
            f"{_fmt(min(present) if present else None):>10} "
            f"{_fmt(max(present) if present else None):>10} "
            f"{_fmt(series.last()):>10}  |{''.join(spark)}|"
        )
    lines.append("")
    lines.append("alerts:")
    any_alert = False
    for monitor in telemetry.monitors:
        for alert in monitor.alerts:
            any_alert = True
            resolved = (
                f"resolved @{alert.resolved_at_ns / 1e6:.1f} ms"
                if alert.resolved_at_ns is not None
                else "unresolved at horizon"
            )
            lines.append(
                f"  {alert.slo}/{alert.rule}: fired "
                f"@{alert.fired_at_ns / 1e6:.1f} ms "
                f"(burn long {alert.burn_long:.1f} / short "
                f"{alert.burn_short:.1f}, peak {alert.peak_burn:.1f}), "
                f"{resolved}"
            )
    if not any_alert:
        lines.append("  (none)")
    lines.append("")
    for monitor in telemetry.monitors:
        spec = monitor.spec
        objective = (
            f"{spec.target * 100:g}% < {spec.threshold_ns / 1000:g} us"
            if spec.kind == LATENCY
            else f"{spec.target * 100:g}% admitted"
        )
        lines.append(
            f"slo {spec.name} ({objective}): good {monitor.good_total}, "
            f"bad {monitor.bad_total}, budget consumed "
            f"{monitor.budget_consumed:.2f}x, peak burn "
            f"{monitor.peak_burn:.1f}"
        )
    return "\n".join(lines)


def render_slo(results: Sequence[SloRunResult], width: int = 60) -> str:
    """Dashboards for every variant plus the discrimination verdict."""
    blocks = [render_dashboard(r, width=width) for r in results]
    problems = check_discrimination([r.row for r in results])
    if problems:
        blocks.append("\n".join(["alert discrimination: FAIL"] +
                                [f"  {p}" for p in problems]))
    else:
        fired = sum(r.row["alerts_total"] for r in results
                    if r.workload == "serve")
        blocks.append(
            "alert discrimination: PASS — untuned fired "
            f"{fired} alert(s), tuned fired none"
        )
    return "\n\n".join(blocks)
