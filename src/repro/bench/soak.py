"""Long-horizon soak benchmark: windowed tails under sustained load.

"On Performance Stability in LSM-based Storage Systems" (Luo & Carey)
argues that run-wide averages hide the failure mode that matters for
LSM-trees: bursty compaction debt produces minutes-long windows where
p99.9 is orders of magnitude above steady state. This harness measures
exactly that. It drives an **open-loop** Poisson arrival process (ops
keep arriving whether or not the store is stalled, so queueing delay is
charged to latency instead of silently slowing the workload down) for a
long virtual horizon, and reports percentiles **per fixed window of
virtual time** rather than per run.

Each operation's latency is ``completion - arrival`` and is recorded in
the window of its *arrival* (via
:meth:`repro.obs.metrics.WindowedHistogram`), so an op delayed across a
window boundary is charged to the window whose load caused the delay.
Write stalls are captured from the ``lsm.write_stall`` spans the store
emits on every observed run, attributed to the window where the stall
began, and broken down by cause (l0_slowdown / memtable_full / l0_stop /
major_deferred).

The headline stability metrics (all lower is better):

- ``windowed_p999_us`` — the worst windowed p99.9: the spike a user hits;
- ``p999_ratio``       — worst windowed p99.9 / median windowed p99.9:
  how far the bad window sits above steady state (1.0 = perfectly flat);
- ``max_stall_ns``     — the single longest write stall;
- ``blocked_ns``       — total writer time not making progress
  (hard stalls + deliberate slowdown injections).

Documents use the versioned ``repro.soak/1`` schema and are gated by
:mod:`repro.bench.compare` exactly like the throughput baselines. The
``tuned`` variant (``SoakConfig.tuned``) sizes the store's stability
tuning (:mod:`repro.lsm.pressure`: the compaction rate limiter in fair
mode plus dynamic slowdown) to the soak's ingest, and the soak gate
asserts it strictly improves the spike metrics over stock behaviour.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig
from repro.bench.workloads import ValueGenerator, make_key
from repro.lsm import pressure
from repro.sim.clock import to_micros

SOAK_SCHEMA = "repro.soak/1"

NS_PER_SEC = 1_000_000_000


@dataclass
class SoakConfig:
    """One soak run: workload shape + whether stability tuning is on."""

    store: str = "noblsm"
    scale: float = 2000.0
    seed: int = 1234
    value_size: int = 1024
    key_size: int = 16
    #: mean arrival rate of the open-loop Poisson process, ops per
    #: virtual second (pick ~50-60% of the store's closed-loop
    #: throughput so compaction debt builds into spike windows but the
    #: arrival queue stays finite)
    arrival_rate: float = 40_000.0
    #: soak horizon in virtual seconds
    duration_s: float = 0.75
    #: percentile window width in virtual milliseconds
    window_ms: float = 25.0
    num_channels: int = 1
    background_threads: int = 1
    #: the "soak-tuned" variant: stability tuning sized to the ingest
    tuned: bool = False

    @property
    def window_ns(self) -> int:
        return max(int(self.window_ms * 1_000_000), 1)

    @property
    def horizon_ns(self) -> int:
        return int(self.duration_s * NS_PER_SEC)

    @property
    def expected_ops(self) -> int:
        return max(int(self.arrival_rate * self.duration_s), 1)

    @property
    def ingest_bytes_per_sec(self) -> int:
        """Sustained user-data ingest: ``arrival_rate * (key + value)``."""
        return int(self.arrival_rate * (self.key_size + self.value_size))

    @property
    def variant(self) -> str:
        return "soak-tuned" if self.tuned else "soak"


@dataclass
class SoakWindow:
    """Percentiles + stall accounting of one virtual-time window."""

    index: int
    ops: int
    p50_us: float
    p99_us: float
    p999_us: float
    max_us: float
    #: ns of write stall that *began* in this window, by cause
    stall_ns: Dict[str, int] = field(default_factory=dict)
    #: longest single stall beginning in this window
    max_stall_ns: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "ops": self.ops,
            "p50_us": round(self.p50_us, 3),
            "p99_us": round(self.p99_us, 3),
            "p999_us": round(self.p999_us, 3),
            "max_us": round(self.max_us, 3),
            "stall_ns": dict(self.stall_ns),
            "max_stall_ns": self.max_stall_ns,
        }


@dataclass
class SoakResult:
    """Outcome of one soak run (one row of the ``repro.soak/1`` gate)."""

    store: str
    workload: str  # "soak" or "soak-tuned"
    num_ops: int
    value_size: int
    num_channels: int
    background_threads: int
    arrival_rate: float
    duration_s: float
    window_ns: int
    virtual_ns: int = 0
    windows: List[SoakWindow] = field(default_factory=list)
    # headline stability metrics (lower is better)
    windowed_p999_us: float = 0.0  # worst windowed p99.9
    median_p999_us: float = 0.0  # median windowed p99.9
    p999_ratio: float = 0.0  # worst / median
    overall_p999_us: float = 0.0  # run-wide p99.9 for reference
    max_stall_ns: int = 0
    blocked_ns: int = 0
    stall_ns: int = 0
    slowdown_ns: int = 0
    l0_stop_abandoned: int = 0
    stall_cause_ns: Dict[str, int] = field(default_factory=dict)
    throttled_jobs: int = 0
    held_jobs: int = 0
    bypassed_jobs: int = 0
    wall_seconds: float = 0.0

    def row(self) -> Dict[str, object]:
        return {
            "store": self.store,
            "workload": self.workload,
            "ops": self.num_ops,
            "value_size": self.value_size,
            "windowed_p999_us": round(self.windowed_p999_us, 3),
            "median_p999_us": round(self.median_p999_us, 3),
            "p999_ratio": round(self.p999_ratio, 4),
            "max_stall_ns": self.max_stall_ns,
            "blocked_ns": self.blocked_ns,
        }

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.row())
        data.update(
            {
                "virtual_ns": self.virtual_ns,
                "overall_p999_us": round(self.overall_p999_us, 3),
                "stall_ns": self.stall_ns,
                "slowdown_ns": self.slowdown_ns,
                "l0_stop_abandoned": self.l0_stop_abandoned,
                "stall_cause_ns": dict(self.stall_cause_ns),
                "arrival_rate": self.arrival_rate,
                "duration_s": self.duration_s,
                "window_ns": self.window_ns,
                "extras": {
                    "num_channels": self.num_channels,
                    "background_threads": self.background_threads,
                    "throttled_jobs": self.throttled_jobs,
                    "held_jobs": self.held_jobs,
                    "bypassed_jobs": self.bypassed_jobs,
                },
                "windows": [w.to_dict() for w in self.windows],
            }
        )
        if self.wall_seconds > 0.0:
            data["host"] = {"wall_seconds": round(self.wall_seconds, 4)}
        return data


def run_soak(config: SoakConfig, telemetry=None) -> SoakResult:
    """Run one open-loop soak; returns its windowed stability record.

    ``telemetry`` is an optional continuous-telemetry rig (duck-typed;
    see :class:`repro.bench.slo.Telemetry`): ``on_stack(stack, db)``
    points its sampler at the soak stack's own registry, and
    ``advance(at)`` is driven to every arrival (relative to the run
    start, like the latency windows) so ticks fire deterministically
    between requests. The rig's clock is its own; the soak's virtual
    timeline and results are identical with or without it.
    """
    scaled = ScaledConfig(
        scale=config.scale,
        num_ops=config.expected_ops,
        value_size=config.value_size,
        key_size=config.key_size,
        seed=config.seed,
        observe=True,
        num_channels=config.num_channels,
        background_threads=config.background_threads,
    )
    stack = scaled.build_stack()
    options = scaled.build_options()
    if config.tuned:
        options.stability_ingest_bytes_per_sec = config.ingest_bytes_per_sec
    db = make_store(config.store, stack, "db", options=options)
    if telemetry is not None:
        telemetry.on_stack(stack, db)

    start = stack.now
    window_ns = config.window_ns
    latency = stack.obs.windowed_histogram("soak.put_ns", window_ns)

    # stall attribution: every observed run emits cause-labelled
    # lsm.write_stall spans; charge each to the window where it began
    stall_by_window: Dict[int, Dict[str, int]] = {}
    max_stall_by_window: Dict[int, int] = {}
    stall_cause_ns: Dict[str, int] = {}
    max_stall = 0

    def on_span(span) -> None:
        nonlocal max_stall
        if span.name != "lsm.write_stall":
            return
        cause = str(span.attrs.get("cause", "unknown"))
        duration = span.duration_ns
        index = (span.start_ns - start) // window_ns
        per_window = stall_by_window.setdefault(index, {})
        per_window[cause] = per_window.get(cause, 0) + duration
        stall_cause_ns[cause] = stall_cause_ns.get(cause, 0) + duration
        if duration > max_stall_by_window.get(index, 0):
            max_stall_by_window[index] = duration
        if duration > max_stall:
            max_stall = duration

    stack.obs.add_span_listener(on_span)

    rng = random.Random(config.seed)
    values = ValueGenerator(config.value_size, seed=config.seed)
    keyspace = config.expected_ops
    horizon = config.horizon_ns
    arrival = start
    ops = 0
    last_done = start
    wall_start = time.perf_counter()
    while True:
        arrival += max(int(rng.expovariate(config.arrival_rate) * NS_PER_SEC), 1)
        if arrival - start >= horizon:
            break
        if telemetry is not None:
            telemetry.advance(arrival - start)
        key = make_key(rng.randrange(keyspace), config.key_size)
        done = db.put(key, values.next(), at=arrival)
        latency.record(arrival - start, done - arrival)
        last_done = done
        ops += 1
    if telemetry is not None:
        telemetry.finish(horizon)
    wall_seconds = time.perf_counter() - wall_start
    stack.obs.remove_span_listener(on_span)

    result = SoakResult(
        store=config.store,
        workload=config.variant,
        num_ops=ops,
        value_size=config.value_size,
        num_channels=config.num_channels,
        background_threads=config.background_threads,
        arrival_rate=config.arrival_rate,
        duration_s=config.duration_s,
        window_ns=window_ns,
        virtual_ns=max(last_done - start, 0),
        wall_seconds=wall_seconds,
    )
    for index in latency.window_indices():
        hist = latency.windows[index]
        result.windows.append(
            SoakWindow(
                index=index,
                ops=hist.count,
                p50_us=to_micros(hist.p50),
                p99_us=to_micros(hist.p99),
                p999_us=to_micros(hist.percentile(99.9)),
                max_us=to_micros(hist.max),
                stall_ns=stall_by_window.get(index, {}),
                max_stall_ns=max_stall_by_window.get(index, 0),
            )
        )
    result.windowed_p999_us = to_micros(latency.max_over_windows(99.9))
    result.median_p999_us = to_micros(latency.median_over_windows(99.9))
    result.p999_ratio = (
        result.windowed_p999_us / result.median_p999_us
        if result.median_p999_us > 0
        else 0.0
    )
    result.overall_p999_us = to_micros(latency.total.percentile(99.9))
    result.max_stall_ns = max_stall
    result.blocked_ns = db.stats.blocked_ns
    result.stall_ns = db.stats.stall_ns
    result.slowdown_ns = db.stats.slowdown_ns
    result.l0_stop_abandoned = db.stats.l0_stop_abandoned
    result.stall_cause_ns = stall_cause_ns
    limiter = db.pressure.limiter
    if limiter is not None:
        result.throttled_jobs = limiter.throttled_jobs
        result.held_jobs = limiter.held_jobs
        result.bypassed_jobs = limiter.bypassed_jobs
    return result


def run_soak_pair(config: SoakConfig) -> List[SoakResult]:
    """Run the untuned soak and its stability-tuned twin (same seed)."""
    return [
        run_soak(replace(config, tuned=False)),
        run_soak(replace(config, tuned=True)),
    ]


def _cause_summary(stall_ns: Dict[str, int]) -> str:
    parts = []
    for cause in pressure.STALL_CAUSES:
        ns = stall_ns.get(cause, 0)
        if ns:
            parts.append(f"{cause.split('_')[-1][:4]}:{ns / 1e6:.1f}ms")
    return " ".join(parts)


def render_timeline(result: SoakResult, width: int = 40) -> str:
    """Ascii timeline: one row per window, p99.9 bar + stall causes."""
    title = (
        f"{result.store}/{result.workload}: {result.num_ops} ops @ "
        f"{result.arrival_rate:,.0f}/s over {result.duration_s:g} virtual s "
        f"(window = {result.window_ns / 1e6:g} ms)"
    )
    lines = [title, "-" * len(title)]
    peak = max((w.p999_us for w in result.windows), default=0.0)
    header = (
        f"{'win':>4} {'ops':>6} {'p50us':>8} {'p99us':>9} {'p999us':>9} "
        f"{'stall':>9}  p99.9"
    )
    lines.append(header)
    for w in result.windows:
        bar = "#" * (
            max(int(w.p999_us / peak * width), 1) if peak > 0 else 0
        )
        total_stall = sum(w.stall_ns.values())
        causes = _cause_summary(w.stall_ns)
        stall_col = f"{total_stall / 1e6:>7.1f}ms" if total_stall else f"{'-':>9}"
        line = (
            f"{w.index:>4} {w.ops:>6} {w.p50_us:>8.1f} {w.p99_us:>9.1f} "
            f"{w.p999_us:>9.1f} {stall_col}  {bar}"
        )
        if causes:
            line += f"  [{causes}]"
        lines.append(line)
    lines.append("")
    lines.append(
        f"windowed p99.9: worst {result.windowed_p999_us:,.1f} us, "
        f"median {result.median_p999_us:,.1f} us, "
        f"ratio {result.p999_ratio:.2f}x"
    )
    lines.append(
        f"max stall {result.max_stall_ns / 1e6:.2f} ms; "
        f"blocked {result.blocked_ns / 1e6:.2f} ms "
        f"(hard stalls {result.stall_ns / 1e6:.2f} ms + "
        f"slowdown {result.slowdown_ns / 1e6:.2f} ms); "
        f"l0-stop abandoned {result.l0_stop_abandoned}"
    )
    if result.throttled_jobs or result.held_jobs or result.bypassed_jobs:
        lines.append(
            f"rate limiter: {result.throttled_jobs} throttled, "
            f"{result.held_jobs} hold-backs, "
            f"{result.bypassed_jobs} urgent bypasses"
        )
    return "\n".join(lines)


def render_soak(results: Sequence[SoakResult], width: int = 40) -> str:
    """Timelines for every run plus an untuned-vs-tuned verdict."""
    blocks = [render_timeline(r, width=width) for r in results]
    by_variant = {r.workload: r for r in results}
    if "soak" in by_variant and "soak-tuned" in by_variant:
        base, tuned = by_variant["soak"], by_variant["soak-tuned"]
        blocks.append(
            "stability: tuned vs untuned — "
            f"p99.9 ratio {base.p999_ratio:.2f}x -> {tuned.p999_ratio:.2f}x, "
            f"worst windowed p99.9 {base.windowed_p999_us:,.1f} -> "
            f"{tuned.windowed_p999_us:,.1f} us, "
            f"max stall {base.max_stall_ns / 1e6:.2f} -> "
            f"{tuned.max_stall_ns / 1e6:.2f} ms"
        )
    return "\n\n".join(blocks)
