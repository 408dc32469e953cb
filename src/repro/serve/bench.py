"""The serve benchmark: multi-tenant load against the sharded cluster.

Drives a :class:`~repro.serve.cluster.ServeCluster` with the
:mod:`~repro.serve.loadgen` request stream — by default the hot-tenant
overload scenario: an open-loop Poisson process with a diurnal rate
curve, tenants drawn Zipf-hot, tenant-affine placement, so the hot
tenant's home shard builds compaction debt while the rest of the
cluster idles along. Reported per tenant *and* per shard:

- p50 / p99 / p99.9 over the run plus the worst windowed p99.9
  (:class:`~repro.obs.metrics.WindowedHistogram`, arrival-time keyed);
- a **fairness ratio** — worst tenant p99 / best tenant p99 (1.0 means
  every tenant gets the same tail, the number a multi-tenant SLA is
  written against);
- admission-control counts (admitted / queued / shed, shed by pressure
  cause) and each shard's stall breakdown (``blocked_ns`` and the PR 7
  cause counters).

Documents use the versioned ``repro.serve/1`` schema and are gated by
:mod:`repro.bench.compare` like the soak and throughput baselines. The
``serve-fair`` variant applies the per-shard stability machinery — the
compaction rate limiter in fair mode plus dynamic slowdown — and the
serve gate asserts it beats the untuned cluster on worst-tenant p99.9.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.obs.metrics import WindowedHistogram
from repro.serve.cluster import ClusterConfig, ServeCluster
from repro.serve.loadgen import (
    ClosedLoopDriver,
    LoadConfig,
    open_loop,
)
from repro.sim.clock import to_micros

SERVE_SCHEMA = "repro.serve/1"


@dataclass
class ServeConfig:
    """One serve run: cluster shape + workload shape + tuning."""

    store: str = "noblsm"
    num_shards: int = 4
    num_tenants: int = 6
    scale: float = 2000.0
    seed: int = 1234
    value_size: int = 1024
    key_size: int = 16
    #: total open-loop arrival rate, requests per virtual second. The
    #: default overloads the hot tenant's home shard at the diurnal
    #: peak (the untuned cluster queues and sheds there) while the
    #: cluster-wide average stays serviceable — the scenario admission
    #: control exists for.
    arrival_rate: float = 90_000.0
    duration_s: float = 0.3
    window_ms: float = 25.0
    diurnal_amplitude: float = 0.4
    tenant_theta: float = 0.99
    write_fraction: float = 0.9
    keys_per_tenant: int = 2_000
    spread: int = 1
    max_queue: int = 32
    mode: str = "open"  # "open" | "closed"
    clients_per_tenant: int = 4
    num_channels: int = 1
    background_threads: int = 1
    # --- per-shard stability tuning (the "serve-fair" variant) ---
    compaction_rate_bytes_per_sec: int = 0
    compaction_rate_burst_bytes: int = 0
    compaction_rate_fair: bool = False
    dynamic_slowdown: bool = False

    @property
    def window_ns(self) -> int:
        return max(int(self.window_ms * 1_000_000), 1)

    @property
    def expected_ops(self) -> int:
        return max(int(self.arrival_rate * self.duration_s), 1)

    @property
    def fair(self) -> bool:
        return self.compaction_rate_bytes_per_sec > 0 or self.dynamic_slowdown

    @property
    def variant(self) -> str:
        return "serve-fair" if self.fair else "serve"

    def load_config(self) -> LoadConfig:
        return LoadConfig(
            num_tenants=self.num_tenants,
            arrival_rate=self.arrival_rate,
            duration_s=self.duration_s,
            diurnal_amplitude=self.diurnal_amplitude,
            tenant_theta=self.tenant_theta,
            write_fraction=self.write_fraction,
            keys_per_tenant=self.keys_per_tenant,
            key_size=self.key_size,
            value_size=self.value_size,
            seed=self.seed,
            clients_per_tenant=self.clients_per_tenant,
        )

    def cluster_config(self) -> ClusterConfig:
        # with tenant-affine placement the hot tenant concentrates on
        # one shard; size each shard's cache for that worst case
        return ClusterConfig(
            store=self.store,
            num_shards=self.num_shards,
            scale=self.scale,
            seed=self.seed,
            value_size=self.value_size,
            key_size=self.key_size,
            spread=self.spread,
            max_queue=self.max_queue,
            expected_shard_ops=self.expected_ops,
            window_ns=self.window_ns,
            num_channels=self.num_channels,
            background_threads=self.background_threads,
            compaction_rate_bytes_per_sec=self.compaction_rate_bytes_per_sec,
            compaction_rate_burst_bytes=self.compaction_rate_burst_bytes,
            compaction_rate_fair=self.compaction_rate_fair,
            dynamic_slowdown=self.dynamic_slowdown,
        )


def fair_variant(config: ServeConfig) -> ServeConfig:
    """The stability-tuned twin: same cluster, same workload, same seed.

    Sized like the soak harness's tuned variant, per shard: sustained
    user-data ingest at the *hot* shard is the total write ingest times
    the hot tenant's share (with tenant-affine placement and zipf 0.99
    over a handful of tenants, roughly half the traffic lands on one
    shard), and leveling write amplification multiplies that
    several-fold. A 14x-ingest cap with a shallow burst bucket spreads
    deep-major bursts without ever starving steady-state demand; fair
    mode exempts and prioritizes the L0 drain; dynamic slowdown replaces
    the fixed 1 ms writer delay with a debt-scaled ramp.
    """
    ingest = int(
        config.arrival_rate
        * config.write_fraction
        * (config.key_size + config.value_size)
        * 0.5  # hot shard's share of the total
    )
    return replace(
        config,
        compaction_rate_bytes_per_sec=14 * ingest,
        compaction_rate_burst_bytes=ingest // 10,
        compaction_rate_fair=True,
        dynamic_slowdown=True,
    )


@dataclass
class TenantReport:
    """One tenant's row in the serve document."""

    tenant: str
    served: int
    shed: int
    queued: int
    p50_us: float
    p99_us: float
    p999_us: float
    worst_window_p999_us: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "served": self.served,
            "shed": self.shed,
            "queued": self.queued,
            "p50_us": round(self.p50_us, 3),
            "p99_us": round(self.p99_us, 3),
            "p999_us": round(self.p999_us, 3),
            "worst_window_p999_us": round(self.worst_window_p999_us, 3),
        }


@dataclass
class ShardReport:
    """One shard's row in the serve document."""

    shard: int
    served: int
    shed: int
    p50_us: float
    p99_us: float
    p999_us: float
    admission: Dict[str, object]
    stalls: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "served": self.served,
            "shed": self.shed,
            "p50_us": round(self.p50_us, 3),
            "p99_us": round(self.p99_us, 3),
            "p999_us": round(self.p999_us, 3),
            "admission": dict(self.admission),
            "stalls": dict(self.stalls),
        }


@dataclass
class ServeResult:
    """Outcome of one serve run (one row of the ``repro.serve/1`` gate)."""

    store: str
    workload: str  # "serve" | "serve-fair"
    num_ops: int  # requests *offered* (stable row identity under shedding)
    value_size: int
    num_shards: int
    num_tenants: int
    arrival_rate: float
    duration_s: float
    window_ns: int
    mode: str
    served: int = 0
    shed: int = 0
    queued: int = 0
    virtual_ns: int = 0
    tenants: List[TenantReport] = field(default_factory=list)
    shards: List[ShardReport] = field(default_factory=list)
    # headline metrics (lower is better)
    fairness_ratio: float = 0.0  # worst tenant p99 / best tenant p99
    worst_tenant_p99_us: float = 0.0
    worst_tenant_p999_us: float = 0.0
    overall_p999_us: float = 0.0
    windowed_p999_us: float = 0.0  # worst windowed cluster p99.9
    blocked_ns: int = 0  # summed over shards
    #: per-window (ops, p99.9, shed) for the ascii timeline
    windows: List[Dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0

    def row(self) -> Dict[str, object]:
        return {
            "store": self.store,
            "workload": self.workload,
            "ops": self.num_ops,
            "value_size": self.value_size,
            "served": self.served,
            "shed": self.shed,
            "queued": self.queued,
            "fairness_ratio": round(self.fairness_ratio, 4),
            "worst_tenant_p99_us": round(self.worst_tenant_p99_us, 3),
            "worst_tenant_p999_us": round(self.worst_tenant_p999_us, 3),
            "blocked_ns": self.blocked_ns,
        }

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.row())
        data.update(
            {
                "virtual_ns": self.virtual_ns,
                "overall_p999_us": round(self.overall_p999_us, 3),
                "windowed_p999_us": round(self.windowed_p999_us, 3),
                "arrival_rate": self.arrival_rate,
                "duration_s": self.duration_s,
                "window_ns": self.window_ns,
                "mode": self.mode,
                "extras": {
                    "num_shards": self.num_shards,
                    "num_tenants": self.num_tenants,
                },
                "tenants": [t.to_dict() for t in self.tenants],
                "shards": [s.to_dict() for s in self.shards],
                "windows": list(self.windows),
            }
        )
        if self.wall_seconds > 0.0:
            data["host"] = {"wall_seconds": round(self.wall_seconds, 4)}
        return data


def _percentiles(hist: WindowedHistogram) -> Dict[str, float]:
    total = hist.total
    return {
        "p50": to_micros(total.p50),
        "p99": to_micros(total.p99),
        "p999": to_micros(total.percentile(99.9)),
    }


def run_serve(config: ServeConfig, telemetry=None) -> ServeResult:
    """Run one serve benchmark; returns its multi-tenant record.

    ``telemetry`` is an optional continuous-telemetry rig (duck-typed;
    see :class:`repro.bench.slo.Telemetry`): its ``registry`` becomes
    the cluster-level registry, ``on_cluster(cluster)`` wires probes
    once shards exist, and ``advance(at)`` is driven to every open-loop
    arrival so the sampler ticks fire at deterministic virtual times
    *between* requests. The rig runs on its own event queue and never
    touches shard stacks, so results are identical with or without it.
    """
    if telemetry is not None and config.mode != "open":
        raise ValueError("continuous telemetry needs the open-loop mode")
    cluster = ServeCluster(
        config.cluster_config(),
        obs=telemetry.registry if telemetry is not None else None,
    )
    if telemetry is not None:
        telemetry.on_cluster(cluster)
    offered = 0
    last_done = 0
    wall_start = time.perf_counter()
    if config.mode == "closed":
        driver = ClosedLoopDriver(config.load_config())

        def execute(request):
            nonlocal offered
            offered += 1
            return cluster.serve(request)

        last_done = driver.run(execute)
    elif config.mode == "open":
        for request in open_loop(config.load_config()):
            offered += 1
            if telemetry is not None:
                telemetry.advance(request.arrival)
            done = cluster.serve(request)
            if done is not None:
                last_done = max(last_done, done)
    else:
        raise ValueError(f"unknown mode {config.mode!r}")
    if telemetry is not None:
        telemetry.finish(max(int(config.duration_s * 1e9), last_done))
    wall_seconds = time.perf_counter() - wall_start

    result = ServeResult(
        store=config.store,
        workload=config.variant,
        num_ops=offered,
        value_size=config.value_size,
        num_shards=config.num_shards,
        num_tenants=config.num_tenants,
        arrival_rate=config.arrival_rate,
        duration_s=config.duration_s,
        window_ns=config.window_ns,
        mode=config.mode,
        virtual_ns=last_done,
        wall_seconds=wall_seconds,
    )
    for tenant in sorted(cluster.tenants):
        stats = cluster.tenants[tenant]
        hist = cluster.tenant_latency[tenant]
        ps = _percentiles(hist)
        result.tenants.append(
            TenantReport(
                tenant=tenant,
                served=stats.served,
                shed=stats.shed,
                queued=stats.queued,
                p50_us=ps["p50"],
                p99_us=ps["p99"],
                p999_us=ps["p999"],
                worst_window_p999_us=to_micros(hist.max_over_windows(99.9)),
            )
        )
        result.served += stats.served
        result.shed += stats.shed
        result.queued += stats.queued
    for shard in cluster.shards:
        ps = _percentiles(shard.latency)
        result.shards.append(
            ShardReport(
                shard=shard.index,
                served=shard.served,
                shed=shard.shed,
                p50_us=ps["p50"],
                p99_us=ps["p99"],
                p999_us=ps["p999"],
                admission=shard.admission.stats.to_dict(),
                stalls=shard.stall_snapshot(),
            )
        )
        result.blocked_ns += shard.db.stats.blocked_ns
    served_tenants = [t for t in result.tenants if t.served > 0]
    if served_tenants:
        p99s = [t.p99_us for t in served_tenants]
        result.worst_tenant_p99_us = max(p99s)
        best = min(p99s)
        result.fairness_ratio = (
            result.worst_tenant_p99_us / best if best > 0 else 0.0
        )
        result.worst_tenant_p999_us = max(t.p999_us for t in served_tenants)
    result.overall_p999_us = to_micros(
        cluster.latency.total.percentile(99.9)
    )
    result.windowed_p999_us = to_micros(cluster.latency.max_over_windows(99.9))
    for index in cluster.latency.window_indices():
        hist = cluster.latency.windows[index]
        result.windows.append(
            {
                "index": index,
                "ops": hist.count,
                "p50_us": round(to_micros(hist.p50), 3),
                "p999_us": round(to_micros(hist.percentile(99.9)), 3),
                "shed": cluster.shed_by_window.get(index, 0),
            }
        )
    return result


def run_serve_pair(config: ServeConfig) -> List[ServeResult]:
    """Run the untuned cluster and its fair-scheduled twin (same seed)."""
    untuned = replace(
        config,
        compaction_rate_bytes_per_sec=0,
        compaction_rate_burst_bytes=0,
        compaction_rate_fair=False,
        dynamic_slowdown=False,
    )
    return [run_serve(untuned), run_serve(fair_variant(config))]


def render_timeline(result: ServeResult, width: int = 40) -> str:
    """Ascii timeline: per-window cluster p99.9 bar + shed counts."""
    title = (
        f"{result.store}/{result.workload}: {result.num_ops} requests "
        f"({result.served} served, {result.shed} shed) @ "
        f"{result.arrival_rate:,.0f}/s over {result.duration_s:g} virtual s, "
        f"{result.num_shards} shards x {result.num_tenants} tenants "
        f"({result.mode} loop, window = {result.window_ns / 1e6:g} ms)"
    )
    lines = [title, "-" * min(len(title), 78)]
    peak = max((w["p999_us"] for w in result.windows), default=0.0)
    lines.append(
        f"{'win':>4} {'ops':>6} {'shed':>5} {'p50us':>8} {'p999us':>9}  p99.9"
    )
    for w in result.windows:
        bar = "#" * (
            max(int(w["p999_us"] / peak * width), 1) if peak > 0 else 0
        )
        lines.append(
            f"{w['index']:>4} {w['ops']:>6} {w['shed']:>5} "
            f"{w['p50_us']:>8.1f} {w['p999_us']:>9.1f}  {bar}"
        )
    lines.append("")
    lines.append(
        f"{'tenant':<10} {'served':>7} {'shed':>5} {'queued':>6} "
        f"{'p50us':>8} {'p99us':>9} {'p999us':>9} {'worstWp999':>11}"
    )
    for t in result.tenants:
        lines.append(
            f"{t.tenant:<10} {t.served:>7} {t.shed:>5} {t.queued:>6} "
            f"{t.p50_us:>8.1f} {t.p99_us:>9.1f} {t.p999_us:>9.1f} "
            f"{t.worst_window_p999_us:>11.1f}"
        )
    lines.append("")
    lines.append(
        f"{'shard':<6} {'served':>7} {'shed':>5} {'p999us':>9} "
        f"{'blocked_ms':>10} {'queue':>18}"
    )
    for s in result.shards:
        adm = s.admission
        lines.append(
            f"{s.shard:<6} {s.served:>7} {s.shed:>5} {s.p999_us:>9.1f} "
            f"{s.stalls['blocked_ns'] / 1e6:>10.2f} "
            f"{adm['queued']:>7}q/{adm['shed']:>4}s/"
            f"{adm['queued_ns'] / 1e6:>4.1f}ms"
        )
    lines.append("")
    lines.append(
        f"fairness (max/min tenant p99): {result.fairness_ratio:.2f}x; "
        f"worst tenant p99.9 {result.worst_tenant_p999_us:,.1f} us; "
        f"cluster blocked {result.blocked_ns / 1e6:.2f} ms"
    )
    return "\n".join(lines)


def render_serve(results: Sequence[ServeResult], width: int = 40) -> str:
    """Timelines for every run plus an untuned-vs-fair verdict."""
    blocks = [render_timeline(r, width=width) for r in results]
    by_variant = {r.workload: r for r in results}
    if "serve" in by_variant and "serve-fair" in by_variant:
        base, fair = by_variant["serve"], by_variant["serve-fair"]
        blocks.append(
            "multi-tenant stability: fair vs untuned — "
            f"worst tenant p99.9 {base.worst_tenant_p999_us:,.1f} -> "
            f"{fair.worst_tenant_p999_us:,.1f} us, "
            f"fairness {base.fairness_ratio:.2f}x -> "
            f"{fair.fairness_ratio:.2f}x, "
            f"shed {base.shed} -> {fair.shed}"
        )
    return "\n\n".join(blocks)
