"""The serving cluster: N independent shards behind the router.

Each shard is a full vertical slice — its own
:class:`~repro.fs.stack.StorageStack` (device, page cache, journal,
file system) and its own store — so shards share *nothing*: one shard's
compaction debt cannot stall another's writers, exactly like N stores
on N machines. All shards live on one cluster-wide virtual timeline
(every stack's clock starts at zero and requests carry absolute
arrival times), so per-tenant latency windows are comparable across
shards.

The serve path for one request:

1. the :class:`~repro.serve.router.Router` picks the shard and builds
   the namespaced storage key;
2. the shard's :class:`~repro.serve.admission.AdmissionController`
   reads the store's :meth:`~repro.lsm.pressure.WritePressure.state`
   and either admits, queues (the request waits behind the shard's
   backlog — its wait shows up in latency), or sheds (the request is
   refused and only counted);
3. served requests execute against the shard's store at their arrival
   time — the store's writer mutex and stall machinery charge any
   queueing to the completion time — and the latency is recorded in the
   tenant's and the shard's windowed histograms
   (:class:`~repro.obs.metrics.WindowedHistogram`), keyed by *arrival*
   so a delayed op is charged to the window whose load delayed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig
from repro.lsm.db import DB
from repro.obs.metrics import NULL_REGISTRY, MetricRegistry, WindowedHistogram
from repro.serve.admission import QUEUE, SHED, AdmissionController
from repro.serve.loadgen import OP_GET, OP_PUT, Request
from repro.serve.router import Router


@dataclass
class TenantStats:
    """Per-tenant serving outcome (one tenant row of ``repro.serve/1``)."""

    tenant: str
    served: int = 0
    shed: int = 0
    queued: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "served": self.served,
            "shed": self.shed,
            "queued": self.queued,
        }


class Shard:
    """One store plus its front door."""

    __slots__ = ("index", "stack", "db", "admission", "latency", "served",
                 "shed")

    def __init__(self, index: int, stack, db: DB,
                 admission: AdmissionController, window_ns: int) -> None:
        self.index = index
        self.stack = stack
        self.db = db
        self.admission = admission
        self.latency = WindowedHistogram(f"shard{index}.latency_ns", window_ns)
        self.served = 0
        self.shed = 0

    def stall_snapshot(self) -> Dict[str, object]:
        stats = self.db.stats
        return {
            "blocked_ns": stats.blocked_ns,
            "stall_ns": stats.stall_ns,
            "slowdown_ns": stats.slowdown_ns,
            "stall_memtable_ns": stats.stall_memtable_ns,
            "stall_l0_stop_ns": stats.stall_l0_stop_ns,
            "l0_stop_abandoned": stats.l0_stop_abandoned,
            "minor_compactions": stats.minor_compactions,
            "major_compactions": stats.major_compactions,
        }


@dataclass
class ClusterConfig:
    """How to build a serving cluster."""

    store: str = "noblsm"
    num_shards: int = 4
    scale: float = 2000.0
    seed: int = 1234
    value_size: int = 1024
    key_size: int = 16
    #: router key spread per tenant (1 = tenant-affine placement)
    spread: int = 1
    #: admission queue bound per shard; 0 disables admission control
    max_queue: int = 32
    #: expected requests per shard, sizing each shard's page cache the
    #: way :class:`ScaledConfig` sizes a single-store bench (the paper
    #: host's cache never evicts; keep that ratio per shard)
    expected_shard_ops: int = 0
    window_ns: int = 25_000_000
    num_channels: int = 1
    background_threads: int = 1
    #: every shard's ``Options.stability_ingest_bytes_per_sec`` (0 =
    #: stock LevelDB, the untuned cluster)
    stability_ingest_bytes_per_sec: int = 0


class ServeCluster:
    """N shards, one router, per-tenant accounting.

    ``obs`` is an optional *cluster-level* registry (distinct from each
    shard's own stack registry) for front-door telemetry: offered /
    served / queued / shed counters and the cluster latency windowed
    histogram live there so a :class:`~repro.obs.timeseries
    .TimeSeriesSampler` can scrape them continuously. Without it the
    counters are the shared null singletons and nothing changes — the
    disabled path stays allocation-free and byte-identical.
    """

    def __init__(
        self, config: ClusterConfig, obs: Optional[MetricRegistry] = None
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.router = Router(
            config.num_shards, seed=config.seed, spread=config.spread
        )
        self.shards: List[Shard] = []
        for index in range(config.num_shards):
            scaled = ScaledConfig(
                scale=config.scale,
                num_ops=max(config.expected_shard_ops, 200),
                value_size=config.value_size,
                key_size=config.key_size,
                seed=config.seed + index,
                observe=True,
                num_channels=config.num_channels,
                background_threads=config.background_threads,
            )
            stack = scaled.build_stack()
            options = scaled.build_options()
            options.stability_ingest_bytes_per_sec = (
                config.stability_ingest_bytes_per_sec
            )
            db = make_store(
                config.store, stack, f"shard{index}", options=options
            )
            admission = AdmissionController(max(config.max_queue, 1))
            # the shard's own registry carries its front-door stats, so
            # a repro.obs/1 snapshot of the stack sees admission too
            stack.obs.register_source(
                f"serve.shard{index}.admission",
                lambda a=admission, s=stack: dict(
                    a.stats.to_dict(), depth=a.peek_depth(s.now)
                ),
            )
            self.shards.append(
                Shard(index, stack, db, admission, config.window_ns)
            )
        self.tenants: Dict[str, TenantStats] = {}
        self.tenant_latency: Dict[str, WindowedHistogram] = {}
        #: cluster-wide latency, for the run timeline; lives on the
        #: cluster registry when telemetry is on so the sampler sees it
        if self.obs.enabled:
            self.latency = self.obs.windowed_histogram(
                "serve.latency_ns", config.window_ns
            )
        else:
            self.latency = WindowedHistogram(
                "serve.latency_ns", config.window_ns
            )
        #: front-door counters (null singletons when telemetry is off)
        self._c_offered = self.obs.counter("serve.offered")
        self._c_served = self.obs.counter("serve.served")
        self._c_queued = self.obs.counter("serve.queued")
        self._c_shed = self.obs.counter("serve.shed")
        #: shed counts per window index, for the timeline
        self.shed_by_window: Dict[int, int] = {}

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = TenantStats(tenant)
            self.tenant_latency[tenant] = WindowedHistogram(
                f"tenant.{tenant}.latency_ns", self.config.window_ns
            )
        return stats

    def serve(self, request: Request) -> Optional[int]:
        """Serve one request; returns its completion time, None if shed."""
        shard = self.shards[
            self.router.shard_of(request.tenant, request.key)
        ]
        tenant = self._tenant(request.tenant)
        at = request.arrival
        self._c_offered.inc()
        if self.config.max_queue > 0:
            decision = shard.admission.decide(
                at, shard.db.pressure.state()
            )
            if decision == SHED:
                tenant.shed += 1
                shard.shed += 1
                self._c_shed.inc()
                window = at // self.config.window_ns
                self.shed_by_window[window] = (
                    self.shed_by_window.get(window, 0) + 1
                )
                return None
            if decision == QUEUE:
                tenant.queued += 1
                self._c_queued.inc()
        key = self.router.storage_key(request.tenant, request.key)
        if request.op == OP_PUT:
            done = shard.db.put(key, request.value, at=at)
        elif request.op == OP_GET:
            _, done = shard.db.get(key, at=at)
        else:
            raise ValueError(f"unknown op {request.op!r}")
        if self.config.max_queue > 0:
            shard.admission.note_completion(at, done)
        latency = done - at
        tenant.served += 1
        shard.served += 1
        self._c_served.inc()
        self.tenant_latency[request.tenant].record(at, latency)
        shard.latency.record(at, latency)
        self.latency.record(at, latency)
        return done
