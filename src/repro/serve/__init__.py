"""``repro.serve`` — the sharded multi-tenant serving layer.

Turns the single-store benchmark into a service-shaped system: N
independent store shards (each a full
:class:`~repro.fs.stack.StorageStack` + store slice) behind a
deterministic hash :class:`~repro.serve.router.Router` with per-tenant
key namespaces, per-shard
:class:`~repro.serve.admission.AdmissionController` backpressure driven
by the store's live :meth:`~repro.lsm.pressure.WritePressure.state`,
and the :mod:`~repro.serve.loadgen` open/closed-loop multi-tenant load
generator. :mod:`~repro.serve.bench` measures it all — per-tenant and
per-shard p50/p99/p99.9, the fairness ratio, and admission counts — in
the versioned ``repro.serve/1`` document gated in CI.
"""

from repro.serve.admission import (
    ADMIT,
    QUEUE,
    SHED,
    AdmissionController,
    AdmissionStats,
)
from repro.serve.bench import (
    SERVE_SCHEMA,
    ServeConfig,
    ServeResult,
    render_serve,
    render_timeline,
    run_serve,
    run_serve_pair,
)
from repro.serve.cluster import ClusterConfig, ServeCluster, Shard, TenantStats
from repro.serve.loadgen import (
    ClosedLoopDriver,
    LoadConfig,
    Request,
    RequestFactory,
    diurnal_rate,
    open_loop,
)
from repro.serve.router import NAMESPACE_SEPARATOR, Router

__all__ = [
    "ADMIT",
    "QUEUE",
    "SHED",
    "AdmissionController",
    "AdmissionStats",
    "SERVE_SCHEMA",
    "ServeConfig",
    "ServeResult",
    "render_serve",
    "render_timeline",
    "run_serve",
    "run_serve_pair",
    "ClusterConfig",
    "ServeCluster",
    "Shard",
    "TenantStats",
    "ClosedLoopDriver",
    "LoadConfig",
    "Request",
    "RequestFactory",
    "diurnal_rate",
    "open_loop",
    "NAMESPACE_SEPARATOR",
    "Router",
]
