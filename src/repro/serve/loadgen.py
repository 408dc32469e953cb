"""Virtual-time load generation: who asks for what, when.

One request stream covers everything from "one store, one tenant,
constant-rate puts" (the soak gate's preset,
:func:`repro.serve.bench.soak_config`) to a multi-tenant cluster:

- **Open loop**: Poisson arrivals whose instantaneous rate follows a
  diurnal curve — ``rate(t) = base * (1 + amplitude * sin(...))`` with
  the peak mid-horizon, so a run sweeps through trough, ramp, and peak
  load like a day of traffic compressed into the horizon. Arrivals do
  not care whether the cluster is keeping up; queueing delay lands in
  latency (or in shed counts), exactly the regime where write stalls
  reach tenants ("On Performance Stability in LSM-based Storage
  Systems").
- **Closed loop**: a fixed fleet of clients, each issuing its next
  request when the previous one completes plus think time — the
  classical YCSB shape, which *hides* stalls by slowing down with the
  store. Offered both so the serve bench can show the difference.
- **Hot tenants**: each arrival's tenant is drawn from a Zipfian over
  the tenant ids (theta configurable), so tenant 0 is the hot one; keys
  are uniform over each tenant's private keyspace; the op mix is a
  write fraction (puts) with the rest point reads.

Every stream is a pure function of its config and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.bench.workloads import ValueGenerator, make_key
from repro.bench.zipf import ZIPFIAN_CONSTANT, Zipfian

NS_PER_SEC = 1_000_000_000

OP_PUT = "put"
OP_GET = "get"


@dataclass(frozen=True)
class Request:
    """One generated request, in cluster-wide virtual time."""

    __slots__ = ("arrival", "tenant", "op", "key", "value")

    arrival: int  # ns since the run's start
    tenant: str
    op: str  # OP_PUT | OP_GET
    key: bytes
    value: Optional[bytes]


@dataclass
class LoadConfig:
    """Shape of one generated request stream."""

    num_tenants: int = 6
    #: mean arrival rate over the whole horizon, requests per virtual
    #: second (open loop); the diurnal curve modulates around this mean
    arrival_rate: float = 40_000.0
    duration_s: float = 0.5
    #: diurnal modulation depth in [0, 1): 0 = flat, 0.6 = peak rate is
    #: 1.6x the mean while the trough is 0.4x
    diurnal_amplitude: float = 0.0
    #: zipf theta over tenant ids; higher = hotter tenant 0
    tenant_theta: float = ZIPFIAN_CONSTANT
    #: fraction of requests that are puts (the rest are point reads)
    write_fraction: float = 0.9
    #: per-tenant keyspace size (keys are uniform within a tenant)
    keys_per_tenant: int = 2_000
    key_size: int = 16
    value_size: int = 1024
    seed: int = 1234
    # --- closed loop only ---
    #: clients per tenant; each waits for its previous completion
    clients_per_tenant: int = 4
    #: think time between a completion and the client's next request
    think_ns: int = 0

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")

    @property
    def horizon_ns(self) -> int:
        return int(self.duration_s * NS_PER_SEC)

    def tenant_ids(self) -> List[str]:
        width = len(str(self.num_tenants - 1))
        return [f"tenant{i:0{width}d}" for i in range(self.num_tenants)]


def diurnal_rate(config: LoadConfig, at_ns: int) -> float:
    """Instantaneous arrival rate at ``at_ns`` into the horizon.

    One full sine period over the horizon, phased so the run starts at
    the mean on the way down, bottoms out at a quarter, peaks at three
    quarters — the gate-sized runs end on the hardest stretch.
    """
    if config.diurnal_amplitude == 0.0:
        return config.arrival_rate
    phase = 2.0 * math.pi * at_ns / max(config.horizon_ns, 1)
    return config.arrival_rate * (
        1.0 - config.diurnal_amplitude * math.sin(phase)
    )


class RequestFactory:
    """Draws (tenant, op, key, value) tuples; shared by both loops."""

    def __init__(self, config: LoadConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self.tenants = config.tenant_ids()
        self.chooser = (
            Zipfian(config.num_tenants, seed=config.seed + 1,
                    theta=config.tenant_theta)
            if config.num_tenants > 1
            else None
        )
        self.values = ValueGenerator(config.value_size, seed=config.seed + 2)

    def next_tenant(self) -> str:
        if self.chooser is None:
            return self.tenants[0]
        return self.tenants[self.chooser.next() % len(self.tenants)]

    def make(self, arrival: int, tenant: Optional[str] = None) -> Request:
        config = self.config
        if tenant is None:
            tenant = self.next_tenant()
        key = make_key(self.rng.randrange(config.keys_per_tenant),
                       config.key_size)
        if self.rng.random() < config.write_fraction:
            return Request(arrival, tenant, OP_PUT, key, self.values.next())
        return Request(arrival, tenant, OP_GET, key, None)


def open_loop(config: LoadConfig) -> Iterator[Request]:
    """Poisson arrivals with the diurnal rate curve, in arrival order."""
    rng = random.Random(config.seed)
    factory = RequestFactory(config, rng)
    horizon = config.horizon_ns
    at = 0
    while True:
        rate = diurnal_rate(config, at)
        at += max(int(rng.expovariate(rate) * NS_PER_SEC), 1)
        if at >= horizon:
            return
        yield factory.make(at)


class ClosedLoopDriver:
    """Fixed client fleet: each request starts when the last finished.

    ``run(execute)`` pumps every client until the horizon, always
    advancing the client with the smallest clock (ties broken by client
    index, like :class:`repro.bench.harness.ThreadedDriver`).
    ``execute(request) -> completion`` is the cluster's serve function;
    a shed request costs only think time.
    """

    def __init__(self, config: LoadConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.factory = RequestFactory(config, self.rng)
        tenants = config.tenant_ids()
        #: (clock, client index, tenant) per client; tenants round-robin
        self.clients = [
            [0, i, tenants[i % len(tenants)]]
            for i in range(config.clients_per_tenant * len(tenants))
        ]

    def run(self, execute) -> int:
        horizon = self.config.horizon_ns
        think = self.config.think_ns
        last = 0
        while True:
            client = min(self.clients, key=lambda c: (c[0], c[1]))
            at = client[0]
            if at >= horizon:
                return last
            request = self.factory.make(at, tenant=client[2])
            done = execute(request)
            if done is None:  # shed: immediate pushback
                done = at
            client[0] = done + think + 1
            last = max(last, done)
