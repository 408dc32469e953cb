"""The four benchmark workloads: inputs, set-up phase, timed phase.

Every workload is three pure steps, so a run can repeat them and get
the same virtual-time result every time:

``generate(seed, size)``
    builds every input from the seed — preload pairs, the timed
    operations and, next to each operation, the answer a correct store
    must give (computed on a plain dict, the *model*). The program under
    test never sees the seed.
``setup(inputs, ...)``
    builds a fresh simulated machine and store, preloads it and drains
    all background work. Timed by the caller as ``setup_s``.
``timed(env, inputs)``
    issues the operations, checks every answer against the model and
    records each operation's virtual latency (completion - submission).

Only public API of ``repro`` is used; nothing under ``src/`` knows the
benchmark exists.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig, ThreadedDriver
from repro.bench.workloads import ValueGenerator, make_key
from repro.bench.zipf import ScrambledZipfian
from repro.fs.stack import StorageStack
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import Tracer
from repro.serve.cluster import ClusterConfig, ServeCluster
from repro.serve.loadgen import OP_PUT, LoadConfig, Request, open_loop

KEY_SIZE = 16
VALUE_SIZE = 1024
SCALE = 500.0
DBNAME = "db"

PUT = "put"
GET = "get"
GET_MISSING = "get_missing"
SCAN = "scan"
SCAN_LENGTH = 10

#: operations between two readings of the host clocks (see measure.py)
CHUNK = 250


def no_tick() -> None:
    """The default ``tick``: nobody is timing."""


def chunks(items: List) -> Iterator[List]:
    for start in range(0, len(items), CHUNK):
        yield items[start:start + CHUNK]

#: serve: arrival rates in requests per virtual second; host timing and
#: the end-to-end latency metrics come from MAIN_RATE, the others run
#: once in the traced run for their exact virtual numbers
SERVE_RATES = (45_000, 90_000, 135_000)
MAIN_RATE = 45_000
#: serve: a request meets the limit if it completes within this many
#: virtual ns of its arrival (a shed request never does)
SLO_LIMIT_NS = 100_000
SLO_QUANTILE = 0.999


@dataclass(frozen=True)
class Size:
    """How much work one repeat does (``--shrink`` divides it for tests)."""

    ops: int = 20_000
    serve_duration_s: float = 0.25
    keys_per_tenant: int = 2_000

    def shrunk(self, factor: int) -> "Size":
        if factor < 1:
            raise ValueError(f"shrink factor must be >= 1, got {factor}")
        return Size(
            ops=max(self.ops // factor, 200),
            serve_duration_s=self.serve_duration_s / factor,
            keys_per_tenant=max(self.keys_per_tenant // factor, 50),
        )


@dataclass
class Inputs:
    """Everything one workload feeds the store, with the expected answers."""

    #: (key, value) pairs written during set-up, in order
    preload: List[Tuple[bytes, bytes]]
    #: timed operations: (kind, key, argument, expected answer)
    ops: List[Tuple[str, bytes, object, object]]
    #: key -> value once preload and every timed op have run
    model: Dict[bytes, bytes]
    #: key+value bytes of every put (preload and timed)
    user_bytes_put: int = 0
    #: key+value bytes the timed ops submit or must get back
    user_bytes_moved: int = 0
    #: serve only: the generated request stream (arrivals from 0)
    requests: List[Request] = field(default_factory=list)


@dataclass
class Env:
    """One freshly set-up system: machine(s) + store(s), drained."""

    stacks: List[StorageStack]
    dbs: List[object]
    now: int
    cluster: Optional[ServeCluster] = None
    #: serve only: the requests shifted to start at ``now``, and the
    #: virtual time at which the arrival schedule ends
    requests: List[Request] = field(default_factory=list)
    horizon: int = 0


@dataclass
class Outcome:
    """What the timed phase observed."""

    #: virtual ns per operation, by kind, in issue order
    latencies: Dict[str, List[int]]
    attempted: int
    #: wrong answers (a refused serve request is counted in ``shed``)
    wrong: int
    end: int
    shed: int = 0
    user_bytes_moved: int = 0
    user_bytes_put: int = 0
    #: serve only: requests still in flight one latency limit after the
    #: arrival schedule ended, and the model after the served puts
    backlog_after_limit: int = 0
    model: Optional[Dict[object, bytes]] = None


def _pair_bytes(key: bytes, value: Optional[bytes]) -> int:
    return len(key) + (len(value) if value is not None else 0)


def _preload(seed: int, size: Size) -> "tuple[List[Tuple[bytes, bytes]], Dict[bytes, bytes], ValueGenerator]":
    """``size.ops`` random puts over a key space of the same size."""
    rng = random.Random(seed)
    values = ValueGenerator(VALUE_SIZE, seed=seed)
    pairs = [
        (make_key(rng.randrange(size.ops), KEY_SIZE), values.next())
        for _ in range(size.ops)
    ]
    return pairs, dict(pairs), values


def _drain(stack: StorageStack, db, at: int) -> int:
    """Finish all background work, make it durable, reclaim shadows.

    Without the reclaim, how many shadow tables are still on disk
    depends on where the last reclaim timer tick fell, and space
    amplification with it. The store's own timer does the reclaiming:
    calling ``db.reclaim`` here can re-enter it through the event queue
    (``fs.unlink`` fires due timers) and fail on a file the inner call
    already deleted.
    """
    t = max(db.wait_for_background(at), stack.settle())
    if hasattr(db, "reclaim"):
        t += db.options.reclaim_interval_ns
        stack.events.run_until(t)
        t = max(t, stack.settle())
    return t


class Workload:
    """Shared single-store plumbing; subclasses define the operations."""

    name = ""
    #: page cache as a share of the preloaded data; None = never evicts
    pagecache_share: Optional[float] = None

    def generate(self, seed: int, size: Size) -> Inputs:
        raise NotImplementedError

    def setup(
        self,
        inputs: Inputs,
        size: Size,
        obs: Optional[MetricRegistry] = None,
        trace: bool = False,
        store: str = "noblsm",
        tick: Callable[[], None] = no_tick,
    ) -> Env:
        config = ScaledConfig(
            scale=SCALE, num_ops=size.ops, value_size=VALUE_SIZE,
            key_size=KEY_SIZE,
        )
        # ScaledConfig owns the scaling rules; only the page-cache size
        # and the registry are the benchmark's to choose
        stack_config = config.build_stack().config
        if self.pagecache_share is not None:
            stack_config = replace(
                stack_config,
                pagecache_bytes=int(
                    size.ops * (KEY_SIZE + VALUE_SIZE) * self.pagecache_share
                ),
            )
        if obs is not None and trace:
            Tracer(obs)  # before the stack: the store caches it at init
        stack = StorageStack(replace(stack_config, obs=obs))
        db = make_store(store, stack, DBNAME, options=config.build_options())
        t = 0
        put = db.put
        for chunk in chunks(inputs.preload):
            for key, value in chunk:
                t = put(key, value, at=t)
            tick()
        now = _drain(stack, db, t)
        tick()
        return Env([stack], [db], now)

    def timed(
        self, env: Env, inputs: Inputs, tick: Callable[[], None] = no_tick
    ) -> Outcome:
        """One client, closed loop: the next op starts when this one ends."""
        db = env.dbs[0]
        latencies: Dict[str, List[int]] = {
            PUT: [], GET: [], GET_MISSING: [], SCAN: [],
        }
        wrong = 0
        t = env.now
        for chunk in chunks(inputs.ops):
            for kind, key, argument, expected in chunk:
                if kind == PUT:
                    done = db.put(key, argument, at=t)
                elif kind == SCAN:
                    got, done = db.scan(key, argument, at=t)
                    if got != expected:
                        wrong += 1
                else:
                    got, done = db.get(key, at=t)
                    if got != expected:
                        wrong += 1
                latencies[kind].append(done - t)
                t = done
            tick()
        end = _drain(env.stacks[0], db, t)
        tick()
        return Outcome(
            latencies={k: v for k, v in latencies.items() if v},
            attempted=len(inputs.ops),
            wrong=wrong,
            end=end,
            user_bytes_moved=inputs.user_bytes_moved,
            user_bytes_put=inputs.user_bytes_put,
        )


class Write(Workload):
    """Steady-state random overwrites: the paper's Fig. 4a/4b in small."""

    name = "write"

    def generate(self, seed: int, size: Size) -> Inputs:
        preload, model, values = _preload(seed, size)
        rng = random.Random(seed + 1)
        ops = []
        for _ in range(size.ops):
            key = make_key(rng.randrange(size.ops), KEY_SIZE)
            value = values.next()
            ops.append((PUT, key, value, None))
            model[key] = value
        moved = size.ops * (KEY_SIZE + VALUE_SIZE)
        return Inputs(preload, ops, model, 2 * moved, moved)

    def crash_and_reopen(self, env: Env) -> "tuple[object, int]":
        """Power-fail the machine and recover the store.

        Returns (reopened store, virtual ns recovery took).
        """
        stack = env.stacks[0]
        options = env.dbs[0].options
        stack.crash()
        before = stack.now
        db = make_store("noblsm", stack, DBNAME, options=options)
        return db, stack.now - before


def read_back(db, model: Dict[bytes, bytes], at: int) -> int:
    """Get every key of the model; returns how many values were wrong."""
    wrong = 0
    t = at
    for key, value in model.items():
        got, t = db.get(key, at=t)
        if got != value:
            wrong += 1
    return wrong


class Read(Workload):
    """Point reads, bloom-filtered misses and short scans, cache too small."""

    name = "read"
    pagecache_share = 0.25

    def generate(self, seed: int, size: Size) -> Inputs:
        preload, model, _ = _preload(seed, size)
        present = sorted(model)
        absent = [
            key
            for key in (make_key(i, KEY_SIZE) for i in range(size.ops))
            if key not in model
        ]
        rng = random.Random(seed + 1)
        ops = []
        moved = 0
        for _ in range(size.ops):
            roll = rng.random()
            if roll < 0.6:
                key = rng.choice(present)
                ops.append((GET, key, None, model[key]))
                moved += _pair_bytes(key, model[key])
            elif roll < 0.8 and absent:
                key = rng.choice(absent)
                ops.append((GET_MISSING, key, None, None))
                moved += len(key)
            else:
                key = make_key(rng.randrange(size.ops), KEY_SIZE)
                first = bisect.bisect_left(present, key)
                expected = [
                    (k, model[k]) for k in present[first:first + SCAN_LENGTH]
                ]
                ops.append((SCAN, key, SCAN_LENGTH, expected))
                moved += sum(_pair_bytes(k, v) for k, v in expected)
        return Inputs(
            preload, ops, model,
            size.ops * (KEY_SIZE + VALUE_SIZE), moved,
        )


class Mixed(Workload):
    """YCSB-A: half reads, half updates, zipfian keys, four clients."""

    name = "mixed"
    #: closed-loop clients
    clients = 4

    def generate(self, seed: int, size: Size) -> Inputs:
        preload, model, values = _preload(seed, size)
        present = sorted(model)
        chooser = ScrambledZipfian(len(present), seed=seed + 1)
        rng = random.Random(seed + 2)
        ops = []
        moved = 0
        puts = size.ops
        for _ in range(size.ops):
            key = present[chooser.next()]
            if rng.random() < 0.5:
                ops.append((GET, key, None, model[key]))
            else:
                value = values.next()
                ops.append((PUT, key, value, None))
                model[key] = value
                puts += 1
            moved += _pair_bytes(key, model[key])
        return Inputs(
            preload, ops, model, puts * (KEY_SIZE + VALUE_SIZE), moved
        )

    def timed(
        self, env: Env, inputs: Inputs, tick: Callable[[], None] = no_tick
    ) -> Outcome:
        db = env.dbs[0]
        gets: List[int] = []
        puts: List[int] = []
        wrong = [0]

        def read_op(key: bytes, expected: bytes):
            def op(db, at: int) -> int:
                got, done = db.get(key, at=at)
                if got != expected:
                    wrong[0] += 1
                gets.append(done - at)
                return done
            return op

        def update_op(key: bytes, value: bytes):
            def op(db, at: int) -> int:
                done = db.put(key, value, at=at)
                puts.append(done - at)
                return done
            return op

        operations = [
            update_op(key, argument) if kind == PUT else read_op(key, expected)
            for kind, key, argument, expected in inputs.ops
        ]
        driver = ThreadedDriver(db, self.clients, start=env.now)
        for chunk in chunks(operations):
            end = driver.run(chunk)  # the clients' clocks carry over
            tick()
        end = _drain(env.stacks[0], db, end)
        tick()
        return Outcome(
            latencies={GET: gets, PUT: puts},
            attempted=len(operations),
            wrong=wrong[0],
            end=end,
            user_bytes_moved=inputs.user_bytes_moved,
            user_bytes_put=inputs.user_bytes_put,
        )


class Serve(Workload):
    """Open-loop multi-tenant traffic through router and admission."""

    name = "serve"
    num_shards = 4
    num_tenants = 6
    max_queue = 32
    scale = 2000.0

    def __init__(self, rate: int = MAIN_RATE) -> None:
        self.rate = rate

    def load_config(self, seed: int, size: Size) -> LoadConfig:
        return LoadConfig(
            num_tenants=self.num_tenants,
            arrival_rate=float(self.rate),
            duration_s=size.serve_duration_s,
            diurnal_amplitude=0.4,
            write_fraction=0.9,
            keys_per_tenant=size.keys_per_tenant,
            key_size=KEY_SIZE,
            value_size=VALUE_SIZE,
            seed=seed,
        )

    def generate(self, seed: int, size: Size) -> Inputs:
        load = self.load_config(seed, size)
        values = ValueGenerator(VALUE_SIZE, seed=seed + 7)
        pairs = [
            (tenant, make_key(index, KEY_SIZE))
            for tenant in load.tenant_ids()
            for index in range(size.keys_per_tenant)
        ]
        random.Random(seed + 8).shuffle(pairs)
        # serve keys are (tenant, key): the router namespaces them
        preload = [(pair, values.next()) for pair in pairs]
        return Inputs(
            preload=preload,
            ops=[],
            model=dict(preload),
            user_bytes_put=len(preload) * (KEY_SIZE + VALUE_SIZE),
            requests=list(open_loop(load)),
        )

    def setup(
        self,
        inputs: Inputs,
        size: Size,
        obs: Optional[MetricRegistry] = None,
        trace: bool = False,
        store: str = "noblsm",
        tick: Callable[[], None] = no_tick,
    ) -> Env:
        expected = int(self.rate * size.serve_duration_s)
        cluster = ServeCluster(
            ClusterConfig(
                store=store,
                num_shards=self.num_shards,
                scale=self.scale,
                value_size=VALUE_SIZE,
                key_size=KEY_SIZE,
                spread=1,
                max_queue=self.max_queue,
                expected_shard_ops=expected + len(inputs.preload),
            ),
            obs=obs,
        )
        router = cluster.router
        clocks = [0] * self.num_shards
        for chunk in chunks(inputs.preload):
            for (tenant, key), value in chunk:
                index = router.shard_of(tenant, key)
                clocks[index] = cluster.shards[index].db.put(
                    router.storage_key(tenant, key), value, at=clocks[index]
                )
            tick()
        now = max(
            _drain(shard.stack, shard.db, clocks[shard.index])
            for shard in cluster.shards
        )
        # arrivals are generated from 0; the cluster's clocks are not
        requests = [
            Request(r.arrival + now, r.tenant, r.op, r.key, r.value)
            for r in inputs.requests
        ]
        tick()
        return Env(
            [shard.stack for shard in cluster.shards],
            [shard.db for shard in cluster.shards],
            now,
            cluster=cluster,
            requests=requests,
            horizon=now + int(size.serve_duration_s * 1e9),
        )

    def timed(
        self, env: Env, inputs: Inputs, tick: Callable[[], None] = no_tick
    ) -> Outcome:
        cluster = env.cluster
        serve = cluster.serve
        model = dict(inputs.model)
        latencies: List[int] = []
        shed = 0
        moved = 0
        put_bytes = inputs.user_bytes_put
        for chunk in chunks(env.requests):
            for request in chunk:
                done = serve(request)
                if done is None:
                    shed += 1
                    continue
                latencies.append(done - request.arrival)
                pair = (request.tenant, request.key)
                if request.op == OP_PUT:
                    model[pair] = request.value
                    put_bytes += _pair_bytes(request.key, request.value)
                moved += _pair_bytes(request.key, model.get(pair))
            tick()
        # a backlog that is not growing has drained one latency limit
        # after the last arrival
        backlog = sum(
            shard.admission.peek_depth(env.horizon + SLO_LIMIT_NS)
            for shard in cluster.shards
        )
        end = max(
            _drain(shard.stack, shard.db, shard.stack.now)
            for shard in cluster.shards
        )
        tick()
        return Outcome(
            latencies={"request": latencies},
            attempted=len(env.requests),
            wrong=0,
            end=end,
            shed=shed,
            user_bytes_moved=moved,
            user_bytes_put=put_bytes,
            backlog_after_limit=backlog,
            model=model,
        )

    def read_back(self, env: Env, model: Dict[object, bytes]) -> int:
        """Read every (tenant, key) from its shard; returns wrong values.

        ``ServeCluster.serve`` returns completion times, not values, so
        answers are checked on the final state: every served put must be
        there and no shed put may be.
        """
        router = env.cluster.router
        wrong = 0
        for (tenant, key), value in model.items():
            shard = env.cluster.shards[router.shard_of(tenant, key)]
            got, _ = shard.db.get(
                router.storage_key(tenant, key), at=shard.stack.now
            )
            if got != value:
                wrong += 1
        return wrong


WORKLOADS = {w.name: w for w in (Write(), Read(), Mixed(), Serve())}
