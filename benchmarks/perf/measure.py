"""The measuring loop: ``[set-up phase -> timed phase]`` on a fresh system.

One process imports the program once and then repeats the same cycle on
the same inputs. Everything virtual (simulated time, byte and call
counts) must come out identical each time; only host time may differ.

Host time is taken in chunks: the workloads call ``tick()`` every
``workloads.CHUNK`` operations (20-70 ms of work) and after each drain,
and every repeat does the same work in the same chunk. On this shared
box machine speed wanders by tens of percent within seconds, so a whole
1-3 s phase is almost never undisturbed, but each chunk usually is in
one of the repeats: a phase's host time is the **sum over chunks of the
fastest repeat's time for that chunk**. Measured here, that is 2-3x
steadier than the minimum of whole-phase times.
"""

from __future__ import annotations

import cProfile
import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import layers
from tracing import SpanLog
from workloads import Env, Inputs, Outcome, Size, Workload, read_back

#: identical repeats per run, the warm-up included
MIN_REPEATS = 5
MAX_REPEATS = 7
#: stop repeating once one more repeat improves the host time by less
SETTLED = 0.01


class BenchmarkError(Exception):
    """The benchmark could not produce a trustworthy measurement."""


@dataclass
class Repeat:
    """One ``set-up -> timed`` cycle and what it measured."""

    #: wall seconds of each set-up chunk, CPU seconds of each timed chunk
    setup_chunks: List[float]
    timed_chunks: List[float]
    #: every virtual-time and count metric, by final name
    virtual: Dict[str, float]
    outcome: Outcome
    #: the system it ran on; dropped once no later step needs it
    env: Optional[Env]

    @property
    def cpu_s(self) -> float:
        return sum(self.timed_chunks)


class ChunkClock:
    """``tick()`` appends the time since the previous tick."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.chunks: List[float] = []
        self.last = clock()

    def tick(self) -> None:
        now = self.clock()
        self.chunks.append(now - self.last)
        self.last = now


def fastest(chunked: Sequence[List[float]]) -> float:
    """Sum over chunks of the fastest repeat's time for that chunk."""
    if len({len(chunks) for chunks in chunked}) != 1:
        raise BenchmarkError("repeats of the same inputs ticked differently")
    return sum(map(min, zip(*chunked)))


def one_repeat(
    workload: Workload,
    inputs: Inputs,
    size: Size,
    obs=None,
    trace: bool = False,
    store: str = "noblsm",
    log: Optional[SpanLog] = None,
    profiler: Optional[cProfile.Profile] = None,
) -> Repeat:
    """Set up a fresh system, run the timed phase, read the counters.

    ``log`` makes this the traced pass: the benchmark's own spans are
    recorded around each phase and public call, and the registries are
    reset after set-up so they describe the timed phase only.
    ``profiler`` is enabled around the timed phase alone.
    """
    gc.collect()
    phase = log.phase if log is not None else (lambda name: nullcontext())
    setup_clock = ChunkClock(time.perf_counter)
    with phase("setup"):
        env = workload.setup(
            inputs, size, obs=obs, trace=trace, store=store,
            tick=setup_clock.tick,
        )

    if log is not None:
        for stack in env.stacks:
            if stack.obs.enabled:
                stack.obs.reset()
        if env.cluster is not None:
            log.wrap_cluster(env.cluster)
        else:
            log.wrap_store(
                env.dbs[0],
                probe=lambda: layers.space_sample(env),
                sample_every=max(len(inputs.ops) // 80, 1),
            )

    before = layers.counts(env)
    timed_clock = ChunkClock(time.process_time)
    if profiler is not None:
        profiler.enable()
    try:
        with phase("timed"):
            outcome = workload.timed(env, inputs, tick=timed_clock.tick)
    finally:
        if profiler is not None:
            profiler.disable()
    virtual = layers.deterministic(
        env, inputs, outcome, before, layers.counts(env)
    )
    return Repeat(
        setup_clock.chunks, timed_clock.chunks, virtual, outcome, env
    )


def check_identical(
    reference: Dict[str, float], other: Dict[str, float], what: str
) -> None:
    """Raise unless two passes over the same inputs measured the same."""
    differing = sorted(
        name for name in reference if reference[name] != other.get(name)
    )
    if differing:
        details = ", ".join(
            f"{name}: {reference[name]!r} != {other.get(name)!r}"
            for name in differing[:5]
        )
        raise BenchmarkError(
            f"virtual metrics differ between {what} ({details})"
        )


def repeats(
    workload: Workload, inputs: Inputs, size: Size, seconds: float
) -> List[Repeat]:
    """Identical cycles until the host time has settled.

    At least ``MIN_REPEATS``; then more, up to ``MAX_REPEATS``, while
    the timed phases (warm-up aside) add up to less than ``seconds`` or
    the last repeat still lowered the per-chunk minimum by more than
    ``SETTLED`` — a sign the box was busy throughout. The first repeat
    is the warm-up: it takes part in the minimum like the others and
    loses there. Each old system is dropped before the next is built so
    peak memory is one system's, not the run's.
    """
    done: List[Repeat] = []
    settled = False
    while len(done) < MIN_REPEATS or (
        len(done) < MAX_REPEATS
        and (sum(r.cpu_s for r in done[1:]) < seconds or not settled)
    ):
        if done:
            done[-1].env = None
        repeat = one_repeat(workload, inputs, size)
        if done:
            check_identical(
                done[0].virtual, repeat.virtual, "repeats of the same inputs"
            )
            before = fastest([r.timed_chunks for r in done])
            after = fastest([r.timed_chunks for r in done + [repeat]])
            settled = before - after <= SETTLED * before
        done.append(repeat)
    return done


def final_state_check(
    workload: Workload, inputs: Inputs, last: Repeat
) -> "tuple[int, int, Dict[str, float]]":
    """The read-back after the last repeat.

    ``write``: power-fail the machine, recover, read every key — all of
    it was drained and settled, so every last-written value must be
    there. ``serve``: read every key from its shard (``serve()`` returns
    no values to check on the way). Returns (reads attempted, wrong
    values, recovery metrics).
    """
    recovery = {
        "lsm.recovery_virt_ms": 0.0,
        "lsm.recovery_host_s": 0.0,
        "lsm.recovered_records": 0.0,
    }
    if workload.name == "write":
        started = time.perf_counter()
        db, recovery_ns = workload.crash_and_reopen(last.env)
        recovery = {
            "lsm.recovery_virt_ms": recovery_ns / 1e6,
            "lsm.recovery_host_s": time.perf_counter() - started,
            "lsm.recovered_records": float(db.stats.recovered_records),
        }
        wrong = read_back(db, inputs.model, last.env.stacks[0].now)
        return len(inputs.model), wrong, recovery
    if workload.name == "serve":
        model = last.outcome.model
        return len(model), workload.read_back(last.env, model), recovery
    return 0, 0, recovery
