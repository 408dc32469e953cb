"""Property test: stall accounting tiles exactly, serial and parallel.

The contract (see :class:`repro.lsm.db.DBStats`): the hard-stall total
is exactly attributed into its two causes, and on an observed run the
cause-labelled ``lsm.write_stall`` spans tile every counter with no gap
and no overlap — for the serial seed configuration *and* the parallel
scheduler (multiple channels x background threads), where a bug in span
emission or double-counted stall attribution would first show up.
"""

import random

import pytest

from repro.baselines.registry import make_store
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.options import KIB, Options
from repro.obs.metrics import MetricRegistry

GRID = [(1, 1), (4, 2)]  # (num_channels, background_threads)

STORES = ("leveldb", "noblsm")


def run_workload(store, channels, threads, seed, ingest=0):
    obs = MetricRegistry()
    sums = span_sums(obs)
    stack = StorageStack(
        StackConfig(
            obs=obs,
            num_channels=channels if channels != 1 else None,
        )
    )
    options = Options(
        write_buffer_size=4 * KIB,
        max_file_size=4 * KIB,
        block_size=1 * KIB,
        max_bytes_for_level_base=8 * KIB,
        l0_compaction_trigger=2,
        l0_slowdown_writes_trigger=3,
        l0_stop_writes_trigger=5,
        background_threads=threads,
        stability_ingest_bytes_per_sec=ingest,
    )
    db = make_store(store, stack, "db", options=options)
    rng = random.Random(seed)
    t = 0
    for _ in range(rng.randrange(150, 350)):
        key = b"k%012d" % rng.randrange(64)
        value = bytes(rng.randrange(64, 700))
        t = db.put(key, value, at=t)
        if rng.random() < 0.05:
            db.get(key, at=t)
    db.wait_for_background(t)
    return db, sums


def span_sums(obs):
    """The ``lsm.write_stall`` durations by cause, filled as spans end."""
    sums = {}

    def on_span(span):
        if span.name != "lsm.write_stall":
            return
        assert span.duration_ns > 0, "zero-length stall span emitted"
        cause = span.attrs.get("cause")
        sums[cause] = sums.get(cause, 0) + span.duration_ns

    obs.add_span_listener(on_span)
    return sums


@pytest.mark.parametrize("channels,threads", GRID)
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("seed", [1, 17, 4242])
def test_stall_counters_tile_and_spans_match(store, channels, threads, seed):
    db, sums = run_workload(store, channels, threads, seed)
    stats = db.stats

    # invariant 1: hard stalls are exactly attributed to their causes
    assert stats.stall_ns == stats.stall_memtable_ns + stats.stall_l0_stop_ns

    # invariant 2: the unified total is the sum of its documented parts
    assert stats.blocked_ns == stats.stall_ns + stats.slowdown_ns

    # invariant 3: observed spans tile every counter exactly; the
    # writer-blocked causes sum to blocked_ns, while ``major_deferred``
    # (a parallel-scheduler deferral, not writer-blocked time) is the
    # only other cause allowed and never leaks into the counters
    assert sums.get("memtable_full", 0) == stats.stall_memtable_ns
    assert sums.get("l0_stop", 0) == stats.stall_l0_stop_ns
    assert sums.get("l0_slowdown", 0) == stats.slowdown_ns
    writer_blocked = (
        sums.get("memtable_full", 0)
        + sums.get("l0_stop", 0)
        + sums.get("l0_slowdown", 0)
    )
    assert writer_blocked == stats.blocked_ns
    assert set(sums) <= {
        "memtable_full",
        "l0_stop",
        "l0_slowdown",
        "major_deferred",
    }


@pytest.mark.parametrize("channels,threads", GRID)
def test_invariants_hold_with_dynamic_slowdown(channels, threads):
    # stability tuning on: dynamic slowdown, the rate limiter and fair
    # preemption of deeper picks by the L0 drain
    db, sums = run_workload(
        "noblsm", channels, threads, seed=99, ingest=75_000
    )
    limiter = db.pressure.limiter
    assert limiter.throttled_jobs > 0 and limiter.bypassed_jobs > 0
    stats = db.stats
    assert stats.slowdown_ns > 0
    assert stats.stall_ns == stats.stall_memtable_ns + stats.stall_l0_stop_ns
    assert sums.get("l0_slowdown", 0) == stats.slowdown_ns
    assert (
        sums.get("memtable_full", 0)
        + sums.get("l0_stop", 0)
        + sums.get("l0_slowdown", 0)
        == stats.blocked_ns
    )


@pytest.mark.parametrize("seed", [3, 11])
def test_workload_actually_stalls(seed):
    # guard against the suite silently testing a stall-free regime
    db, _ = run_workload("noblsm", 1, 1, seed)
    assert db.stats.blocked_ns > 0
