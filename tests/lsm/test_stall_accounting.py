"""Regression tests for the stall-accounting contract.

Three bugs lived here and must stay dead:

1. stall spans (then ``DB._note_stall``) were only emitted when a tracer
   was attached, so observe-only runs (``--observe``) saw stall
   *counters* move with zero stall *spans* — any span-based consumer
   (the soak harness) silently under-reported.
2. ``_wait_for_l0_drain`` could release a blocked writer with L0 still
   at/above the stop trigger and no trace of the escape anywhere.
3. ``slowdown_ns`` was excluded from every "total stall" view, so the
   1 ms L0 slowdowns — often the bulk of writer-visible delay — were
   invisible unless you knew to add two fields yourself.
"""

import random

import pytest

from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.db import DB, DBStats
from repro.lsm.options import KIB, Options
from repro.lsm.pressure import (
    L0_SLOWDOWN,
    L0_STOP,
    MILLISECOND,
    SLOWDOWN_MAX_NS,
    SLOWDOWN_MIN_NS,
)
from repro.obs.metrics import MetricRegistry

#: enough ingest to turn the stability machinery on at these sizes
INGEST = 75_000


def small_options(**overrides):
    options = Options(
        write_buffer_size=8 * KIB,
        max_file_size=8 * KIB,
        block_size=1 * KIB,
        max_bytes_for_level_base=16 * KIB,
    )
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


def observed_db(**overrides):
    stack = StorageStack(StackConfig(obs=MetricRegistry()))
    return DB(stack, options=small_options(**overrides)), stack


def fill(db, n=300, seed=7, value_size=512):
    rng = random.Random(seed)
    t = 0
    for _ in range(n):
        key = b"k%012d" % rng.randrange(n)
        t = db.put(key, bytes(value_size), at=t)
    return t


def stall_spans_by_cause(obs):
    """The ``lsm.write_stall`` durations by cause, filled as spans end."""
    sums = {}

    def on_span(span):
        if span.name == "lsm.write_stall":
            cause = span.attrs.get("cause")
            sums[cause] = sums.get(cause, 0) + span.duration_ns

    obs.add_span_listener(on_span)
    return sums


# ---------------------------------------------------------------------------
# bug 1: stall spans must exist on every observed run (no tracer needed)
# ---------------------------------------------------------------------------


def test_observed_run_emits_stall_spans_without_tracer():
    db, stack = observed_db()
    by_cause = stall_spans_by_cause(stack.obs)
    fill(db)
    stats = db.stats
    assert stats.blocked_ns > 0, "workload too light to stall; fix the test"
    assert by_cause, "no lsm.write_stall spans on an observed run"
    # the spans exactly tile the counters, cause by cause
    assert by_cause.get("memtable_full", 0) == stats.stall_memtable_ns
    assert by_cause.get("l0_stop", 0) == stats.stall_l0_stop_ns
    assert by_cause.get("l0_slowdown", 0) == stats.slowdown_ns
    assert sum(by_cause.values()) == stats.blocked_ns


def test_unobserved_run_stays_quiet_but_counts():
    db = DB(StorageStack(), options=small_options())
    fill(db)
    assert db.stats.blocked_ns > 0
    # the NULL registry collects nothing — and nothing crashed


def test_charge_skips_empty_intervals():
    db, stack = observed_db()
    by_cause = stall_spans_by_cause(stack.obs)
    before = db.stats.snapshot()
    db.pressure.charge(L0_SLOWDOWN, 100, 100)
    db.pressure.charge(L0_STOP, 100, 50)
    assert by_cause == {}
    assert db.stats.snapshot() == before
    assert stack.obs.counter("db.stall.l0_stop_ns").value == 0


# ---------------------------------------------------------------------------
# bug 2: abandoning the L0-stop wait must be visible
# ---------------------------------------------------------------------------


def test_l0_stop_abandonment_is_counted(monkeypatch):
    db, stack = observed_db()
    monkeypatch.setattr(
        db.pressure, "l0_live", lambda: db.options.l0_stop_writes_trigger
    )
    monkeypatch.setattr(db, "_run_one_background_job", lambda: None)
    resumed = db._wait_for_l0_drain(1000)
    assert resumed == 1000  # the writer proceeds, L0 still full
    assert db.stats.l0_stop_abandoned == 1
    assert stack.obs.counter("db.stall.l0_stop_abandoned").value == 1
    assert db.stats.snapshot()["l0_stop_abandoned"] == 1


def test_l0_stop_abandonment_unobserved_still_counts(monkeypatch):
    db = DB(StorageStack(), options=small_options())
    monkeypatch.setattr(
        db.pressure, "l0_live", lambda: db.options.l0_stop_writes_trigger
    )
    monkeypatch.setattr(db, "_run_one_background_job", lambda: None)
    db._wait_for_l0_drain(0)
    assert db.stats.l0_stop_abandoned == 1


def test_l0_drain_cap_unreachable_for_in_tree_store():
    # an aggressive L0 regime: stop trigger is hit repeatedly, yet the
    # background picker always produces a job that drains it, so the
    # 100k escape hatch never fires
    db, _ = observed_db(
        l0_compaction_trigger=2,
        l0_slowdown_writes_trigger=3,
        l0_stop_writes_trigger=4,
    )
    fill(db, n=400)
    assert db.stats.stall_l0_stop_ns > 0, "L0 stop never hit; fix the test"
    assert db.stats.l0_stop_abandoned == 0


# ---------------------------------------------------------------------------
# bug 3: the unified blocked_ns total
# ---------------------------------------------------------------------------


def test_blocked_ns_is_stall_plus_slowdown():
    stats = DBStats()
    stats.stall_ns = 700
    stats.slowdown_ns = 42
    assert stats.blocked_ns == 742
    snap = stats.snapshot()
    assert snap["blocked_ns"] == 742
    assert snap["stall_ns"] == 700
    assert snap["slowdown_ns"] == 42


def test_hard_stall_split_tiles_exactly_after_a_run():
    db, _ = observed_db()
    fill(db)
    stats = db.stats
    assert stats.stall_ns == stats.stall_memtable_ns + stats.stall_l0_stop_ns
    assert stats.blocked_ns == stats.stall_ns + stats.slowdown_ns


# ---------------------------------------------------------------------------
# dynamic slowdown: off by default, monotone debt-scaled ramp when on
# ---------------------------------------------------------------------------


def slowdown_delays(db, monkeypatch, counts):
    delays = []
    for count in counts:
        monkeypatch.setattr(db.pressure, "l0_live", lambda c=count: c)
        delays.append(db.pressure.slowdown_ns())
    return delays


def test_dynamic_slowdown_defaults_off(monkeypatch):
    assert Options().stability_ingest_bytes_per_sec == 0
    db = DB(StorageStack(), options=small_options())
    assert db.pressure.limiter is None
    opts = db.options
    band = range(opts.l0_slowdown_writes_trigger, opts.l0_stop_writes_trigger)
    # stock LevelDB: a flat 1 ms anywhere in the slowdown band
    assert set(slowdown_delays(db, monkeypatch, band)) == {MILLISECOND}


def test_dynamic_slowdown_ramp_is_monotone_and_bounded(monkeypatch):
    db = DB(
        StorageStack(),
        options=small_options(stability_ingest_bytes_per_sec=INGEST),
    )
    opts = db.options
    slowdown = opts.l0_slowdown_writes_trigger
    stop = opts.l0_stop_writes_trigger
    delays = slowdown_delays(db, monkeypatch, range(slowdown, stop))
    assert delays == sorted(delays)
    assert delays[0] >= SLOWDOWN_MIN_NS
    assert delays[-1] <= SLOWDOWN_MAX_NS
    # deepest debt reaches the full ceiling
    assert delays[-1] == SLOWDOWN_MAX_NS
    # outside the band no delay: below it, or at the hard stop
    assert slowdown_delays(db, monkeypatch, (slowdown - 1, stop)) == [0, 0]


def test_dynamic_slowdown_charges_slowdown_not_stall():
    db, stack = observed_db(stability_ingest_bytes_per_sec=INGEST)
    by_cause = stall_spans_by_cause(stack.obs)
    fill(db)
    stats = db.stats
    if stats.slowdown_ns:
        assert by_cause.get("l0_slowdown", 0) == stats.slowdown_ns
    assert stats.stall_ns == stats.stall_memtable_ns + stats.stall_l0_stop_ns
