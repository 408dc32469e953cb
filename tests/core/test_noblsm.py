"""NobLSM behaviour: sync-once, shadow retention, reclamation."""

import pytest

from repro.core.noblsm import NobLSM
from repro.fs.stack import StackConfig, StorageStack
from repro.fs.jbd2 import JournalConfig
from repro.lsm.db import DB
from repro.lsm.options import KIB, Options
from repro.sim.clock import millis, seconds


def small_options(**overrides):
    options = Options(
        write_buffer_size=8 * KIB,
        max_file_size=8 * KIB,
        block_size=1 * KIB,
        max_bytes_for_level_base=16 * KIB,
    )
    options.reclaim_interval_ns = millis(50)
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


def fast_stack():
    """A stack whose journal commits every 50 virtual ms (scaled run)."""
    return StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(50)))
    )


def filled_keys(n, prefix="key", seed=7):
    """The deterministic random key sequence `fill` writes."""
    import random

    rng = random.Random(seed)
    return [f"{prefix}{rng.randrange(n * 4):06d}".encode() for _ in range(n)]


def fill(db, n, t=0, prefix="key", value_size=100, seed=7):
    """Random-key fill (fillrandom-like), deterministic per seed."""
    for key in filled_keys(n, prefix, seed):
        t = db.put(key, b"v" * value_size, at=t)
    return t


@pytest.fixture()
def stack():
    return fast_stack()


@pytest.fixture()
def db(stack):
    return NobLSM(stack, options=small_options())


def test_noblsm_reads_after_compactions(db):
    t = fill(db, 800)
    for key in filled_keys(800)[::71]:
        value, t = db.get(key, at=t)
        assert value == b"v" * 100


def test_noblsm_only_syncs_tables_at_minor(stack, db):
    """KV data is synced exactly once (L0 tables); the only other syncs
    are LevelDB's tiny MANIFEST/CURRENT syncs, never 'major'."""
    fill(db, 800)
    reasons = set(stack.sync_stats.by_reason)
    assert reasons <= {"minor", "manifest", "current"}
    assert stack.sync_stats.by_reason.get("minor", 0) > 0
    assert stack.sync_stats.by_reason.get("major", 0) == 0
    # table data synced == flushed L0 bytes, nothing re-synced
    assert stack.sync_stats.bytes_by_reason.get("minor", 0) > 0


def test_noblsm_syncs_less_than_leveldb():
    nob_stack = fast_stack()
    nob = NobLSM(nob_stack, options=small_options())
    t = fill(nob, 800)
    nob.close(t)

    ldb_stack = fast_stack()
    ldb = DB(ldb_stack, options=small_options())
    t = fill(ldb, 800)
    ldb.close(t)

    assert nob_stack.sync_stats.sync_calls < ldb_stack.sync_stats.sync_calls
    assert nob_stack.sync_stats.bytes_synced < ldb_stack.sync_stats.bytes_synced


def test_noblsm_faster_than_leveldb_on_fill():
    nob = NobLSM(fast_stack(), options=small_options())
    t_nob = fill(nob, 1500)

    ldb = DB(fast_stack(), options=small_options())
    t_ldb = fill(ldb, 1500)

    assert t_nob < t_ldb


def test_major_outputs_tracked_not_synced(stack, db):
    fill(db, 1200)
    assert db.stats.major_compactions >= 1
    assert db.tracker.groups_registered >= 1
    assert stack.syscalls.check_commit_calls >= 1
    assert stack.sync_stats.by_reason.get("major", 0) == 0


def test_shadows_retained_until_commit(stack):
    # Journal that never commits on its own: shadows must accumulate.
    slow = StorageStack(
        StackConfig(journal=JournalConfig(periodic=False, commit_interval_ns=seconds(10_000)))
    )
    options = small_options()
    options.reclaim_interval_ns = seconds(10_000)
    db = NobLSM(slow, options=options)
    fill(db, 1200)
    if db.tracker.groups_registered:
        assert db.shadow_count > 0
        assert db.shadows_deleted == 0


def test_reclaim_deletes_shadows_after_commit(db, stack):
    t = fill(db, 1200)
    assert db.tracker.groups_registered >= 1
    t = db.close(t)
    assert db.shadow_count == 0
    assert db.shadows_deleted > 0
    assert db.tracker.reclaimable() == []


def test_reclaim_reentered_from_the_event_queue_is_a_no_op(stack):
    """``reclaim -> fs.unlink -> run_until -> (timer) -> reclaim``: the
    inner call used to unlink the group the outer call was half-way
    through, and the outer one then died with ``FileNotFound``."""
    db = NobLSM(
        stack, options=small_options(reclaim_interval_ns=seconds(3600))
    )
    t = fill(db, 1200)
    t = max(db.wait_for_background(t), stack.settle())
    # Resolve every group up front: the pass below then polls nothing,
    # so its first call into the file system is an unlink — the one
    # whose tick fires the event scheduled inside the window.
    db.tracker.resolve(lambda ino: stack.syscalls.is_committed(ino, t)[0])
    shadows = db.shadow_count
    assert shadows and db.tracker.reclaimable()
    inner = []
    stack.events.schedule(
        t + 1, lambda when: inner.append((when, db.reclaim(when)))
    )
    db.reclaim(t + 2)
    assert inner == [(t + 1, t + 1)]  # it ran, and returned at once
    assert db.shadow_count == 0
    assert db.shadows_deleted == shadows
    assert db.tracker.reclaimable() == []


def test_reclaim_runs_periodically(db):
    t = fill(db, 1200)
    db.stack.events.run_until(t + seconds(1))
    assert db.reclaim_runs >= 2


def test_shadow_files_not_searched(db):
    """Reads never touch shadow tables (they are out of the version)."""
    t = fill(db, 1200)
    shadows = db.tracker.shadow_numbers()
    live = set(db.versions.current.all_file_numbers())
    assert not (shadows & live)


def test_noblsm_data_written_back_eventually(stack, db):
    """Async commits must still move the bytes to the device."""
    t = fill(db, 800)
    db.close(t)
    user_bytes = 800 * 100
    assert stack.ssd.stats.bytes_written > user_bytes


def test_kernel_tables_bounded(db, stack):
    t = fill(db, 1500)
    db.close(t)
    # every tracked inode was either unlinked (erased) or stays committed;
    # Pending drains completely at quiescence
    assert not stack.syscalls.pending
