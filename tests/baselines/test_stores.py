"""Correctness of every baseline store: same data in, same data out."""

import random

import pytest

from repro.baselines.registry import PAPER_STORES, make_store
from repro.fs.jbd2 import JournalConfig
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.options import KIB, Options
from repro.obs.metrics import MetricRegistry
from repro.sim.clock import millis

ALL_STORES = PAPER_STORES + ["volatile"]


def small_options():
    options = Options(
        write_buffer_size=8 * KIB,
        max_file_size=8 * KIB,
        block_size=1 * KIB,
        max_bytes_for_level_base=16 * KIB,
    )
    options.reclaim_interval_ns = millis(50)
    return options


def fast_stack():
    return StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(50)))
    )


def random_ops(n, seed, key_space=None):
    rng = random.Random(seed)
    key_space = key_space or n
    ops = []
    for _ in range(n):
        key = f"key{rng.randrange(key_space):06d}".encode()
        value = f"v{rng.randrange(1 << 20):07d}".encode() * 8
        ops.append((key, value))
    return ops


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_store_roundtrip_under_compactions(store_name):
    stack = fast_stack()
    db = make_store(store_name, stack, options=small_options())
    expected = {}
    t = 0
    for key, value in random_ops(1200, seed=3):
        t = db.put(key, value, at=t)
        expected[key] = value
    for key in sorted(expected):
        value, t = db.get(key, at=t)
        assert value == expected[key], f"{store_name}: wrong value for {key!r}"


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_store_deletes(store_name):
    stack = fast_stack()
    db = make_store(store_name, stack, options=small_options())
    t = 0
    ops = random_ops(600, seed=4)
    expected = {}
    for key, value in ops:
        t = db.put(key, value, at=t)
        expected[key] = value
    doomed = sorted(expected)[::3]
    for key in doomed:
        t = db.delete(key, at=t)
        del expected[key]
    for key, value in random_ops(300, seed=5, key_space=2000):
        key = b"other" + key
        t = db.put(key, value, at=t)
        expected[key] = value
    for key in doomed:
        value, t = db.get(key, at=t)
        assert value is None, f"{store_name}: deleted {key!r} came back"
    for key in sorted(expected)[::7]:
        value, t = db.get(key, at=t)
        assert value == expected[key]


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_store_iteration_matches_dict(store_name):
    stack = fast_stack()
    db = make_store(store_name, stack, options=small_options())
    expected = {}
    t = 0
    for key, value in random_ops(800, seed=6, key_space=400):
        t = db.put(key, value, at=t)
        expected[key] = value
    iterator = db.iterate(at=t)
    seen = {}
    last_key = None
    while iterator.valid:
        assert last_key is None or iterator.key > last_key, (
            f"{store_name}: iteration out of order"
        )
        last_key = iterator.key
        seen[iterator.key] = iterator.value
        iterator.next()
    assert seen == expected, f"{store_name}: iteration missed or invented keys"


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_store_time_advances_monotonically(store_name):
    stack = fast_stack()
    db = make_store(store_name, stack, options=small_options())
    t = 0
    for key, value in random_ops(300, seed=7):
        t2 = db.put(key, value, at=t)
        assert t2 >= t
        t = t2


def test_volatile_never_syncs():
    stack = fast_stack()
    db = make_store("volatile", stack, options=small_options())
    t = 0
    for key, value in random_ops(1000, seed=8):
        t = db.put(key, value, at=t)
    assert stack.sync_stats.sync_calls == 0


def test_bolt_fewer_syncs_than_leveldb_same_data():
    results = {}
    for name in ("leveldb", "bolt"):
        stack = fast_stack()
        db = make_store(name, stack, options=small_options())
        t = 0
        for key, value in random_ops(1500, seed=9):
            t = db.put(key, value, at=t)
        db.close(t)
        results[name] = stack.sync_stats.sync_calls
    assert results["bolt"] < results["leveldb"]


def test_pebblesdb_lower_write_amplification():
    written = {}
    for name in ("leveldb", "pebblesdb"):
        stack = fast_stack()
        db = make_store(name, stack, options=small_options())
        t = 0
        for key, value in random_ops(2000, seed=10, key_space=1000):
            t = db.put(key, value, at=t)
        db.close(t)
        written[name] = db.stats.bytes_compacted_out + db.stats.bytes_flushed
    assert written["pebblesdb"] < written["leveldb"]


def test_pebblesdb_guard_appends_happen():
    stack = fast_stack()
    db = make_store("pebblesdb", stack, options=small_options())
    t = 0
    for key, value in random_ops(2000, seed=11, key_space=1000):
        t = db.put(key, value, at=t)
    assert db.guard_appends > 0


def test_l2sm_separates_hot_keys():
    stack = fast_stack()
    db = make_store("l2sm", stack, options=small_options())
    rng = random.Random(12)
    t = 0
    # heavy skew: 10 hot keys take half the updates
    for _ in range(2000):
        if rng.random() < 0.5:
            key = f"hot{rng.randrange(10):02d}".encode()
        else:
            key = f"cold{rng.randrange(5000):06d}".encode()
        t = db.put(key, f"v{rng.randrange(1000)}".encode() * 10, at=t)
    assert db.hot_dumps > 0
    # hot keys should be readable from the hot store
    value, t = db.get(b"hot00", at=t)
    assert value is not None


def test_l2sm_hot_store_survives_crash():
    stack = fast_stack()
    db = make_store("l2sm", stack, options=small_options())
    rng = random.Random(13)
    t = 0
    expected = {}
    for _ in range(2000):
        key = f"hot{rng.randrange(8):02d}".encode()
        value = f"v{rng.randrange(10**6)}".encode() * 10
        t = db.put(key, value, at=t)
        expected[key] = value
    memtable_keys = {k for k in expected if db.mem.get(k) is not None}
    stack.crash()
    db = make_store("l2sm", stack, options=small_options())
    t = stack.now
    for key in sorted(set(expected) - memtable_keys):
        value, t = db.get(key, at=t)
        assert value == expected[key]


def test_rocksdb_uses_multiple_threads():
    stack = fast_stack()
    db = make_store("rocksdb", stack, options=small_options())
    assert db.bg.num_threads == 4


def test_hyperleveldb_uses_smaller_tables():
    stack = fast_stack()
    db = make_store("hyperleveldb", stack, options=small_options())
    assert db.options.max_file_size < small_options().max_file_size


def test_make_store_rejects_unknown():
    with pytest.raises(ValueError):
        make_store("cassandra", fast_stack())


def observed_stack():
    return StorageStack(
        StackConfig(
            journal=JournalConfig(commit_interval_ns=millis(50)),
            obs=MetricRegistry(),
        )
    )


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_snapshot_read_sees_pinned_value(store_name):
    stack = fast_stack()
    db = make_store(store_name, stack, options=small_options())
    t = 0
    for key, value in random_ops(400, seed=14):
        t = db.put(key, value, at=t)
    t = db.put(b"pinned", b"before", at=t)
    snapshot = db.get_snapshot()
    t = db.put(b"pinned", b"after", at=t)
    value, t = db.get(b"pinned", t, snapshot=snapshot)
    assert value == b"before"
    value, t = db.get(b"pinned", t)
    assert value == b"after"


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_get_after_close_raises(store_name):
    stack = fast_stack()
    db = make_store(store_name, stack, options=small_options())
    t = 0
    for key, value in random_ops(200, seed=15):
        t = db.put(key, value, at=t)
    t = db.close(t)
    with pytest.raises(RuntimeError, match="closed"):
        db.get(key, t)


@pytest.mark.parametrize("store_name", ALL_STORES)
def test_every_get_is_observed(store_name):
    stack = observed_stack()
    db = make_store(store_name, stack, options=small_options())
    t = 0
    ops = random_ops(1200, seed=16, key_space=300)
    for key, value in ops:
        t = db.put(key, value, at=t)
    for key, _ in ops[::4]:
        _, t = db.get(key, t)
    histogram = stack.obs.find_histogram("db.get_ns")
    assert db.stats.gets == len(ops[::4])
    assert histogram is not None and histogram.count == db.stats.gets


def test_pebblesdb_majors_are_observed():
    stack = observed_stack()
    db = make_store("pebblesdb", stack, options=small_options())
    t = 0
    for key, value in random_ops(2000, seed=17, key_space=1000):
        t = db.put(key, value, at=t)
    db.close(t)
    assert db.stats.major_compactions > 0
    histogram = stack.obs.find_histogram("span.db.compaction.major_ns")
    assert histogram is not None
    assert histogram.count == db.stats.major_compactions
