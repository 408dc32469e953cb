"""Multi-threaded driver behaviour (the Figure 5b mechanism)."""

import pytest

from repro.bench.harness import ScaledConfig, ThreadedDriver


def put_op(key, value):
    def op(db, at):
        return db.put(key, value, at)

    return op


def get_op(key):
    def op(db, at):
        _, t = db.get(key, at)
        return t

    return op


STORES = ("leveldb", "noblsm")


@pytest.mark.parametrize("threads", [4, 8])
@pytest.mark.parametrize("store", STORES)
def test_writes_serialize_on_writer_mutex(store, threads):
    """K write threads gain nothing: the write path is serial."""
    config = ScaledConfig(scale=5000, value_size=512)
    ops = [
        put_op(f"key{i:06d}".encode(), b"v" * 512) for i in range(2000)
    ]

    _, db1 = config.build_store(store)
    single_end = ThreadedDriver(db1, threads=1).run(list(ops))

    _, db_n = config.build_store(store)
    multi_end = ThreadedDriver(db_n, threads=threads).run(list(ops))

    # within 10%: the writer mutex serializes both runs
    assert multi_end == pytest.approx(single_end, rel=0.10)


@pytest.mark.parametrize("store", STORES)
def test_reads_scale_with_threads(store):
    """Cache-resident reads have no shared lock: 4 threads ~ 4x faster."""
    config = ScaledConfig(scale=5000, value_size=512)
    stack, db = config.build_store(store)
    t = 0
    for i in range(2000):
        t = db.put(f"key{i:06d}".encode(), b"v" * 512, at=t)
    t = db.wait_for_background(t)

    reads = [get_op(f"key{(i * 13) % 2000:06d}".encode()) for i in range(2000)]
    start = t
    single_driver = ThreadedDriver(db, threads=1, start=start)
    single_end = single_driver.run(list(reads)) - start

    multi_driver = ThreadedDriver(db, threads=4, start=start)
    multi_end = multi_driver.run(list(reads)) - start

    assert multi_end < single_end / 2.5  # near-linear scaling


def test_thread_clocks_stay_balanced():
    config = ScaledConfig(scale=5000, value_size=512)
    _, db = config.build_store("noblsm")
    ops = [put_op(f"k{i}".encode(), b"v" * 100) for i in range(400)]
    driver = ThreadedDriver(db, threads=4)
    driver.run(ops)
    clocks = sorted(driver.clocks)
    assert clocks[0] > 0
    # no thread starves: max lag bounded by a few ops' worth of time
    assert clocks[-1] < 3 * clocks[0] + 10_000_000


@pytest.mark.parametrize("threads", [1, 4, 8])
def test_mixed_threads_against_noblsm_and_leveldb(threads):
    """The fig5b write-heavy shape: NobLSM < LevelDB at any thread count."""
    config = ScaledConfig(scale=5000, value_size=1024)
    ends = {}
    for store in STORES:
        _, db = config.build_store(store)
        ops = [
            put_op(f"key{(i * 31) % 1500:06d}".encode(), b"v" * 1024)
            for i in range(3000)
        ]
        ends[store] = ThreadedDriver(db, threads=threads).run(ops)
    assert ends["noblsm"] < ends["leveldb"]
