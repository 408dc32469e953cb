"""Unit tests for the Ext4 model: namespace, data path, fsync, durability."""

import pytest

from repro.fs.ext4 import FileExists, FileNotFound
from repro.fs.stack import StackConfig, StorageStack
from repro.sim.clock import seconds


@pytest.fixture()
def stack():
    return StorageStack()


def make_file(stack, path="f", data=b""):
    f, t = stack.fs.create(path, at=stack.now)
    if data:
        t = f.append(data, at=t)
    return f, t


def test_create_and_exists(stack):
    make_file(stack, "db/000001.log")
    assert stack.fs.exists("db/000001.log")
    assert not stack.fs.exists("db/missing")


def test_create_duplicate_raises(stack):
    make_file(stack, "dup")
    with pytest.raises(FileExists):
        stack.fs.create("dup", at=stack.now)


def test_open_missing_raises(stack):
    with pytest.raises(FileNotFound):
        stack.fs.open("missing", at=0)


def test_append_and_read_roundtrip(stack):
    f, t = make_file(stack, "f", b"hello world")
    data, _ = f.read(0, 11, at=t)
    assert data == b"hello world"


def test_read_partial_and_past_eof(stack):
    f, t = make_file(stack, "f", b"abcdef")
    assert f.read(2, 3, at=t)[0] == b"cde"
    assert f.read(4, 100, at=t)[0] == b"ef"
    assert f.read(100, 5, at=t)[0] == b""


def test_append_zeros_reads_back_zeros(stack):
    f, t = make_file(stack, "f")
    t = f.append_zeros(1024, at=t)
    t = f.append(b"tail", at=t)
    data, _ = f.read(1020, 8, at=t)
    assert data == b"\x00\x00\x00\x00tail"
    assert f.size == 1028


def test_append_costs_memcpy_time(stack):
    f, t0 = make_file(stack, "f")
    t1 = f.append(b"x" * 1024 * 1024, at=t0)
    assert t1 > t0


def test_unlink_removes_path(stack):
    f, t = make_file(stack, "f", b"data")
    stack.fs.unlink("f", at=t)
    assert not stack.fs.exists("f")


def test_unlink_missing_raises(stack):
    with pytest.raises(FileNotFound):
        stack.fs.unlink("missing", at=0)


def test_rename_moves_path(stack):
    f, t = make_file(stack, "tmp", b"manifest")
    stack.fs.rename("tmp", "CURRENT", at=t)
    assert not stack.fs.exists("tmp")
    assert stack.fs.exists("CURRENT")
    g, t2 = stack.fs.open("CURRENT", at=stack.now)
    assert g.read(0, 8, at=t2)[0] == b"manifest"


def test_list_dir_prefix(stack):
    make_file(stack, "db/a")
    make_file(stack, "db/b")
    make_file(stack, "other/c")
    assert stack.fs.list_dir("db/") == ["db/a", "db/b"]


def test_fsync_blocks_and_makes_durable(stack):
    f, t = make_file(stack, "f", b"x" * 4096)
    done = f.fsync(at=t, reason="test")
    assert done > t
    inode = stack.fs._get_inode("f")
    assert inode.durable_len == 4096
    assert inode.committed_size == 4096
    assert stack.sync_stats.sync_calls == 1
    assert stack.sync_stats.bytes_synced == 4096
    assert stack.sync_stats.by_reason["test"] == 1


def test_fsync_forces_flush(stack):
    f, t = make_file(stack, "f", b"x" * 4096)
    f.fsync(at=t)
    assert stack.ssd.stats.flushes >= 1


def test_second_fsync_with_no_new_data_is_cheap(stack):
    f, t = make_file(stack, "f", b"x" * 4096)
    t = f.fsync(at=t)
    flushes = stack.ssd.stats.flushes
    t2 = f.fsync(at=t)
    assert stack.ssd.stats.flushes == flushes  # nothing to commit
    assert stack.sync_stats.bytes_synced == 4096  # second sync added 0


def test_periodic_commit_makes_data_durable_without_fsync(stack):
    f, t = make_file(stack, "f", b"y" * 8192)
    # Advance past the 5 s commit interval plus commit duration.
    stack.events.run_until(t + seconds(6))
    inode = stack.fs._get_inode("f")
    assert inode.committed_size == 8192
    assert stack.sync_stats.sync_calls == 0  # no application syncs


def test_dirty_threshold_triggers_early_commit():
    config = StackConfig(pagecache_bytes=1024 * 1024, dirty_ratio=0.10)
    stack = StorageStack(config)
    f, t = stack.fs.create("f", at=0)
    t = f.append(b"z" * 512 * 1024, at=t)  # far above 10% of 1 MiB
    stack.events.run_until(t + seconds(0.2))
    assert stack.journal.commits >= 1


def test_fsync_does_not_entangle_other_files(stack):
    """Delayed allocation: fsync of f1 does not write back or commit
    f2's data — f2's pages are not in any transaction yet."""
    f1, t = make_file(stack, "f1", b"a" * 4096)
    f2, t2 = make_file(stack, "f2", b"b" * 4096)
    f1.fsync(at=max(t, t2))
    inode2 = stack.fs._get_inode("f2")
    assert inode2.committed_size == 0
    assert inode2.dirty_bytes == 4096


def test_flusher_then_commit_makes_file_durable(stack):
    """The flusher writes data back; the next commit journals the inode."""
    f, t = make_file(stack, "f", b"c" * 8192)
    stack.events.run_until(t + seconds(2))  # flusher (1 s default)
    inode = stack.fs._get_inode("f")
    assert inode.durable_len == 8192  # data on device
    assert inode.committed_size == 0  # metadata not yet journaled
    stack.events.run_until(t + seconds(11))  # past a commit interval
    assert inode.committed_size == 8192


def test_fsync_commits_already_written_back_files(stack):
    """A forced commit covers inodes the flusher already joined."""
    f1, t = make_file(stack, "f1", b"a" * 4096)
    stack.events.run_until(t + seconds(2))  # flusher joins f1 to the txn
    f2, t2 = make_file(stack, "f2", b"b" * 4096)
    f2.fsync(at=max(stack.now, t2))
    inode1 = stack.fs._get_inode("f1")
    assert inode1.committed_size == 4096


def test_direct_write_bypasses_cache(stack):
    f, t = make_file(stack, "f")
    done = f.write_direct(2 * 1024 * 1024, at=t)
    assert done > t
    assert stack.ssd.stats.bytes_written >= 2 * 1024 * 1024
    inode = stack.fs._get_inode("f")
    assert inode.durable_len == 2 * 1024 * 1024
    assert stack.pagecache.dirty_bytes == 0


def test_read_miss_costs_device_time(stack):
    f, t = make_file(stack, "f", b"r" * 256 * 1024)
    t = f.fsync(at=t)
    stack.pagecache.drop_all()  # emulate cold cache
    before_reads = stack.ssd.stats.read_ios
    _, done = f.read(0, 4096, at=t)
    assert stack.ssd.stats.read_ios > before_reads
    assert done > t


def test_read_hit_costs_no_device_time(stack):
    f, t = make_file(stack, "f", b"r" * 4096)
    before = stack.ssd.stats.read_ios
    f.read(0, 4096, at=t)
    assert stack.ssd.stats.read_ios == before


def test_settle_reaches_quiescence(stack):
    f, t = make_file(stack, "f", b"w" * 64 * 1024)
    stack.settle()
    assert stack.pagecache.dirty_bytes == 0
    inode = stack.fs._get_inode("f")
    assert inode.committed_size == inode.size


# ----------------------------------------------------------------------
# deferred extents: bytes made when somebody reads them
# ----------------------------------------------------------------------

class CountingPayload:
    """A deferred extent's ``make``: returns ``data``, counts the calls."""

    def __init__(self, data):
        self.data = data
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.data


def test_deferred_append_is_charged_like_append():
    payload = bytes(range(256)) * 300
    eager, deferred = StorageStack(), StorageStack()
    f, t = eager.fs.create("f", at=0)
    g, u = deferred.fs.create("f", at=0)
    assert f.append(payload, at=t) == g.append_deferred(
        len(payload), CountingPayload(payload), at=u
    )
    assert eager.pagecache.snapshot() == deferred.pagecache.snapshot()
    assert f.fsync(at=t) == g.fsync(at=u)
    assert eager.ssd.stats.snapshot() == deferred.ssd.stats.snapshot()


def test_sizes_and_durability_never_make_the_bytes(stack):
    make = CountingPayload(b"x" * 5000)
    f, t = stack.fs.create("f", at=0)
    t = f.append_deferred(5000, make, at=t)
    assert f.size == stack.fs.stat_size("f") == 5000
    t = f.fsync(at=t)
    assert stack.fs.durable_stat("f") == 5000
    stack.fs.charge_read(f, 100, 200, at=t)
    stack.events.run_until(t + seconds(6))
    stack.crash()  # survives whole: nothing to cut
    assert stack.fs.stat_size("f") == 5000
    assert make.calls == 0


def test_read_spanning_extents_makes_each_deferred_once(stack):
    first, second = CountingPayload(b"B" * 10), CountingPayload(b"D" * 10)
    f, t = stack.fs.create("f", at=0)
    t = f.append(b"A" * 10, at=t)
    t = f.append_deferred(10, first, at=t)
    t = f.append_zeros(10, at=t)
    t = f.append_deferred(10, second, at=t)
    data, t = f.read(5, 20, at=t)  # tail of A, all of B, head of zeros
    assert data == b"A" * 5 + b"B" * 10 + b"\x00" * 5
    assert (first.calls, second.calls) == (1, 0)
    data, t = f.read(0, 100, at=t)
    assert data == b"A" * 10 + b"B" * 10 + b"\x00" * 10 + b"D" * 10
    f.read(12, 25, at=t)
    assert (first.calls, second.calls) == (1, 1)


def test_deferred_extent_of_the_wrong_length_is_refused(stack):
    f, t = stack.fs.create("f", at=0)
    t = f.append_deferred(8, lambda: b"short", at=t)
    with pytest.raises(ValueError):
        f.read(0, 8, at=t)


def test_crash_inside_a_deferred_extent_keeps_its_prefix(stack):
    """Power fails with the file's committed size in the middle of a
    deferred extent: the survivor is the prefix of the bytes that were
    'written', made at the crash, once."""
    payload = bytes(range(200))
    make = CountingPayload(payload)
    f, t = stack.fs.create("table", at=0)
    t = f.append(b"head", at=t)
    t = f.append_deferred(len(payload), make, at=t)
    _, t = stack.fs.writeback_inode(f.ino, t, max_bytes=4 + 50)
    other, t = stack.fs.create("other", at=t)
    t = other.append(b"x", at=t)
    t = other.fsync(at=t)  # commits the running txn: "table" at 54 bytes
    assert stack.fs.durable_stat("table") == 54
    assert make.calls == 0
    stack.crash()
    assert make.calls == 1
    g, t = stack.fs.open("table", at=stack.now)
    assert g.size == 54
    assert g.read(0, 300, at=t)[0] == b"head" + payload[:50]
    assert make.calls == 1


def test_crash_before_a_deferred_extent_drops_it_unmade(stack):
    make = CountingPayload(b"y" * 100)
    f, t = stack.fs.create("f", at=0)
    t = f.append(b"early", at=t)
    t = f.fsync(at=t)
    f.append_deferred(100, make, at=max(t, stack.now))
    stack.crash()
    assert stack.fs.stat_size("f") == 5
    assert make.calls == 0
