"""Inode lifetime: an unlinked inode lives until its unlink commits.

``Ext4`` keeps an unlinked (or renamed-over) inode while a crash could
still bring its path back, and frees it when the journal commits the
namespace change. These tests pin both halves: nothing is freed early
(crash recovery still finds the bytes) and nothing outlives its last
reachable path (host memory follows live state).
"""

import pytest

from repro.fs.crash import crash_and_recover
from repro.fs.stack import StackConfig, StorageStack


@pytest.fixture()
def stack():
    return StorageStack()


def reachable(fs):
    """Inode numbers a path names now or after a crash right now."""
    return set(fs._namespace.values()) | set(fs.durable_namespace().values())


def durable_file(stack, path, data):
    handle, t = stack.fs.create(path, at=stack.now)
    t = handle.append(data, at=t)
    return handle, handle.fsync(at=t)


def test_unlinked_inode_is_kept_until_its_unlink_commits(stack):
    handle, t = durable_file(stack, "f", b"payload")
    stack.fs.unlink("f", at=t)
    assert handle.ino in stack.fs._inodes  # a crash would resurrect it
    stack.settle()
    assert handle.ino not in stack.fs._inodes


def test_crash_before_the_unlink_commits_restores_the_bytes(stack):
    table = bytes(range(256)) * 64
    made = []

    def make():
        made.append(1)
        return table

    handle, t = stack.fs.create("000007.ldb", at=0)
    t = handle.append_deferred(len(table), make, at=t)
    t = handle.append(b"footer", at=t)
    t = handle.fsync(at=t)
    stack.fs.unlink("000007.ldb", at=t)
    assert made == []  # nobody has read the table yet
    crash_and_recover(stack.fs)
    reopened, t = stack.fs.open("000007.ldb", at=stack.now)
    data, _ = reopened.read(0, reopened.size, at=t)
    assert data == table + b"footer"
    assert made == [1]


def test_inodes_are_exactly_the_reachable_ones_after_commit(stack):
    keep, t = durable_file(stack, "keep", b"k")
    gone, t = durable_file(stack, "gone", b"g")
    stack.fs.unlink("gone", at=t)
    never_durable, t = stack.fs.create("scratch", at=stack.now)
    t = never_durable.append(b"s", at=t)
    stack.fs.unlink("scratch", at=t)
    old, t = durable_file(stack, "CURRENT", b"1")
    new, t = durable_file(stack, "CURRENT.tmp", b"2")
    stack.fs.rename("CURRENT.tmp", "CURRENT", at=t)
    stack.settle()
    assert set(stack.fs._inodes) == reachable(stack.fs)
    assert set(stack.fs._inodes) == {keep.ino, new.ino}


def test_rename_over_frees_the_displaced_inode_when_it_commits():
    stack = StorageStack(StackConfig(num_channels=4))
    old, t = durable_file(stack, "CURRENT", b"MANIFEST-000001\n")
    assert old.ino in stack.ssd._streams  # written back on a channel
    new, t = durable_file(stack, "CURRENT.tmp", b"MANIFEST-000002\n")
    stack.fs.rename("CURRENT.tmp", "CURRENT", at=t)
    assert old.ino not in stack.ssd._streams  # affinity dropped at once
    assert old.ino in stack.fs._inodes  # the rename is not durable yet
    stack.settle()
    assert old.ino not in stack.fs._inodes
    assert stack.fs.durable_namespace() == {"CURRENT": new.ino}


def test_rename_over_crash_before_commit_restores_the_old_file(stack):
    old, t = durable_file(stack, "CURRENT", b"old")
    new, t = durable_file(stack, "CURRENT.tmp", b"new")
    stack.fs.rename("CURRENT.tmp", "CURRENT", at=t)
    crash_and_recover(stack.fs)
    handle, t = stack.fs.open("CURRENT", at=stack.now)
    assert handle.ino == old.ino
    assert handle.read(0, 3, at=t)[0] == b"old"


def test_open_handle_reads_after_the_unlink_committed(stack):
    handle, t = durable_file(stack, "wal", b"record one")
    reader, t = stack.fs.open("wal", at=t)
    stack.fs.unlink("wal", at=t)
    stack.settle()
    assert handle.ino not in stack.fs._inodes
    assert reader.read(0, 100, at=stack.now)[0] == b"record one"


def test_durable_stat_of_a_missing_inode_raises(stack):
    handle, t = durable_file(stack, "f", b"x")
    del stack.fs._inodes[handle.ino]  # break the invariant on purpose
    with pytest.raises(KeyError):
        stack.fs.durable_stat("f")


def test_commit_in_flight_at_a_crash_is_never_applied(stack):
    handle, t = stack.fs.create("short.log", at=0)
    stack.fs.unlink("short.log", at=t)
    txn = stack.journal.commit_async(stack.now)
    assert txn.commit_done_at > stack.now  # the crash lands mid-commit
    crash_and_recover(stack.fs)
    # moving past the lost commit's completion must not apply it
    other, t = stack.fs.create("other", at=txn.commit_done_at + 1)
    stack.fs.open("other", at=t)
    assert "short.log" not in stack.fs.durable_namespace()
    assert not stack.fs.exists("short.log")
    assert set(stack.fs._inodes) == reachable(stack.fs)
