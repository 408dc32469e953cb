"""Unit tests for the JBD2 journal engine."""

import pytest

from repro.fs.jbd2 import JournalConfig, NsOp, NsOpKind, TxnState
from repro.fs.stack import StackConfig, StorageStack
from repro.sim.clock import millis, seconds


@pytest.fixture()
def stack():
    return StorageStack()


def dirty_file(stack, path, nbytes=4096):
    handle, t = stack.fs.create(path, at=stack.now)
    t = handle.append(b"x" * nbytes, at=t)
    return handle, t


def test_join_creates_running_txn(stack):
    journal = stack.journal
    assert journal.running is None
    journal.join(42, durable_size=100)
    assert journal.running is not None
    assert 42 in journal.running.inodes
    assert journal.running.commit_sizes[42] == 100


def test_join_keeps_largest_snapshot(stack):
    journal = stack.journal
    journal.join(42, durable_size=100)
    journal.join(42, durable_size=50)
    assert journal.running.commit_sizes[42] == 100
    journal.join(42, durable_size=200)
    assert journal.running.commit_sizes[42] == 200


def test_commit_sync_empty_txn_is_cheap(stack):
    done = stack.journal.commit_sync(at=1000)
    assert done == 1000
    assert stack.journal.commits == 0


def test_commit_sync_flushes_device(stack):
    handle, t = dirty_file(stack, "f")
    stack.fs.writeback_inode(handle.ino, t)
    flushes = stack.ssd.stats.flushes
    done = stack.journal.commit_sync(at=t)
    assert done > t
    assert stack.ssd.stats.flushes == flushes + 1
    assert stack.journal.commits == 1
    assert stack.journal.forced_commits == 1


def test_periodic_commit_fires_every_interval(stack):
    handle, t = dirty_file(stack, "f")
    stack.fs.writeback_inode(handle.ino, t)  # joins the running txn
    stack.events.run_until(t + seconds(6))
    assert stack.journal.commits >= 1
    assert handle._inode.committed_size == 4096


def test_periodic_commit_skipped_when_nothing_pending():
    stack = StorageStack()
    stack.events.run_until(seconds(20))
    assert stack.journal.commits == 0


def test_periodic_disabled_by_config():
    stack = StorageStack(StackConfig(journal=JournalConfig(periodic=False)))
    handle, t = dirty_file(stack, "f")
    stack.fs.writeback_inode(handle.ino, t)
    stack.events.run_until(t + seconds(60))
    assert stack.journal.commits == 0
    assert handle._inode.committed_size == 0


def test_wait_for_inode_running_txn_forces_commit(stack):
    handle, t = dirty_file(stack, "f")
    stack.fs.writeback_inode(handle.ino, t)
    done = stack.journal.wait_for_inode(handle.ino, t)
    assert done > t
    assert stack.journal.txn_of(handle.ino) is None  # committed


def test_wait_for_inode_clean_inode_is_free(stack):
    handle, t = dirty_file(stack, "f")
    t = handle.fsync(at=t)
    assert stack.journal.wait_for_inode(handle.ino, t) == t


def test_wait_for_committing_txn(stack):
    """An inode in an in-flight async commit waits for its completion."""
    stack2 = StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(10)))
    )
    handle, t = dirty_file(stack2, "f")
    stack2.fs.writeback_inode(handle.ino, t)
    txn = stack2.journal.commit_async(t)
    assert txn is not None
    assert txn.state is TxnState.COMMITTING
    done = stack2.journal.wait_for_inode(handle.ino, t)
    assert done == txn.commit_done_at


def test_commits_serialize_on_device(stack):
    h1, t1 = dirty_file(stack, "f1")
    stack.fs.writeback_inode(h1.ino, t1)
    txn1 = stack.journal.commit_async(t1)
    h2, t2 = dirty_file(stack, "f2")
    stack.fs.writeback_inode(h2.ino, t2)
    done2 = stack.journal.commit_sync(max(t1, t2))
    assert done2 > txn1.commit_done_at  # second waits for the first


def test_sync_commit_applies_older_async_commit_first(stack):
    h1, t1 = dirty_file(stack, "f1")
    stack.fs.writeback_inode(h1.ino, t1)
    stack.journal.commit_async(t1)
    h2, t2 = dirty_file(stack, "f2")
    stack.fs.writeback_inode(h2.ino, t2)
    stack.journal.commit_sync(max(t1, t2))
    # both are durably applied, in tid order
    assert h1._inode.committed_size == 4096
    assert h2._inode.committed_size == 4096


def test_ns_ops_apply_at_commit(stack):
    handle, t = stack.fs.create("path", at=0)
    assert "path" not in stack.fs._durable_namespace
    stack.journal.commit_sync(t)
    assert stack.fs._durable_namespace.get("path") == handle.ino


def test_journal_write_size_scales_with_inodes(stack):
    journal = stack.journal
    txn = journal._ensure_running()
    for ino in range(40):
        txn.inodes.add(ino)
    many = journal._journal_write_bytes(txn)
    txn.inodes.clear()
    txn.inodes.add(1)
    one = journal._journal_write_bytes(txn)
    assert many > one


def test_discard_volatile_resets(stack):
    handle, t = dirty_file(stack, "f")
    stack.fs.writeback_inode(handle.ino, t)
    assert stack.journal.running is not None
    stack.journal.discard_volatile()
    assert stack.journal.running is None
    assert stack.journal.txn_of(handle.ino) is None


def test_committed_transactions_leave_the_inode_map(stack):
    durable, t = dirty_file(stack, "durable")
    t = durable.fsync(at=t)  # forced commit
    lazy, t = dirty_file(stack, "lazy")
    stack.fs.writeback_inode(lazy.ino, t)  # joins; committed async
    stack.fs.unlink("durable", at=t)
    stack.settle()
    assert stack.journal.commits >= 2
    assert not any(
        txn.state is TxnState.COMMITTED
        for txn in stack.journal._ino_txn.values()
    )
    assert stack.journal._ino_txn == {}


def test_fsync_after_async_commit_forces_nothing(stack):
    handle, t = dirty_file(stack, "f")
    stack.fs.writeback_inode(handle.ino, t)
    stack.settle()  # the periodic commit made it durable
    commits = stack.journal.commits
    forced = stack.journal.forced_commits
    at = stack.now
    assert stack.journal.wait_for_inode(handle.ino, at) == at
    handle.fsync(at=at)
    assert stack.journal.commits == commits
    assert stack.journal.forced_commits == forced
