"""Unit tests for SSTable building, reading, and iteration."""

import pytest

from repro.fs.stack import StorageStack
from repro.lsm.format import (
    CorruptionError,
    TYPE_DELETION,
    TYPE_VALUE,
    make_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import Table, TableBuilder


@pytest.fixture()
def stack():
    return StorageStack()


def small_options():
    return Options(block_size=256)


def build_table(stack, entries, path="table.ldb"):
    builder = TableBuilder(stack.fs, path, small_options(), at=0)
    for internal_key, value in entries:
        builder.add(internal_key, value)
    size, t = builder.finish(at=0)
    return size, t


def sample_entries(n=200, seq_base=100):
    return [
        (
            make_internal_key(f"key{i:05d}".encode(), seq_base + i, TYPE_VALUE),
            f"value-{i}".encode() * 3,
        )
        for i in range(n)
    ]


def test_build_creates_real_file(stack):
    size, _ = build_table(stack, sample_entries())
    assert stack.fs.exists("table.ldb")
    assert stack.fs.stat_size("table.ldb") == size


def test_open_and_get(stack):
    entries = sample_entries()
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    result, t = table.get(b"key00042", at=t)
    assert result == (True, b"value-42" * 3)


def test_get_missing_key(stack):
    build_table(stack, sample_entries())
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    result, t = table.get(b"nope", at=t)
    assert result is None


def test_get_tombstone(stack):
    entries = [
        (make_internal_key(b"dead", 5, TYPE_DELETION), b""),
        (make_internal_key(b"live", 6, TYPE_VALUE), b"v"),
    ]
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    result, t = table.get(b"dead", at=t)
    assert result == (False, b"")


def test_newest_version_returned(stack):
    entries = [
        (make_internal_key(b"key", 9, TYPE_VALUE), b"new"),
        (make_internal_key(b"key", 5, TYPE_VALUE), b"old"),
    ]
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    result, t = table.get(b"key", at=t)
    assert result == (True, b"new")


def test_builder_rejects_out_of_order(stack):
    builder = TableBuilder(stack.fs, "t.ldb", small_options(), at=0)
    builder.add(make_internal_key(b"b", 1, TYPE_VALUE), b"v")
    with pytest.raises(ValueError):
        builder.add(make_internal_key(b"a", 1, TYPE_VALUE), b"v")


def test_builder_tracks_bounds(stack):
    entries = sample_entries(50)
    builder = TableBuilder(stack.fs, "t.ldb", small_options(), at=0)
    for internal_key, value in entries:
        builder.add(internal_key, value)
    builder.finish(at=0)
    assert builder.smallest == entries[0][0]
    assert builder.largest == entries[-1][0]
    assert builder.num_entries == 50


def test_open_bad_magic_raises(stack):
    handle, t = stack.fs.create("junk.ldb", at=0)
    handle.append(b"x" * 100, at=t)
    with pytest.raises(CorruptionError):
        Table.open(stack.fs, "junk.ldb", at=0)


def test_open_too_small_raises(stack):
    handle, t = stack.fs.create("tiny.ldb", at=0)
    handle.append(b"xy", at=t)
    with pytest.raises(CorruptionError):
        Table.open(stack.fs, "tiny.ldb", at=0)


def test_truncated_table_detected(stack):
    """A crash-truncated table fails to open (recovery validation)."""
    size, t = build_table(stack, sample_entries())
    stack.fs.crash()  # never committed: file is gone entirely
    assert not stack.fs.exists("table.ldb")


def test_all_entries_roundtrip(stack):
    entries = sample_entries(300)
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    read, t = table.all_entries(at=t)
    assert read == entries


def test_iterator_full_scan(stack):
    entries = sample_entries(150)
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    iterator = table.iterate(t)
    iterator.seek_to_first()
    seen = []
    while iterator.valid:
        seen.append((iterator.key, iterator.value))
        iterator.next()
    assert seen == entries


def test_iterator_seek(stack):
    entries = sample_entries(150)
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    iterator = table.iterate(t)
    iterator.seek(make_internal_key(b"key00100", 2**40, TYPE_VALUE))
    assert iterator.valid
    assert iterator.key[:-8] == b"key00100"


def test_iterator_seek_past_end(stack):
    build_table(stack, sample_entries(10))
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    iterator = table.iterate(t)
    iterator.seek(make_internal_key(b"zzz", 2**40, TYPE_VALUE))
    assert not iterator.valid


def test_smallest_largest_and_max_sequence(stack):
    entries = sample_entries(80, seq_base=1000)
    build_table(stack, entries)
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    smallest, t = table.smallest_key(t)
    assert smallest == entries[0][0]
    assert table.largest_key() == entries[-1][0]
    max_seq, t = table.max_sequence(t)
    assert max_seq == 1000 + 79


def test_reads_charge_time(stack):
    build_table(stack, sample_entries(300))
    stack.pagecache.drop_all()
    table, t0 = Table.open(stack.fs, "table.ldb", at=0)
    result, t1 = table.get(b"key00222", at=t0)
    assert result is not None
    assert t1 > t0


def test_block_cache_avoids_rereads(stack):
    build_table(stack, sample_entries(10))
    table, t = Table.open(stack.fs, "table.ldb", at=0)
    _, t1 = table.get(b"key00003", at=t)
    reads_before = stack.ssd.stats.read_ios
    _, t2 = table.get(b"key00003", at=t1)
    assert stack.ssd.stats.read_ios == reads_before


# ----------------------------------------------------------------------
# deferred bytes + the builder's hand-off record
# ----------------------------------------------------------------------

def build_with_record(stack, entries, path="table.ldb", number=7):
    builder = TableBuilder(
        stack.fs, path, small_options(), at=0, number=number
    )
    for internal_key, value in entries:
        builder.add(internal_key, value)
    _, t = builder.finish(at=0)
    return builder, t


def bytes_were_made(stack, path):
    payloads = stack.fs._get_inode(path).data._payloads
    return all(isinstance(payload, bytes) for payload in payloads)


def test_hand_off_open_charges_like_a_parse_and_makes_no_bytes():
    """Same table, two stacks: one reader holds the builder's record,
    the other parses the file. Every time and device counter agrees; only
    the parsing reader caused the bytes to exist."""
    entries = sample_entries(300)
    handed, parsed = StorageStack(), StorageStack()
    builder, t = build_with_record(handed, entries)
    _, u = build_with_record(parsed, entries)
    assert t == u
    for stack in (handed, parsed):
        stack.pagecache.drop_all()  # cold: reads reach the device
    table_a, t = Table.open(
        handed.fs, "table.ldb", at=t, number=7, built=builder.built
    )
    table_b, u = Table.open(parsed.fs, "table.ldb", at=u, number=7)
    assert t == u
    for key in (b"key00000", b"key00123", b"key00299", b"absent"):
        got_a, t = table_a.get(key, at=t)
        got_b, u = table_b.get(key, at=u)
        assert got_a == got_b and t == u
    all_a, t = table_a.all_entries(at=t)
    all_b, u = table_b.all_entries(at=u)
    assert all_a == all_b == entries and t == u
    assert handed.ssd.stats.snapshot() == parsed.ssd.stats.snapshot()
    assert handed.pagecache.snapshot() == parsed.pagecache.snapshot()
    assert not bytes_were_made(handed, "table.ldb")
    assert bytes_were_made(parsed, "table.ldb")


def test_record_for_another_file_size_is_ignored(stack):
    """A record is only trusted for the file it describes."""
    builder, _ = build_with_record(stack, sample_entries(50), "a.ldb")
    entries = sample_entries(80, seq_base=500)
    build_with_record(stack, entries, "b.ldb")
    table, t = Table.open(stack.fs, "b.ldb", at=0, built=builder.built)
    assert table.all_entries(at=t)[0] == entries


def test_committed_deferred_table_parses_identically_after_crash(stack):
    entries = sample_entries(300)
    builder, t = build_with_record(stack, entries)
    before, t = Table.open(
        stack.fs, "table.ldb", at=t, built=builder.built
    )
    expected, t = before.all_entries(at=t)
    t = builder.handle.fdatasync(at=t, reason="test")
    assert not bytes_were_made(stack, "table.ldb")
    stack.crash()
    table, t = Table.open(stack.fs, "table.ldb", at=stack.now)
    assert table.all_entries(at=t)[0] == expected == entries
    assert table.get(b"key00042", at=t)[0] == (True, b"value-42" * 3)
    assert table.bloom.may_contain(b"key00042")


def test_half_committed_deferred_table_is_corrupt_after_crash(stack):
    """The journal recorded the table at a size inside its deferred
    extent: after the crash it is a torn prefix and must not open."""
    builder, t = build_with_record(stack, sample_entries(300))
    size = builder.handle.size
    _, t = stack.fs.writeback_inode(builder.handle.ino, t, max_bytes=size // 2)
    other, t = stack.fs.create("other", at=t)
    t = other.append(b"x", at=t)
    other.fsync(at=t)  # commits the running txn with half the table
    stack.crash()
    assert stack.fs.stat_size("table.ldb") == size // 2
    with pytest.raises(CorruptionError):
        Table.open(stack.fs, "table.ldb", at=stack.now)
