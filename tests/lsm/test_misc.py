"""Unit tests for file naming, table cache and the lazy executor."""

import hashlib

import pytest

from repro.fs.stack import StorageStack
from repro.lsm.background import LazyExecutor
from repro.lsm.filenames import (
    current_file_name,
    log_file_name,
    manifest_file_name,
    parse_file_name,
    table_file_name,
    temp_file_name,
)
from repro.lsm.format import TYPE_DELETION, TYPE_VALUE, make_internal_key
from repro.lsm.options import Options
from repro.lsm.sstable import Table, TableBuilder
from repro.lsm.tablecache import TableCache


# ----------------------------------------------------------------------
# filenames
# ----------------------------------------------------------------------

def test_file_names():
    assert table_file_name("db", 7) == "db/000007.ldb"
    assert log_file_name("db", 12) == "db/000012.log"
    assert manifest_file_name("db", 3) == "db/MANIFEST-000003"
    assert current_file_name("db") == "db/CURRENT"
    assert temp_file_name("db", 9) == "db/000009.dbtmp"


@pytest.mark.parametrize(
    "path,expected",
    [
        ("db/000007.ldb", ("table", 7)),
        ("db/000012.log", ("log", 12)),
        ("db/MANIFEST-000003", ("manifest", 3)),
        ("db/CURRENT", ("current", None)),
        ("db/000009.dbtmp", ("temp", 9)),
        ("db/garbage.txt", ("unknown", None)),
        ("db/MANIFEST-xyz", ("unknown", None)),
        ("other/000007.ldb", ("unknown", None)),
    ],
)
def test_parse_file_name(path, expected):
    assert parse_file_name("db", path) == expected


# ----------------------------------------------------------------------
# table cache
# ----------------------------------------------------------------------

def build_table(stack, number):
    path = table_file_name("db", number)
    builder = TableBuilder(stack.fs, path, Options(), at=0, number=number)
    builder.add(make_internal_key(b"key", 1, TYPE_VALUE), b"v")
    builder.finish(at=0)


def test_table_cache_opens_once():
    stack = StorageStack()
    build_table(stack, 1)
    cache = TableCache(stack.fs, "db")
    table1, t = cache.get_table(1, at=0)
    table2, t = cache.get_table(1, at=t)
    assert table1 is table2
    assert cache.opens == 1


def test_table_cache_evicts_lru():
    stack = StorageStack()
    for number in (1, 2, 3):
        build_table(stack, number)
    cache = TableCache(stack.fs, "db", capacity=2)
    t = 0
    _, t = cache.get_table(1, at=t)
    _, t = cache.get_table(2, at=t)
    _, t = cache.get_table(3, at=t)  # evicts 1
    _, t = cache.get_table(1, at=t)  # reopens
    assert cache.opens == 4


def test_table_cache_explicit_evict():
    stack = StorageStack()
    build_table(stack, 1)
    cache = TableCache(stack.fs, "db")
    _, t = cache.get_table(1, at=0)
    cache.evict(1)
    _, t = cache.get_table(1, at=t)
    assert cache.opens == 2


def test_table_cache_hand_off_record_lifetime():
    """An adopted record serves opens until ``evict``; a cache that never
    adopted one (a reopened store's) parses bytes."""
    stack = StorageStack()
    path = table_file_name("db", 1)
    builder = TableBuilder(stack.fs, path, Options(), at=0, number=1)
    builder.add(make_internal_key(b"key", 1, TYPE_VALUE), b"v")
    builder.finish(at=0)
    payloads = stack.fs._get_inode(path).data._payloads
    cache = TableCache(stack.fs, "db")
    cache.adopt(1, builder.built)
    table, t = cache.get_table(1, at=0)
    assert table.index_keys is builder.built.index_keys
    assert table.get(b"key", at=t)[0] == (True, b"v")
    assert not isinstance(payloads[0], bytes)  # nobody asked for bytes
    cache.evict(1)
    table, t = cache.get_table(1, at=t)  # record gone: real parse
    assert table.index_keys is not builder.built.index_keys
    assert table.get(b"key", at=t)[0] == (True, b"v")
    assert isinstance(payloads[0], bytes)
    reopened = TableCache(stack.fs, "db")
    table, t = reopened.get_table(1, at=t)
    assert table.index_keys is not builder.built.index_keys


def wide_entries():
    """Keys and values of 128 B and more (multi-byte length varints; one
    value needs three bytes), tombstones among them."""
    entries = []
    for i in range(40):
        user = b"user%03d" % i + b"k" * (120 + 7 * i)
        if i % 5 == 4:
            key = make_internal_key(user, 1000 - i, TYPE_DELETION)
            entries.append((key, b""))
        else:
            key = make_internal_key(user, 1000 - i, TYPE_VALUE)
            entries.append((key, b"v" * (100 + 13 * i)))
    entries.append((make_internal_key(b"user999", 1, TYPE_VALUE), b"w" * 20_000))
    return entries


#: sha256 of the table ``wide_entries`` builds, as the block-by-block
#: builder (one BlockBuilder per block, index values encoded as blocks
#: were cut) laid it out
WIDE_TABLE_SHA256 = (
    "0306f2291f63a4531299b4be5de23958f5cb3ce2e8f578ee368ff171ab381982"
)


def test_hand_off_and_real_bytes_open_the_same_table():
    stack = StorageStack()
    path = table_file_name("db", 1)
    builder = TableBuilder(
        stack.fs, path, Options(block_size=1024), at=0, number=1
    )
    entries = wide_entries()
    for key, value in entries:
        builder.add(key, value)
    size, _ = builder.finish(at=0)
    handed, t = Table.open(stack.fs, path, at=0, number=1, built=builder.built)
    parsed, u = Table.open(stack.fs, path, at=0, number=1)  # makes the bytes
    assert handed.index_keys is builder.built.index_keys
    assert handed.index_keys == parsed.index_keys
    assert len(handed.spans) > 10 and handed.spans == parsed.spans
    assert handed.all_entries(t)[0] == parsed.all_entries(u)[0] == entries
    assert handed.file_size == parsed.file_size == size == stack.fs.stat_size(path)
    for key, _ in entries + [(b"absent-key-00000000", b"")]:
        user = key[:-8]
        assert handed.bloom.may_contain(user) == parsed.bloom.may_contain(user)
    data = builder.built.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == WIDE_TABLE_SHA256


def test_table_cache_rejects_bad_capacity():
    stack = StorageStack()
    with pytest.raises(ValueError):
        TableCache(stack.fs, "db", capacity=0)


# ----------------------------------------------------------------------
# lazy executor
# ----------------------------------------------------------------------

def test_executor_serializes_on_one_thread():
    bg = LazyExecutor(1)
    first = bg.execute(0, lambda start: start + 100)
    second = bg.execute(0, lambda start: start + 50)
    assert first == 100
    assert second == 150  # waited for the first job


def test_executor_ready_time_respected():
    bg = LazyExecutor(1)
    done = bg.execute(500, lambda start: start + 10)
    assert done == 510


def test_executor_parallel_threads():
    bg = LazyExecutor(2)
    first = bg.execute(0, lambda start: start + 100)
    second = bg.execute(0, lambda start: start + 100)
    assert first == 100
    assert second == 100  # ran on the other thread


def test_executor_nested_submission_never_rewinds():
    bg = LazyExecutor(1)

    def outer(start):
        inner_done = bg.execute(start + 80, lambda s: s + 100)
        assert inner_done == start + 180
        return start + 80

    bg.execute(0, outer)
    assert bg.earliest_free() == 180  # keeps the nested job's time


def test_executor_rejects_time_travel():
    bg = LazyExecutor(1)
    with pytest.raises(RuntimeError):
        bg.execute(100, lambda start: start - 1)


def test_executor_accounting():
    bg = LazyExecutor(1)
    bg.execute(0, lambda start: start + 100)
    bg.execute(0, lambda start: start + 50)
    assert bg.jobs == 2
    assert bg.busy_ns == 150
    assert bg.idle_at(150)
    assert not bg.idle_at(149)


def test_executor_rejects_zero_threads():
    with pytest.raises(ValueError):
        LazyExecutor(0)
