"""Property test: a deferred table's bytes are the eager builder's bytes.

``TableBuilder.finish`` no longer encodes anything — it lays the table
out from sizes and leaves ``BuiltTable.encode`` to produce the bytes if
somebody reads the file. ``eager_table_bytes`` below is the builder as
it was before that change (encode every entry as it arrives, hash every
key at finish), kept here as the reference: what a reader finds in the
file must not depend on *when* the bytes were made.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.stack import StorageStack
from repro.lsm.format import (
    TYPE_DELETION,
    TYPE_VALUE,
    make_internal_key,
    put_fixed32,
    put_fixed64,
    put_varint,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TABLE_MAGIC, Table, TableBuilder
from repro.lsm.vlog import encode_inline, encode_pointer


def eager_bloom_bytes(user_keys, bits_per_key):
    k = max(1, min(30, int(bits_per_key * 0.69)))
    nbytes = (max(64, len(user_keys) * bits_per_key) + 7) // 8
    nbits = nbytes * 8
    bits = bytearray(nbytes)
    for key in user_keys:
        h = zlib.crc32(key)
        delta = zlib.crc32(key[::-1], 0x9747B28C)
        for _ in range(k):
            pos = h % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + delta) & 0xFFFFFFFF
    return bytes(bits) + bytes([k])


def eager_table_bytes(entries, options):
    blocks, index, parts = [], [], []
    count = size = offset = 0
    last_key = None

    def cut():
        nonlocal parts, count, size, offset
        if not count:
            return
        data = b"".join(parts) + put_fixed32(count)
        blocks.append(data)
        handle = put_fixed64(offset) + put_fixed64(len(data))
        index.append(
            put_varint(len(last_key)) + put_varint(len(handle))
            + last_key + handle
        )
        offset += len(data)
        parts, count, size = [], 0, 0

    for key, value in entries:
        encoded = put_varint(len(key)) + put_varint(len(value)) + key + value
        parts.append(encoded)
        count += 1
        size += len(encoded)
        last_key = key
        if size + 4 >= options.block_size:
            cut()
    cut()
    bloom = eager_bloom_bytes(
        [key[:-8] for key, _ in entries], options.bloom_bits_per_key
    )
    index_block = b"".join(index) + put_fixed32(len(index))
    footer = (
        put_fixed64(offset)
        + put_fixed64(len(bloom))
        + put_fixed64(offset + len(bloom))
        + put_fixed64(len(index_block))
        + put_fixed64(TABLE_MAGIC)
    )
    return b"".join(blocks) + bloom + index_block + footer


#: values that cross every varint-length boundary a table meets: 1-byte
#: (< 128 B), 2-byte (>= 128 B) and 3-byte (>= 16 KiB) length prefixes,
#: plus noblsm-kv's marker-prefixed inline and pointer forms
values = st.one_of(
    st.binary(max_size=40),
    st.binary(min_size=128, max_size=300),
    st.integers(min_value=16 * 1024, max_value=17 * 1024).map(
        lambda n: bytes(n)
    ),
    st.binary(max_size=40).map(encode_inline),
    st.tuples(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=0, max_value=1 << 16),
    ).map(lambda p: encode_pointer(*p)),
)

#: user key -> versions (sequence, is_tombstone, value); several versions
#: of one user key exercise the seq-descending order inside a table
tables = st.dictionaries(
    st.binary(min_size=1, max_size=24),
    st.dictionaries(
        st.integers(min_value=1, max_value=1 << 40),
        st.tuples(st.booleans(), values),
        min_size=1,
        max_size=4,
    ),
    max_size=40,
)


def internal_entries(table):
    entries = []
    for user_key in sorted(table):
        for sequence in sorted(table[user_key], reverse=True):
            tombstone, value = table[user_key][sequence]
            if tombstone:
                entries.append(
                    (make_internal_key(user_key, sequence, TYPE_DELETION), b"")
                )
            else:
                entries.append(
                    (make_internal_key(user_key, sequence, TYPE_VALUE), value)
                )
    return entries


@settings(max_examples=80, deadline=None)
@given(tables, st.sampled_from([64, 256, 4096]), st.sampled_from([4, 10]))
def test_materialised_bytes_equal_the_eager_builders(
    table, block_size, bits_per_key
):
    entries = internal_entries(table)
    options = Options(block_size=block_size, bloom_bits_per_key=bits_per_key)
    stack = StorageStack()
    builder = TableBuilder(stack.fs, "t.ldb", options, at=0)
    for key, value in entries:
        builder.add(key, value)
    size, t = builder.finish(at=0)
    expected = eager_table_bytes(entries, options)
    assert size == len(expected)  # the arithmetic layout, before any byte exists
    assert stack.fs.stat_size("t.ldb") == size
    data, t = builder.handle.read(0, size + 10, at=t)
    assert data == expected
    # and the bytes parse back to what went in
    parsed, t = Table.open(stack.fs, "t.ldb", at=t)
    assert parsed.all_entries(t)[0] == entries
