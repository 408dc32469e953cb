"""Unit tests for data blocks."""

import pytest

from repro.fs.stack import StorageStack
from repro.lsm.block import Block
from repro.lsm.format import TYPE_VALUE, CorruptionError, make_internal_key
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder


def block_of(entries):
    return Block([key for key, _ in entries], [value for _, value in entries])


def test_build_and_decode_roundtrip():
    entries = [(f"key{i:04d}".encode(), f"value{i}".encode()) for i in range(50)]
    block = Block.decode(block_of(entries).encode())
    assert block.entries() == entries


def test_empty_block():
    block = Block.decode(Block([], []).encode())
    assert len(block) == 0


def test_ordering_is_callers_contract():
    """Blocks accept any order (internal-key order != raw byte order);
    the table builder validates with the internal comparator."""
    block = Block.decode(block_of([(b"b", b"1"), (b"a", b"2")]).encode())
    assert block.entries() == [(b"b", b"1"), (b"a", b"2")]


def builder_with_room():
    return TableBuilder(
        StorageStack().fs, "t.ldb", Options(block_size=1 << 20), at=0
    )


def test_size_estimate_tracks_content():
    """The table builder's open-block byte count is the encoded length,
    multi-byte length varints (128 B and more) included."""
    builder = builder_with_room()
    assert builder.current_size == 4  # trailer only
    for i, vlen in enumerate((5, 127, 128, 300, 20_000)):
        builder.add(make_internal_key(b"k%03d" % i + b"x" * (40 * i),
                                      1, TYPE_VALUE), b"v" * vlen)
        encoded = Block(builder.block_keys, builder.block_values).encode()
        assert builder.block_bytes + 4 == len(encoded)
        assert builder.current_size == len(encoded)


def test_finish_resets_builder():
    """Sealing a block starts the next one empty."""
    builder = builder_with_room()
    first = make_internal_key(b"a", 1, TYPE_VALUE)
    builder.add(first, b"1")
    builder.cut_block()
    assert builder.block_keys == [] and builder.block_bytes == 0
    second = make_internal_key(b"b", 1, TYPE_VALUE)
    builder.add(second, b"1")
    builder.finish(at=0)
    blocks = builder.built.blocks
    assert [block.entries() for block in blocks] == [
        [(first, b"1")], [(second, b"1")]
    ]
    assert builder.built.spans == [
        (0, len(blocks[0].encode())),
        (len(blocks[0].encode()), len(blocks[1].encode())),
    ]


def test_decode_truncated_raises():
    data = block_of([(b"key", b"value")]).encode()
    with pytest.raises(CorruptionError):
        Block.decode(data[: len(data) // 2])
    with pytest.raises(CorruptionError):
        Block.decode(b"xy")


def test_decode_trailing_garbage_raises():
    data = block_of([(b"key", b"value")]).encode()
    with pytest.raises(CorruptionError):
        Block.decode(b"junk" + data)


def test_empty_values_allowed():
    block = Block.decode(block_of([(b"tombstone", b"")]).encode())
    assert block.entries() == [(b"tombstone", b"")]


def test_binary_keys_and_values():
    entries = [(bytes([0, i]), bytes(range(i % 64))) for i in range(1, 64)]
    block = Block.decode(block_of(entries).encode())
    assert block.entries() == entries
