"""Unit tests for data blocks."""

import pytest

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.format import CorruptionError


def test_build_and_decode_roundtrip():
    builder = BlockBuilder()
    entries = [(f"key{i:04d}".encode(), f"value{i}".encode()) for i in range(50)]
    for key, value in entries:
        builder.add(key, value)
    block = Block.decode(builder.finish().encode())
    assert block.entries() == entries


def test_empty_block():
    builder = BlockBuilder()
    assert builder.empty
    block = Block.decode(builder.finish().encode())
    assert len(block) == 0


def test_ordering_is_callers_contract():
    """Blocks accept any order (internal-key order != raw byte order);
    the table builder validates with the internal comparator."""
    builder = BlockBuilder()
    builder.add(b"b", b"1")
    builder.add(b"a", b"2")  # accepted: caller is responsible
    block = Block.decode(builder.finish().encode())
    assert block.entries() == [(b"b", b"1"), (b"a", b"2")]


def test_size_estimate_tracks_content():
    builder = BlockBuilder()
    assert builder.size_estimate == 4  # trailer only
    builder.add(b"key", b"value")
    assert builder.size_estimate > 4


def test_finish_resets_builder():
    builder = BlockBuilder()
    builder.add(b"a", b"1")
    builder.finish()
    assert builder.empty
    builder.add(b"a", b"1")  # same key fine after reset
    block = Block.decode(builder.finish().encode())
    assert block.entries() == [(b"a", b"1")]


def test_decode_truncated_raises():
    builder = BlockBuilder()
    builder.add(b"key", b"value")
    data = builder.finish().encode()
    with pytest.raises(CorruptionError):
        Block.decode(data[: len(data) // 2])
    with pytest.raises(CorruptionError):
        Block.decode(b"xy")


def test_decode_trailing_garbage_raises():
    builder = BlockBuilder()
    builder.add(b"key", b"value")
    data = builder.finish().encode()
    with pytest.raises(CorruptionError):
        Block.decode(b"junk" + data)


def test_empty_values_allowed():
    builder = BlockBuilder()
    builder.add(b"tombstone", b"")
    block = Block.decode(builder.finish().encode())
    assert block.entries() == [(b"tombstone", b"")]


def test_binary_keys_and_values():
    builder = BlockBuilder()
    entries = [(bytes([0, i]), bytes(range(i % 64))) for i in range(1, 64)]
    for key, value in entries:
        builder.add(key, value)
    block = Block.decode(builder.finish().encode())
    assert block.entries() == entries
