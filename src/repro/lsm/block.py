"""Data and index blocks.

A block is a flat sequence of ``[klen varint | vlen varint | key | value]``
entries in key order, followed by a fixed32 entry count. (LevelDB adds
prefix compression and restart points; flat entries keep decode simple
while preserving sizes to within a few percent, which is all the device
model consumes.)

Hot-path note: nothing encodes a block while building it. The table
builder keeps the decoded form — the parallel key/value lists readers
want anyway — and the *size* the encoding will have, which is all the
table layout and the device model need. :meth:`Block.encode` is the one
place a block becomes bytes, and it runs only when somebody asks the
file for them (see :mod:`repro.lsm.sstable`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.lsm.format import (
    CorruptionError,
    get_fixed32,
    get_varint,
    put_fixed32,
    put_varint,
)


def entry_size(klen: int, vlen: int) -> int:
    """Encoded length of one entry: two length varints, key, value.

    A varint takes one byte below 0x80, two below 0x4000 (the common
    case, answered without a call), ``bit_length // 7`` more above.
    """
    size = 2 + klen + vlen
    if klen >= 0x80:
        size += 1 if klen < 0x4000 else (klen.bit_length() - 1) // 7
    if vlen >= 0x80:
        size += 1 if vlen < 0x4000 else (vlen.bit_length() - 1) // 7
    return size


class Block:
    """A decoded block: parallel key/value sequences, binary-searchable."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: Sequence[bytes], values: Sequence[bytes]) -> None:
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.keys)

    def encode(self) -> bytes:
        """The block's on-disk bytes (the inverse of :meth:`decode`)."""
        parts: List[bytes] = []
        append = parts.append
        for key, value in zip(self.keys, self.values):
            append(put_varint(len(key)))
            append(put_varint(len(value)))
            append(key)
            append(value)
        append(put_fixed32(len(self.keys)))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        data_len = len(data)
        if data_len < 4:
            raise CorruptionError("block shorter than its trailer")
        count = get_fixed32(data, data_len - 4)
        body_len = data_len - 4
        keys: List[bytes] = []
        values: List[bytes] = []
        append_key = keys.append
        append_value = values.append
        pos = 0
        for _ in range(count):
            # inline varint decode, single-byte fast path
            if pos < body_len:
                klen = data[pos]
                if klen < 0x80:
                    pos += 1
                else:
                    klen, pos = get_varint(data, pos)
            else:
                raise CorruptionError("block entry truncated")
            if pos < body_len:
                vlen = data[pos]
                if vlen < 0x80:
                    pos += 1
                else:
                    vlen, pos = get_varint(data, pos)
            else:
                raise CorruptionError("block entry truncated")
            end_key = pos + klen
            end_val = end_key + vlen
            if end_val > body_len:
                raise CorruptionError("block entry truncated")
            append_key(data[pos:end_key])
            append_value(data[end_key:end_val])
            pos = end_val
        if pos != body_len:
            raise CorruptionError("trailing garbage in block")
        return cls(keys, values)

    def entries(self) -> List[Tuple[bytes, bytes]]:
        return list(zip(self.keys, self.values))
