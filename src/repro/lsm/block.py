"""Data and index blocks.

A block is a flat sequence of ``[klen varint | vlen varint | key | value]``
entries in key order, followed by a fixed32 entry count. (LevelDB adds
prefix compression and restart points; flat entries keep decode simple
while preserving sizes to within a few percent, which is all the device
model consumes.)

Hot-path note: a :class:`BlockBuilder` never encodes. It keeps the
decoded form — the parallel key/value lists readers want anyway — and
the *size* the encoding will have, which is all the table builder and
the device model need. :meth:`Block.encode` is the one place a block
becomes bytes, and it runs only when somebody asks the file for them
(see :mod:`repro.lsm.sstable`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lsm.format import (
    CorruptionError,
    get_fixed32,
    get_varint,
    put_fixed32,
    put_varint,
)


class BlockBuilder:
    """Accumulates sorted (key, value) entries into one block."""

    __slots__ = ("_keys", "_values", "_bytes")

    def __init__(self) -> None:
        self._keys: List[bytes] = []
        self._values: List[bytes] = []
        self._bytes = 0

    @property
    def empty(self) -> bool:
        return not self._keys

    @property
    def size_estimate(self) -> int:
        """Exact length of ``finish().encode()`` for the entries so far."""
        return self._bytes + 4

    def add(self, key: bytes, value: bytes) -> int:
        """Append an entry; returns the new :attr:`size_estimate`.

        Ordering is the caller's contract: data blocks hold *internal*
        keys, whose order (user key asc, sequence desc) differs from raw
        byte order, so the table builder validates with the internal
        comparator before calling here. The returned size lets hot
        callers check their block-cut condition without a second call.
        """
        klen = len(key)
        vlen = len(value)
        self._keys.append(key)
        self._values.append(value)
        # two length varints: one byte each, plus one per further 7 bits
        size = self._bytes + 2 + klen + vlen
        if klen >= 0x80:
            size += (klen.bit_length() - 1) // 7
        if vlen >= 0x80:
            size += (vlen.bit_length() - 1) // 7
        self._bytes = size
        return size + 4

    def finish(self) -> "Block":
        """Hand the entries over as a :class:`Block` and start afresh."""
        block = Block(self._keys, self._values)
        self._keys = []
        self._values = []
        self._bytes = 0
        return block


class Block:
    """A decoded block: parallel key/value lists, binary-searchable."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: List[bytes], values: List[bytes]) -> None:
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
