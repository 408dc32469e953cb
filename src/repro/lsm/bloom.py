"""Bloom filter, LevelDB-style double hashing."""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Optional, Tuple


def _base_hash(key: bytes) -> int:
    # crc32 of the key and of its reverse give two independent-enough
    # 32-bit hashes for Kirsch-Mitzenmacher double hashing.
    h1 = zlib.crc32(key) & 0xFFFFFFFF
    h2 = zlib.crc32(key[::-1], 0x9747B28C) & 0xFFFFFFFF
    return h1 | (h2 << 32)


class BloomFilter:
    """Immutable bloom filter over a set of keys.

    The filter's *size* follows from the key count alone, so a table
    builder can lay a table out without hashing anything:
    :meth:`deferred` records the count and where the keys come from, and
    the bits are set by the first :meth:`may_contain` or :meth:`encode`.
    Most compaction outputs are consumed by the next compaction before
    any ``get`` probes them, and never pay for their filter.
    """

    __slots__ = ("_bits", "k", "_pending")

    def __init__(self, bits: Optional[bytearray], k: int) -> None:
        self._bits = bits
        self.k = k
        #: (byte length, keys source) until the bits are set
        self._pending: Optional[
            Tuple[int, Callable[[], Iterable[bytes]]]
        ] = None

    @property
    def size_bytes(self) -> int:
        bits = self._bits
        return (self._pending[0] if bits is None else len(bits)) + 1

    @classmethod
    def deferred(
        cls,
        num_keys: int,
        bits_per_key: int,
        keys: Callable[[], Iterable[bytes]],
    ) -> "BloomFilter":
        """A filter over the ``num_keys`` keys ``keys()`` will yield."""
        k = max(1, min(30, int(bits_per_key * 0.69)))  # ln 2 factor
        bloom = cls(None, k)
        bloom._pending = ((max(64, num_keys * bits_per_key) + 7) // 8, keys)
        return bloom

    @classmethod
    def build(cls, keys: Iterable[bytes], bits_per_key: int) -> "BloomFilter":
        keys = list(keys)
        bloom = cls.deferred(len(keys), bits_per_key, lambda: keys)
        bloom._fill()
        return bloom

    def _fill(self) -> bytearray:
        nbytes, keys = self._pending
        self._pending = None
        nbits = nbytes * 8
        bits = bytearray(nbytes)
        crc32 = zlib.crc32
        k_range = range(self.k)
        for key in keys():
            h = crc32(key)
            delta = crc32(key[::-1], 0x9747B28C)
            for _ in k_range:
                pos = h % nbits
                bits[pos >> 3] |= 1 << (pos & 7)
                h = (h + delta) & 0xFFFFFFFF
        self._bits = bits
        return bits

    def may_contain(self, key: bytes) -> bool:
        bits = self._bits
        if bits is None:
            bits = self._fill()
        nbits = len(bits) * 8
        if nbits == 0:
            return False
        crc32 = zlib.crc32
        h = crc32(key)
        delta = crc32(key[::-1], 0x9747B28C)
        for _ in range(self.k):
            pos = h % nbits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h = (h + delta) & 0xFFFFFFFF
        return True

    def encode(self) -> bytes:
        bits = self._bits
        if bits is None:
            bits = self._fill()
        return bytes(bits) + bytes([self.k])

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        if not data:
            return cls(bytearray(), 1)
        return cls(bytearray(data[:-1]), data[-1])
