"""SSTable writer and reader.

Layout::

    [data block 0] ... [data block N-1]
    [bloom filter]
    [index block]   entries: last internal key of block -> (offset, size)
    [footer]        bloom_offset, bloom_size, index_offset, index_size, magic

Keys inside data blocks are *internal* keys (user key + sequence tag);
index keys are the last internal key of each block. All sizes are real —
the simulated device is charged for exactly the bytes a real LevelDB
would move.

Who may ask a table file for bytes, and when they get made: the builder
appends a table to its inode as one *deferred* extent — its exact length
is computed arithmetically, its bytes are produced by
:meth:`BuiltTable.encode` only when somebody reads them — and hands the
:class:`BuiltTable` (the same table, already decoded) to its store's
:class:`~repro.lsm.tablecache.TableCache`. A reader that is given that
record pays every charge a real read would (``Ext4.charge_read``) and
takes the parsed parts from it; a reader that is not — recovery after a
crash, a reopened store, ``repair_db``, orphan adoption, the crash-matrix
validators — reads and parses real bytes, which is when they get made.

The builder records each sealed block's ``(offset, size)`` *span* and
last key; the hand-off record carries both lists as they are. Index
values are encoded only by :meth:`BuiltTable.encode`, and a reader of
real bytes parses them back into the same spans.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.fs.ext4 import Ext4, File
from repro.lsm.block import Block, entry_size
from repro.lsm.blockcache import BlockCache
from repro.lsm.bloom import BloomFilter
from repro.lsm.format import (
    CorruptionError,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    get_fixed64,
    make_internal_key,
    parse_internal_key,
    put_fixed64,
)
from repro.lsm.options import Options

FOOTER_SIZE = 40
TABLE_MAGIC = 0xDB4775248B80FB57
#: (user key, tag) below every internal key: the ordering check's start
ORDER_START = (b"", 1 << 64)


class BuiltTable:
    """A finished table as its builder left it: decoded parts and layout.

    Both the file's deferred extent (through :meth:`encode`) and the
    owning store's table cache hold one of these; neither copies it.
    ``index_keys[i]`` is the last internal key of ``blocks[i]`` and
    ``spans[i]`` its ``(offset, size)`` in the file.
    """

    __slots__ = (
        "blocks", "index_keys", "spans", "bloom", "bloom_offset", "index_size"
    )

    def __init__(
        self,
        blocks: List[Block],
        index_keys: List[bytes],
        spans: List[Tuple[int, int]],
        bloom: BloomFilter,
        bloom_offset: int,
        index_size: int,
    ) -> None:
        self.blocks = blocks
        self.index_keys = index_keys
        self.spans = spans
        self.bloom = bloom
        self.bloom_offset = bloom_offset  # = total size of the data blocks
        self.index_size = index_size

    @property
    def index_offset(self) -> int:
        return self.bloom_offset + self.bloom.size_bytes

    @property
    def file_size(self) -> int:
        return self.index_offset + self.index_size + FOOTER_SIZE

    def encode(self) -> bytes:
        """The table's on-disk bytes — the only table encoder."""
        parts = [block.encode() for block in self.blocks]
        parts.append(self.bloom.encode())
        index = Block(
            self.index_keys,
            [put_fixed64(offset) + put_fixed64(size) for offset, size in self.spans],
        )
        parts.append(index.encode())
        parts.append(
            put_fixed64(self.bloom_offset)
            + put_fixed64(self.bloom.size_bytes)
            + put_fixed64(self.index_offset)
            + put_fixed64(self.index_size)
            + put_fixed64(TABLE_MAGIC)
        )
        return b"".join(parts)


class TableBuilder:
    """Builds one SSTable; entries must arrive in internal-key order.

    The open block is ``block_keys``/``block_values`` (sealed into a
    :class:`Block` as tuples) and ``block_bytes``, its encoded length
    less the 4-byte trailer. After :meth:`finish`, :attr:`built` is the
    hand-off record for the store's table cache.

    ``DB._write_merged`` appends to the open block itself, doing what
    :meth:`add` does: the order check, ``entry_size`` added to
    ``block_bytes``, :meth:`cut_block` once ``block_bytes + 4`` reaches
    ``block_size``. It keeps ``block_bytes`` in a local, so it must write
    it back before any call that reads it (:meth:`cut_block`,
    :meth:`finish`, :attr:`current_size`), and write ``last_user`` and
    ``last_tag`` back before it returns the builder.
    """

    def __init__(
        self,
        fs: Ext4,
        path: str,
        options: Options,
        at: int,
        number: int = -1,
    ) -> None:
        self.fs = fs
        self.options = options
        handle, t = fs.create(path, at=at)
        self.handle = handle
        self.path = path
        self.number = number
        self._time = t
        self.block_size = options.block_size
        self.block_keys: List[bytes] = []
        self.block_values: List[bytes] = []
        self.block_bytes = 0
        #: bytes of the sealed data blocks (the next block's offset)
        self.data_size = 0
        self._blocks: List[Block] = []
        self._sealed_entries = 0
        self._spans: List[Tuple[int, int]] = []
        #: user key and tag of the last entry (the ordering check)
        self.last_user, self.last_tag = ORDER_START
        self.finished = False
        self.built: Optional[BuiltTable] = None

    @property
    def current_size(self) -> int:
        return self.data_size + self.block_bytes + 4

    @property
    def num_entries(self) -> int:
        return self._sealed_entries + len(self.block_keys)

    @property
    def smallest(self) -> Optional[bytes]:
        keys = self._blocks[0].keys if self._blocks else self.block_keys
        return keys[0] if keys else None

    @property
    def largest(self) -> Optional[bytes]:
        keys = self.block_keys or (self._blocks[-1].keys if self._blocks else [])
        return keys[-1] if keys else None

    def add(self, internal_key: bytes, value: bytes) -> None:
        if self.finished:
            raise RuntimeError("builder already finished")
        # ordering check, internal_compare inlined against the cached
        # (user, tag) of the previous entry: user asc, tag (seq) desc
        user = internal_key[:-8]
        tag = int.from_bytes(internal_key[-8:], "little")
        last_user = self.last_user
        if user < last_user or (user == last_user and tag >= self.last_tag):
            raise ValueError("table entries must be strictly increasing")
        self.last_user = user
        self.last_tag = tag
        self.block_keys.append(internal_key)
        self.block_values.append(value)
        self.block_bytes += entry_size(len(internal_key), len(value))
        if self.block_bytes + 4 >= self.block_size:
            self.cut_block()

    def cut_block(self) -> None:
        """Seal the open block (if any): record its span and last key."""
        keys = self.block_keys
        if not keys:
            return
        size = self.block_bytes + 4
        # sealed as tuples: a tuple of bytes leaves the cycle collector's
        # lists at its first pass, so live tables add nothing to the full
        # collections that scan every tracked object
        self._blocks.append(Block(tuple(keys), tuple(self.block_values)))
        self._sealed_entries += len(keys)
        self._spans.append((self.data_size, size))
        self.data_size += size
        self.block_keys = []
        self.block_values = []
        self.block_bytes = 0

    def finish(self, at: int) -> Tuple[int, int]:
        """Write everything out; returns (file_size, completion_time).

        "Writes" a deferred extent: the layout is known from sizes alone
        (varint lengths, the filter's bit count), so no block is encoded
        and no key hashed here.
        """
        if self.finished:
            raise RuntimeError("builder already finished")
        self.finished = True
        self.cut_block()
        blocks = self._blocks
        index_keys = [block.keys[-1] for block in blocks]
        bloom = BloomFilter.deferred(
            self.num_entries,
            self.options.bloom_bits_per_key,
            lambda: (key[:-8] for block in blocks for key in block.keys),
        )
        # an index entry per block (its 16-byte span value) + trailer
        index_size = 4 + sum(entry_size(len(key), 16) for key in index_keys)
        built = self.built = BuiltTable(
            blocks, index_keys, self._spans, bloom, self.data_size, index_size
        )
        size = built.file_size
        t = max(at, self._time)
        t = self.handle.append_deferred(size, built.encode, at=t)
        # checksumming cost over the table
        t += self.fs.cpu.crc_per_kib_ns * (size // 1024 + 1)
        return size, t


def _lower_bound(keys: List[bytes], target: bytes) -> int:
    """First index whose internal key >= target (internal ordering).

    ``internal_compare`` is inlined: the target's user part and tag are
    sliced once instead of on every probe.
    """
    lo, hi = 0, len(keys)
    if lo == hi:
        return lo
    target_user = target[:-8]
    target_tag = get_fixed64(target, len(target) - 8)
    while lo < hi:
        mid = (lo + hi) >> 1
        key = keys[mid]
        user = key[:-8]
        # key < target iff user asc first, then tag (sequence) desc
        if user < target_user or (
            user == target_user
            and get_fixed64(key, len(key) - 8) > target_tag
        ):
            lo = mid + 1
        else:
            hi = mid
    return lo


class Table:
    """An open SSTable: footer/index/bloom parsed, blocks read on demand.

    ``block_cache`` (optional, shared across tables) bounds how many
    decoded blocks stay resident — LevelDB's 8 MB Cache; without one the
    table uses a private, unbounded :class:`BlockCache` (unit-test
    convenience).

    ``index_keys``/``spans`` are the index block: each data block's last
    internal key and ``(offset, size)``. ``blocks`` is a hand-off
    record's decoded data blocks: with it, a block "read" charges the
    read and takes the block from the list.
    """

    def __init__(
        self,
        fs: Ext4,
        handle: File,
        index_keys: List[bytes],
        spans: List[Tuple[int, int]],
        bloom: BloomFilter,
        file_size: int,
        block_cache=None,
        number: int = -1,
        blocks: Optional[List[Block]] = None,
    ) -> None:
        self.fs = fs
        self.handle = handle
        self.index_keys = index_keys
        self.spans = spans
        self.bloom = bloom
        self.file_size = file_size
        self.number = number
        self._blocks = blocks
        if block_cache is None:
            block_cache = BlockCache(1 << 62)  # private and unbounded
        self.block_cache = block_cache

    @classmethod
    def open(
        cls,
        fs: Ext4,
        path: str,
        at: int,
        block_cache=None,
        number: int = -1,
        built: Optional[BuiltTable] = None,
    ) -> Tuple["Table", int]:
        """Open ``path``; with ``built`` (the builder's hand-off record
        for this very file) the three reads are charged, not parsed."""
        handle, t = fs.open(path, at=at)
        size = handle.size
        if size < FOOTER_SIZE:
            raise CorruptionError(f"{path}: too small for a table footer")
        if built is not None and built.file_size == size:
            _, t = handle.charge_read(size - FOOTER_SIZE, FOOTER_SIZE, at=t)
            _, t = handle.charge_read(
                built.bloom_offset, built.bloom.size_bytes, at=t
            )
            _, t = handle.charge_read(
                built.index_offset, built.index_size, at=t
            )
            index_keys, spans = built.index_keys, built.spans
            bloom, blocks = built.bloom, built.blocks
        else:
            footer, t = handle.read(size - FOOTER_SIZE, FOOTER_SIZE, at=t)
            if get_fixed64(footer, 32) != TABLE_MAGIC:
                raise CorruptionError(f"{path}: bad table magic")
            bloom_offset = get_fixed64(footer, 0)
            bloom_size = get_fixed64(footer, 8)
            index_offset = get_fixed64(footer, 16)
            index_size = get_fixed64(footer, 24)
            bloom_bytes, t = handle.read(bloom_offset, bloom_size, at=t)
            index_bytes, t = handle.read(index_offset, index_size, at=t)
            index = Block.decode(index_bytes)
            index_keys = index.keys
            spans = [
                (get_fixed64(value, 0), get_fixed64(value, 8))
                for value in index.values
            ]
            bloom = BloomFilter.decode(bloom_bytes)
            blocks = None
        t += fs.cpu.block_decode_ns
        return cls(
            fs, handle, index_keys, spans, bloom, size,
            block_cache=block_cache, number=number, blocks=blocks,
        ), t

    def _read_block(self, block_pos: int, at: int) -> Tuple[Block, int]:
        cached = self.block_cache.get(self.number, block_pos)
        if cached is not None:
            return cached, at
        offset, size = self.spans[block_pos]
        if self._blocks is not None:
            _, t = self.fs.charge_read(self.handle, offset, size, at)
            block = self._blocks[block_pos]
        else:
            raw, t = self.handle.read(offset, size, at=at)
            block = Block.decode(raw)
        t += self.fs.cpu.block_decode_ns
        self.block_cache.put(self.number, block_pos, block, size)
        return block, t

    def get(
        self,
        user_key: bytes,
        at: int,
        sequence_bound: int = MAX_SEQUENCE,
    ) -> Tuple[Optional[Tuple[bool, bytes]], int]:
        """Point lookup of the newest version at or below the bound.

        Returns ``(None, t)`` when nothing visible is in this table,
        ``((True, value), t)`` for a live value, ``((False, b''), t)`` for
        a tombstone.
        """
        t = at + self.fs.cpu.bloom_check_ns
        if not self.bloom.may_contain(user_key):
            return None, t
        target = make_internal_key(user_key, sequence_bound, TYPE_VALUE)
        block_pos = _lower_bound(self.index_keys, target)
        if block_pos >= len(self.index_keys):
            return None, t
        block, t = self._read_block(block_pos, t)
        entry_pos = _lower_bound(block.keys, target)
        t += self.fs.cpu.memtable_lookup_ns  # binary-search cost
        if entry_pos >= len(block.keys):
            # the match may start in the next block (bound skipped past
            # this block's tail versions)
            block_pos += 1
            if block_pos >= len(self.index_keys):
                return None, t
            block, t = self._read_block(block_pos, t)
            entry_pos = 0
        found_user, _, value_type = parse_internal_key(block.keys[entry_pos])
        if found_user != user_key:
            return None, t
        if value_type == TYPE_DELETION:
            return (False, b""), t
        return (True, block.values[entry_pos]), t

    def largest_key(self) -> bytes:
        """Largest internal key (the index's last entry)."""
        if not self.index_keys:
            raise CorruptionError("empty table has no largest key")
        return self.index_keys[-1]

    def smallest_key(self, at: int) -> Tuple[bytes, int]:
        """Smallest internal key (first entry of the first block)."""
        if not self.index_keys:
            raise CorruptionError("empty table has no smallest key")
        block, t = self._read_block(0, at)
        return block.keys[0], t

    def max_sequence(self, at: int) -> Tuple[int, int]:
        """Highest sequence number stored in the table (full scan).

        Used by orphan-table adoption during NobLSM recovery, which must
        restore ``last_sequence`` past every adopted entry.
        """
        entries, t = self.all_entries(at)
        best = 0
        for key, _ in entries:
            _, sequence, _ = parse_internal_key(key)
            if sequence > best:
                best = sequence
        return best, t

    def iterate(self, at: int) -> "TableIterator":
        return TableIterator(self, at)

    def all_blocks(self, at: int) -> Tuple[List[Block], int]:
        """Every data block in order (compaction input)."""
        t = at
        blocks = []
        for pos in range(len(self.spans)):
            block, t = self._read_block(pos, t)
            blocks.append(block)
        return blocks, t

    def all_entries(self, at: int) -> Tuple[List[Tuple[bytes, bytes]], int]:
        """Read the whole table as ``(internal_key, value)`` pairs."""
        blocks, t = self.all_blocks(at)
        entries: List[Tuple[bytes, bytes]] = []
        for block in blocks:
            entries.extend(zip(block.keys, block.values))
        return entries, t


class TableIterator:
    """Forward iterator over one table; blocks are read only when the
    iterator is positioned (lazy, like LevelDB's two-level iterator)."""

    __slots__ = (
        "table", "time", "_block_pos", "_block", "_entry_pos", "_iter_next_ns"
    )

    def __init__(self, table: Table, at: int) -> None:
        self.table = table
        self.time = at
        self._block_pos = -1
        self._block: Optional[Block] = None
        self._entry_pos = 0
        self._iter_next_ns = table.fs.cpu.iter_next_ns

    def seek_to_first(self) -> None:
        self._block_pos = -1
        self._advance_block()

    def _advance_block(self) -> None:
        self._block_pos += 1
        if self._block_pos >= len(self.table.index_keys):
            self._block = None
            return
        self._block, self.time = self.table._read_block(
            self._block_pos, self.time
        )
        self._entry_pos = 0

    @property
    def valid(self) -> bool:
        return self._block is not None

    @property
    def key(self) -> bytes:
        return self._block.keys[self._entry_pos]

    @property
    def value(self) -> bytes:
        return self._block.values[self._entry_pos]

    def seek(self, target: bytes) -> None:
        """Position at the first entry with internal key >= target."""
        keys = self.table.index_keys
        pos = _lower_bound(keys, target)
        if pos >= len(keys):
            self._block = None
            self._block_pos = len(keys)
            return
        self._block_pos = pos - 1
        self._advance_block()
        if self._block is not None:
            self._entry_pos = _lower_bound(self._block.keys, target)
            if self._entry_pos >= len(self._block.keys):
                self._advance_block()

    def next(self) -> None:
        block = self._block
        if block is None:
            raise StopIteration("iterator exhausted")
        self.time += self._iter_next_ns
        pos = self._entry_pos + 1
        self._entry_pos = pos
        if pos >= len(block.keys):
            self._advance_block()
