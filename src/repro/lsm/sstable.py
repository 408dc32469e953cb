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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fs.ext4 import Ext4, File
from repro.lsm.block import Block, BlockBuilder
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


class BuiltTable:
    """A finished table as its builder left it: decoded parts and layout.

    Both the file's deferred extent (through :meth:`encode`) and the
    owning store's table cache hold one of these; neither copies it.
    """

    __slots__ = ("blocks", "index", "bloom", "bloom_offset", "index_size")

    def __init__(
        self,
        blocks: List[Block],
        index: Block,
        bloom: BloomFilter,
        bloom_offset: int,
        index_size: int,
    ) -> None:
        self.blocks = blocks
        self.index = index
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
        parts.append(self.index.encode())
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

    After :meth:`finish`, :attr:`built` is the hand-off record for the
    store's table cache.
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
        self._block = BlockBuilder()
        self._index = BlockBuilder()
        self._block_size_limit = options.block_size
        self._blocks: List[Block] = []  # completed data blocks
        self._offset = 0
        self.num_entries = 0
        self.smallest: Optional[bytes] = None
        self.largest: Optional[bytes] = None
        self._last_user: Optional[bytes] = None
        self._last_tag = 0
        self.finished = False
        self.built: Optional[BuiltTable] = None

    @property
    def current_size(self) -> int:
        return self._offset + self._block.size_estimate

    def add(self, internal_key: bytes, value: bytes) -> None:
        if self.finished:
            raise RuntimeError("builder already finished")
        # ordering check, internal_compare inlined against the cached
        # (user, tag) of the previous entry: user asc, tag (seq) desc
        user = internal_key[:-8]
        tag = int.from_bytes(internal_key[-8:], "little")
        last_user = self._last_user
        if last_user is not None and (
            user < last_user or (user == last_user and tag >= self._last_tag)
        ):
            raise ValueError("table entries must be strictly increasing")
        self._last_user = user
        self._last_tag = tag
        if self.smallest is None:
            self.smallest = internal_key
        self.largest = internal_key
        self.num_entries += 1
        if self._block.add(internal_key, value) >= self._block_size_limit:
            self._cut_block()

    def _cut_block(self) -> None:
        if self._block.empty:
            return
        size = self._block.size_estimate
        block = self._block.finish()
        self._blocks.append(block)
        self._index.add(
            block.keys[-1], put_fixed64(self._offset) + put_fixed64(size)
        )
        self._offset += size

    def finish(self, at: int) -> Tuple[int, int]:
        """Write everything out; returns (file_size, completion_time).

        "Writes" a deferred extent: the layout is known from sizes alone
        (varint lengths, the filter's bit count), so no block is encoded
        and no key hashed here.
        """
        if self.finished:
            raise RuntimeError("builder already finished")
        self.finished = True
        self._cut_block()
        blocks = self._blocks
        bloom = BloomFilter.deferred(
            self.num_entries,
            self.options.bloom_bits_per_key,
            lambda: (key[:-8] for block in blocks for key in block.keys),
        )
        index_size = self._index.size_estimate
        built = self.built = BuiltTable(
            blocks, self._index.finish(), bloom, self._offset, index_size
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
    table falls back to a private unbounded dict (unit-test convenience).

    ``blocks`` is a hand-off record's decoded data blocks: with it, a
    block "read" charges the read and takes the block from the list.
    """

    def __init__(
        self,
        fs: Ext4,
        handle: File,
        index: Block,
        bloom: BloomFilter,
        file_size: int,
        block_cache=None,
        number: int = -1,
        blocks: Optional[List[Block]] = None,
    ) -> None:
        self.fs = fs
        self.handle = handle
        self.index = index
        self.bloom = bloom
        self.file_size = file_size
        self.number = number
        self._blocks = blocks
        self.shared_cache = block_cache
        self._block_cache: Dict[int, Block] = {}
        # (offset, size) per data block, parsed once instead of two
        # get_fixed64 calls on every _read_block
        self._spans: List[Tuple[int, int]] = [
            (get_fixed64(v, 0), get_fixed64(v, 8)) for v in index.values
        ]

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
            index, bloom, blocks = built.index, built.bloom, built.blocks
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
            bloom = BloomFilter.decode(bloom_bytes)
            blocks = None
        t += fs.cpu.block_decode_ns
        return cls(
            fs, handle, index, bloom, size,
            block_cache=block_cache, number=number, blocks=blocks,
        ), t

    def _read_block(self, block_pos: int, at: int) -> Tuple[Block, int]:
        if self.shared_cache is not None:
            cached = self.shared_cache.get(self.number, block_pos)
        else:
            cached = self._block_cache.get(block_pos)
        if cached is not None:
            return cached, at
        offset, size = self._spans[block_pos]
        if self._blocks is not None:
            _, t = self.handle.charge_read(offset, size, at=at)
            block = self._blocks[block_pos]
        else:
            raw, t = self.handle.read(offset, size, at=at)
            block = Block.decode(raw)
        t += self.fs.cpu.block_decode_ns
        if self.shared_cache is not None:
            self.shared_cache.put(self.number, block_pos, block, size)
        else:
            self._block_cache[block_pos] = block
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
        block_pos = _lower_bound(self.index.keys, target)
        if block_pos >= len(self.index.keys):
            return None, t
        block, t = self._read_block(block_pos, t)
        entry_pos = _lower_bound(block.keys, target)
        t += self.fs.cpu.memtable_lookup_ns  # binary-search cost
        if entry_pos >= len(block.keys):
            # the match may start in the next block (bound skipped past
            # this block's tail versions)
            block_pos += 1
            if block_pos >= len(self.index.keys):
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
        if not self.index.keys:
            raise CorruptionError("empty table has no largest key")
        return self.index.keys[-1]

    def smallest_key(self, at: int) -> Tuple[bytes, int]:
        """Smallest internal key (first entry of the first block)."""
        if not self.index.keys:
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

    def all_entries(self, at: int) -> Tuple[List[Tuple[bytes, bytes]], int]:
        """Read the whole table (compaction input)."""
        entries: List[Tuple[bytes, bytes]] = []
        t = at
        for pos in range(len(self.index.keys)):
            block, t = self._read_block(pos, t)
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
        if self._block_pos >= len(self.table.index.keys):
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
        keys = self.table.index.keys
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
