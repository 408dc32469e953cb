"""Cache of open SSTable readers, keyed by file number."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

from repro.fs.ext4 import Ext4
from repro.lsm.blockcache import BlockCache
from repro.lsm.filenames import table_file_name
from repro.lsm.sstable import BuiltTable, Table


class TableCache:
    """LRU of open :class:`Table` readers (LevelDB's max_open_files).

    All tables opened through one cache share one bounded
    :class:`BlockCache` (LevelDB's options.block_cache).

    The cache also keeps the store's *hand-off records*: the
    :class:`BuiltTable` of every table this store built itself, so that
    opening one charges the reads without parsing bytes the same process
    just laid out. A record belongs to this cache alone (file numbers
    mean nothing across stores), is dropped by :meth:`evict` with the
    file, and dies with the store — a reopened or recovered ``DB`` has
    none and parses real bytes.
    """

    def __init__(
        self,
        fs: Ext4,
        dbname: str,
        capacity: int = 1000,
        block_cache_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.fs = fs
        self.dbname = dbname
        self.capacity = capacity
        self.block_cache = BlockCache(block_cache_bytes)
        self._tables: "OrderedDict[int, Table]" = OrderedDict()
        self._built: Dict[int, BuiltTable] = {}
        self.opens = 0

    def adopt(self, number: int, built: BuiltTable) -> None:
        """Take the hand-off record of table ``number`` from its builder."""
        self._built[number] = built

    def get_table(self, number: int, at: int) -> Tuple[Table, int]:
        table = self._tables.get(number)
        if table is not None:
            self._tables.move_to_end(number)
            return table, at
        table, t = Table.open(
            self.fs,
            table_file_name(self.dbname, number),
            at,
            block_cache=self.block_cache,
            number=number,
            built=self._built.get(number),
        )
        self.opens += 1
        self._tables[number] = table
        while len(self._tables) > self.capacity:
            self._tables.popitem(last=False)
        return table, t

    def evict(self, number: int) -> None:
        self._tables.pop(number, None)
        self._built.pop(number, None)
        self.block_cache.evict_table(number)

    def clear(self) -> None:
        self._tables.clear()
        self.block_cache.clear()
