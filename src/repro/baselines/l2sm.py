"""L2SM-like store: log-assisted hot/cold separation (ICDE '21).

L2SM ("Less is more: de-amplifying I/Os for key-value stores with a
log-assisted LSM-tree") keeps frequently-updated (hot) KV pairs out of
the main LSM-tree: they live in append-only logs with an in-memory
index, so repeated updates never ride through compactions. Cold data
takes LevelDB's normal path. Under skewed updates this de-amplifies
write I/O; under uniform workloads it behaves like LevelDB (Table 1
shows nearly identical sync counts/volumes).

Behavioural model:

- an update-frequency map decides, at memtable-dump time, which entries
  are hot (seen >= HOT_THRESHOLD times recently);
- hot entries go to a hot log (synced once per dump, preserving the
  same crash guarantee as an L0 table) indexed in memory;
- when the hot log outgrows its budget it is garbage-collected: still-hot
  entries move to a fresh log, the rest are demoted into the main tree
  as a regular SSTable;
- reads check memtable -> hot index -> levels (``DB.get`` probes the
  hot index through the ``_hot_get`` hook); scans merge the hot entries
  in.

Invariant: the hot index always holds the globally newest version of its
keys (dumping a key through the cold path removes any staler hot entry),
so reads and demotions stay correct under any interleaving.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fs.stack import StorageStack
from repro.lsm.db import DB
from repro.lsm.format import TYPE_DELETION
from repro.lsm.iterator import MemTableIterator
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.wal import LogReader, LogWriter

#: a key is hot once it has been dumped this many times recently
HOT_THRESHOLD = 2
#: hot log budget, as a multiple of the write buffer
HOT_LOG_BUDGET_FACTOR = 4
#: decay the frequency map once it holds this many keys
FREQ_MAP_LIMIT = 100_000


class _HotEntry:
    __slots__ = ("sequence", "value_type", "value")

    def __init__(self, sequence: int, value_type: int, value: bytes) -> None:
        self.sequence = sequence
        self.value_type = value_type
        self.value = value


class L2SMLike(DB):
    """Hot/cold-separated LSM-tree with a log-assisted hot store."""

    store_name = "l2sm"

    def __init__(
        self,
        stack: StorageStack,
        dbname: str = "db",
        options: Optional[Options] = None,
    ) -> None:
        options = options if options is not None else Options()
        options.sync.sync_minor = True
        options.sync.sync_major = True
        options.sync.sync_manifest = True
        self._freq: Dict[bytes, int] = {}
        self._hot_index: Dict[bytes, _HotEntry] = {}
        self._hot_log: Optional[LogWriter] = None
        self._hot_log_seq = 0
        self._hot_bytes = 0
        self.hot_dumps = 0
        self.hot_gcs = 0
        self.demoted_keys = 0
        super().__init__(stack, dbname, options=options)
        self._recover_hot_logs(stack.now)

    # ------------------------------------------------------------------
    # hot log plumbing
    # ------------------------------------------------------------------

    def _hot_log_path(self, seq: int) -> str:
        return f"{self.dbname}/hot-{seq:06d}.hlog"

    def _hot_budget(self) -> int:
        return HOT_LOG_BUDGET_FACTOR * self.options.write_buffer_size

    def _open_hot_log(self, at: int) -> int:
        self._hot_log_seq += 1
        handle, t = self.fs.create(self._hot_log_path(self._hot_log_seq), at=at)
        self._hot_log = LogWriter(handle)
        return t

    def _recover_hot_logs(self, at: int) -> None:
        """Rebuild the hot index by replaying surviving hot logs."""
        t = at
        paths = [
            path
            for path in self.fs.list_dir(self.dbname + "/")
            if path.endswith(".hlog")
        ]
        for path in sorted(paths):
            handle, t = self.fs.open(path, at=t)
            reader = LogReader(handle)
            for sequence, entries in reader.records(at=t):
                for offset, (value_type, key, value) in enumerate(entries):
                    self._note_hot(key, sequence + offset, value_type, value)
            seq = int(path.rsplit("-", 1)[1].split(".")[0])
            self._hot_log_seq = max(self._hot_log_seq, seq)
            self._hot_bytes += handle.size

    def _note_hot(
        self, key: bytes, sequence: int, value_type: int, value: bytes
    ) -> None:
        existing = self._hot_index.get(key)
        if existing is None or existing.sequence <= sequence:
            self._hot_index[key] = _HotEntry(sequence, value_type, value)

    # ------------------------------------------------------------------
    # dump path: split hot from cold
    # ------------------------------------------------------------------

    def _compact_memtable(self, imm: MemTable, at: int) -> int:
        if imm.empty:
            return at
        hot: List[Tuple[bytes, int, int, bytes]] = []
        cold = MemTable()
        for user_key, sequence, value_type, value in imm.sorted_entries():
            count = self._freq.get(user_key, 0) + 1
            self._freq[user_key] = count
            if count >= HOT_THRESHOLD:
                hot.append((user_key, sequence, value_type, value))
            else:
                cold.add(sequence, value_type, user_key, value)
        if len(self._freq) > FREQ_MAP_LIMIT:
            self._freq = {
                key: count // 2
                for key, count in self._freq.items()
                if count > 1
            }
        t = at
        if hot:
            t = self._dump_hot(hot, t)
        if not cold.empty:
            for user_key, _, _, _ in cold.sorted_entries():
                stale = self._hot_index.get(user_key)
                if stale is not None:
                    del self._hot_index[user_key]
            t = super()._compact_memtable(cold, t)
        return t

    def _dump_hot(
        self, entries: List[Tuple[bytes, int, int, bytes]], at: int
    ) -> int:
        self.hot_dumps += 1
        t = at
        if self._hot_log is None:
            t = self._open_hot_log(t)
        sequence = entries[0][1]
        batch = [
            (value_type, key, value)
            for key, _, value_type, value in entries
        ]
        t = self._hot_log.add_record(sequence, batch, at=t)
        t = self._hot_log.handle.fsync(at=t, reason="minor")
        for key, seq, value_type, value in entries:
            self._note_hot(key, seq, value_type, value)
            self._hot_bytes += len(key) + len(value) + 16
        if self._hot_bytes > self._hot_budget():
            t = self._gc_hot_log(t)
        return t

    def _gc_hot_log(self, at: int) -> int:
        """Rewrite live hot entries; demote cooled keys to the main tree."""
        self.hot_gcs += 1
        t = at
        still_hot: List[Tuple[bytes, _HotEntry]] = []
        demote: List[Tuple[bytes, _HotEntry]] = []
        for key in sorted(self._hot_index):
            entry = self._hot_index[key]
            if self._freq.get(key, 0) >= HOT_THRESHOLD:
                still_hot.append((key, entry))
            else:
                demote.append((key, entry))
        # demote cooled entries as a regular SSTable
        if demote:
            self.demoted_keys += len(demote)
            demoted = MemTable()
            for key, entry in demote:
                demoted.add(entry.sequence, entry.value_type, key, entry.value)
                del self._hot_index[key]
            t = super()._compact_memtable(demoted, t)
        # rewrite survivors into a fresh log
        old_paths = [
            path
            for path in self.fs.list_dir(self.dbname + "/")
            if path.endswith(".hlog")
        ]
        t = self._open_hot_log(t)
        self._hot_bytes = 0
        if still_hot:
            batch = [
                (entry.value_type, key, entry.value)
                for key, entry in still_hot
            ]
            t = self._hot_log.add_record(still_hot[0][1].sequence, batch, at=t)
            t = self._hot_log.handle.fsync(at=t, reason="minor")
            for key, entry in still_hot:
                self._hot_bytes += len(key) + len(entry.value) + 16
        for path in old_paths:
            if path != self._hot_log.handle.path and self.fs.exists(path):
                t = self.fs.unlink(path, at=t)
        # decay frequencies so heat is recent, not historical
        self._freq = {
            key: count // 2 for key, count in self._freq.items() if count > 1
        }
        return t

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def _hot_get(
        self, key: bytes, bound: Optional[int]
    ) -> Optional[Tuple[bool, bytes]]:
        """The hot index's answer for ``DB.get`` (memtables missed)."""
        entry = self._hot_index.get(key)
        if entry is None or (bound is not None and entry.sequence > bound):
            return None
        return entry.value_type != TYPE_DELETION, entry.value

    def _iterator_sources(self, at: int):
        """Merge the hot store into the normal iterator sources."""
        hot = MemTable()
        for key, entry in self._hot_index.items():
            hot.add(entry.sequence, entry.value_type, key, entry.value)
        sources = super()._iterator_sources(at)
        sources.append(MemTableIterator(hot, at))
        return sources
