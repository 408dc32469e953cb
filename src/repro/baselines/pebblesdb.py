"""PebblesDB-like store: a fragmented LSM-tree (FLSM) with guards.

PebblesDB (SOSP '17) divides each level into non-overlapping key ranges
bounded by *guards*. A compaction of level n partitions its merged
entries by level n+1's guards and appends the pieces as new files —
without rewriting the files already inside each guard. A KV pair is thus
written once per level, cutting write amplification; the price is that
files *within* a guard overlap, so reads probe several files per level.
A guard is fully merged (its files rewritten) only when it accumulates
too many files.

This subclass implements those mechanics on the shared substrate:

- per-level guard keys, grown from sampled compaction output keys;
- a custom major compaction that appends guard partitions and only
  merges overfull guards;
- a read path that probes every overlapping file in a level,
  newest first.

Sync policy is stock LevelDB's (every new table + manifest), as in the
paper: PebblesDB lowers sync *volume* through lower write amplification
(Table 1: 42.61 GB vs LevelDB's 61.55 GB) but keeps syncs on the
critical path.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.fs.stack import StorageStack
from repro.lsm.compaction import Compaction
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData

#: merge (rewrite) a guard once it holds this many files; FLSM tolerates
#: several overlapping files per guard before paying a rewrite
GUARD_MERGE_THRESHOLD = 8

#: per-write CPU of the fragmented write path (guard routing, the extra
#: memtable/guard bookkeeping PebblesDB layers over LevelDB). PebblesDB
#: trades CPU for I/O: it syncs ~30% less data than LevelDB (Table 1)
#: yet the paper measures it slower on the write workloads (Fig. 4a/5a)
#: — this constant is calibrated to that observation.
WRITE_PATH_OVERHEAD_NS = 4_000
#: extra per-entry compaction CPU (guard bisect + partition append)
PARTITION_ENTRY_NS = 350


def pebblesdb_options(base: Optional[Options] = None) -> Options:
    options = base if base is not None else Options()
    options.sync.sync_minor = True
    options.sync.sync_major = True
    options.sync.sync_manifest = True
    options.seek_compaction = False  # FLSM relies on size triggers
    return options


class PebblesDBLike(DB):
    """Fragmented LSM-tree with per-level guards."""

    store_name = "pebblesdb"

    def __init__(
        self,
        stack: StorageStack,
        dbname: str = "db",
        options: Optional[Options] = None,
    ) -> None:
        #: level -> sorted guard keys (range i is [guard[i-1], guard[i]))
        self._guards: Dict[int, List[bytes]] = {}
        self.guard_merges = 0
        self.guard_appends = 0
        super().__init__(stack, dbname, options=pebblesdb_options(options))

    def write(self, entries, at):
        return super().write(entries, at + WRITE_PATH_OVERHEAD_NS)

    # ------------------------------------------------------------------
    # read path: every overlapping file per level, newest first
    # ------------------------------------------------------------------

    def _files_for_get(self, key: bytes) -> List[Tuple[int, FileMetaData]]:
        return [
            (level, meta)
            for level, files in enumerate(self.versions.current.files)
            for meta in self._newest_first(files)
            if meta.smallest[:-8] <= key <= meta.largest[:-8]
        ]

    def _table_sources(self, at: int) -> List[object]:
        """FLSM levels overlap, so scans need one source per file."""
        sources: List[object] = []
        t = at
        for files in self.versions.current.files:
            for meta in self._newest_first(files):
                table, t = self.table_cache.get_table(meta.number, at=t)
                sources.append(table.iterate(t))
        return sources

    # ------------------------------------------------------------------
    # guards
    # ------------------------------------------------------------------

    def _guard_target(self, level: int) -> int:
        """Guards sized so a guard's files stay around ``max_file_size``.

        PebblesDB samples guards so that guard granularity tracks level
        capacity; tying the target to capacity / file size keeps output
        partitions at sensible file sizes instead of exploding a level
        into per-guard slivers.
        """
        capacity = self.options.max_bytes_for_level(max(level, 1))
        return max(2, int(capacity / (2 * self.options.max_file_size)))

    def _ensure_guards(self, level: int, sample_keys: List[bytes]) -> List[bytes]:
        """Grow the guard set of a level from sampled user keys."""
        guards = self._guards.setdefault(level, [])
        target = self._guard_target(level)
        if len(guards) >= target or not sample_keys:
            return guards
        want = target - len(guards)
        stride = max(len(sample_keys) // (want + 1), 1)
        for pos in range(stride, len(sample_keys), stride):
            key = sample_keys[pos]
            idx = bisect.bisect_left(guards, key)
            if idx >= len(guards) or guards[idx] != key:
                guards.insert(idx, key)
            if len(guards) >= target:
                break
        return guards

    def _partition(self, guards: List[bytes], entries: list) -> List[list]:
        """Split decorated entries (see ``DB._read_sorted``) by guard."""
        buckets: List[list] = [[] for _ in range(len(guards) + 1)]
        for entry in entries:
            buckets[bisect.bisect_right(guards, entry[0])].append(entry)
        return buckets

    def _guard_range_files(
        self, level: int, lo: Optional[bytes], hi: Optional[bytes]
    ) -> List[FileMetaData]:
        """Files of ``level`` fully inside the guard range [lo, hi)."""
        files = []
        for meta in self.versions.current.files[level]:
            begin, end = meta.user_range()
            if lo is not None and begin < lo:
                continue
            if hi is not None and end >= hi:
                continue
            files.append(meta)
        return files

    # ------------------------------------------------------------------
    # FLSM compaction
    # ------------------------------------------------------------------

    def _pick_size_compaction(self) -> Optional[Compaction]:
        """Pick a whole guard's worth of overlapping same-level files.

        FLSM levels overlap, so compacting a subset of an overlap cluster
        could let an older version at level n shadow a newer one pushed to
        level n+1. Inputs therefore expand to a fixed point within the
        level (the way LevelDB expands level-0 inputs).
        """
        level, _ = self.versions.pick_compaction_level()
        if level is None:
            return None
        version = self.versions.current
        files = version.files[level]
        if not files:
            return None
        pointer = self.versions.compact_pointer.get(level)
        seed = None
        for meta in files:
            if pointer is None or meta.largest[:-8] > pointer:
                seed = meta
                break
        if seed is None:
            seed = files[0]
        # expand to a fixed point among the level's overlapping files
        inputs = [seed]
        changed = True
        while changed:
            changed = False
            lo = min(f.smallest[:-8] for f in inputs)
            hi = max(f.largest[:-8] for f in inputs)
            chosen = {f.number for f in inputs}
            for meta in files:
                if meta.number in chosen:
                    continue
                begin, end = meta.user_range()
                if end >= lo and begin <= hi:
                    inputs.append(meta)
                    changed = True
        self.versions.compact_pointer[level] = max(
            f.largest[:-8] for f in inputs
        )
        return Compaction(level=level, inputs=inputs, overlaps=[])

    def _major_compaction_work(self, compaction: Compaction, at: int) -> int:
        """Partition level-n data into level-(n+1) guards; append, don't merge.

        The level n+1 files LevelDB would have merged (compaction.overlaps)
        are left untouched unless their guard is overfull.
        """
        span = self._start_major(compaction, at)
        output_level = compaction.output_level
        entries, t = self._read_sorted(compaction.inputs, at)
        self.stats.bytes_compacted_in += sum(
            f.file_size for f in compaction.inputs
        )
        t += len(entries) * (self.cpu.merge_entry_ns + PARTITION_ENTRY_NS)

        guards = self._ensure_guards(
            output_level, [entry[0] for entry in entries]
        )
        outputs: List[FileMetaData] = []
        merged_away: List[FileMetaData] = []

        # One builder is shared across adjacent append-only buckets so a
        # sliver per guard does not become a file per guard; it is cut at
        # a guard boundary once it reaches half the target file size, and
        # always flushed around a guard merge.
        builder = None
        for idx, bucket in enumerate(self._partition(guards, entries)):
            if not bucket:
                continue
            lo = guards[idx - 1] if idx > 0 else None
            hi = guards[idx] if idx < len(guards) else None
            resident = self._guard_range_files(output_level, lo, hi)
            if len(resident) + 1 > GUARD_MERGE_THRESHOLD:
                # guard overfull: full merge of the guard's files + bucket
                if builder is not None:
                    builder, t = self._finish_output(builder, outputs, t)
                self.guard_merges += 1
                resident_entries, t = self._read_sorted(resident, t)
                merged_away.extend(resident)
                self.stats.bytes_compacted_in += sum(
                    f.file_size for f in resident
                )
                bucket.extend(resident_entries)
                bucket.sort()
                t += len(bucket) * self.cpu.merge_entry_ns
                drop_tombstones = output_level >= self._deepest_level()
                builder, t = self._write_merged(
                    bucket, drop_tombstones, outputs, t
                )
                if builder is not None:
                    builder, t = self._finish_output(builder, outputs, t)
            else:
                self.guard_appends += 1
                if (
                    builder is not None
                    and builder.current_size >= self.options.max_file_size // 2
                ):
                    builder, t = self._finish_output(builder, outputs, t)
                builder, t = self._write_merged(
                    bucket, False, outputs, t, builder
                )
        if builder is not None:
            builder, t = self._finish_output(builder, outputs, t)
        disposed = Compaction(
            level=compaction.level,
            inputs=list(compaction.inputs),
            overlaps=merged_away,
        )
        return self._install_major(disposed, outputs, span, t)

    def _deepest_level(self) -> int:
        deepest = 0
        for level in range(self.options.num_levels):
            if self.versions.current.files[level]:
                deepest = level
        return deepest
