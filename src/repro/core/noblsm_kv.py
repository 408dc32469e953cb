"""noblsm-kv: NobLSM with WiscKey-style key-value separation.

Keys and small values stay in the LSM; values of at least
``Options.value_threshold`` bytes move to an append-only vLog at flush
time (see :mod:`repro.lsm.vlog` for the stored-value encoding). The
store requires ``value_threshold``; :class:`NobLSM` is the store without
separation.

Durability extends the paper's commit-gated retirement to space
reclamation:

- a minor dump fdatasyncs the dirty vLog segments *before* the L0
  table's own sync, so ordered journal commits guarantee a durable
  table's pointers resolve;
- major-compaction outputs (which may carry freshly relocated pointers)
  stay async: recovery re-validates every referenced table's pointers
  and rolls lost compactions back to their retained shadow predecessors;
- a segment whose live bytes reach zero is *retired*, not deleted: every
  compaction that dropped or relocated references into it contributed
  its output-table, destination-segment and MANIFEST inodes to the
  segment's commit barrier, and the reclaim poll unlinks the segment
  only once ``is_committed`` holds for the whole barrier — the same gate
  NobLSM applies to shadow SSTables.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.noblsm import NobLSM
from repro.fs.stack import StorageStack
from repro.lsm.compaction import Compaction
from repro.lsm.filenames import current_file_name, vlog_file_name
from repro.lsm.format import TYPE_VALUE
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData
from repro.lsm.vlog import (
    INLINE_PREFIX,
    POINTER_PREFIX,
    VLog,
    decode_pointer,
)
from repro.lsm.wal import BatchEntry


class NobLSMKV(NobLSM):
    """The non-blocking LSM-tree with a commit-gated value log."""

    store_name = "noblsm-kv"

    def __init__(
        self,
        stack: StorageStack,
        dbname: str = "db",
        options: Optional[Options] = None,
    ) -> None:
        opts = options if options is not None else Options()
        if opts.value_threshold is None:
            raise ValueError(
                "noblsm-kv needs Options.value_threshold "
                "(use noblsm for a store without a value log)"
            )
        #: (segment, barrier inos) awaiting their commit gate
        self._segment_retirements: List[Tuple[int, List[int]]] = []
        #: per-compaction state (background jobs run host-serially)
        self._gc_set: Optional[FrozenSet[int]] = None
        self._compaction_touched: Set[int] = set()
        self._compaction_dest_inos: Set[int] = set()
        reopened = stack.fs.exists(current_file_name(dbname))
        self.vlog = VLog(
            stack.fs,
            dbname,
            opts.vlog_segment_bytes,
            opts.vlog_gc_garbage_ratio,
            obs=stack.obs,
        )
        # binding the hooks (instance attributes shadowing the DB class
        # defaults) is what switches the shared code paths over
        self._kv_separate = self._separate_value
        self._kv_rewrite = self._rewrite_value
        self._kv_drop = self._drop_value
        self._kv_resolve = self.vlog.resolve
        super().__init__(stack, dbname, options=opts)
        if self._observe:
            self.obs.register_source(f"db.{dbname}.vlog", self.vlog.snapshot)
        if reopened:
            self._rebuild_vlog_accounting(self.stack.now)

    # ------------------------------------------------------------------
    # write path: values carry the inline marker from the start
    # ------------------------------------------------------------------

    def write(self, entries: List[BatchEntry], at: int) -> int:
        entries = [
            (value_type, key, INLINE_PREFIX + value)
            if value_type == TYPE_VALUE
            else (value_type, key, value)
            for value_type, key, value in entries
        ]
        return super().write(entries, at)

    # ------------------------------------------------------------------
    # separation hooks (installed on the shared DB paths)
    # ------------------------------------------------------------------

    def _separate_value(self, stored: bytes, t: int) -> Tuple[bytes, int]:
        """Minor dump: move a large value to the vLog, keep a pointer."""
        if len(stored) - 1 < self.options.value_threshold:
            return stored, t
        return self.vlog.append(stored[1:], t)

    def _drop_value(self, stored: bytes) -> None:
        """Major compaction dropped an entry: its vLog bytes die."""
        if stored[:1] != POINTER_PREFIX:
            return
        segment, _, length = decode_pointer(stored)
        self.vlog.note_dead(segment, length)
        self._compaction_touched.add(segment)

    def _rewrite_value(self, stored: bytes, t: int) -> Tuple[bytes, int]:
        """Major compaction keeps an entry: GC-relocate if garbage-heavy.

        The GC candidate set is frozen at the compaction's first kept
        pointer, so one compaction sees one consistent view of segment
        garbage ratios.
        """
        if stored[:1] != POINTER_PREFIX:
            return stored, t
        if self._gc_set is None:
            self._gc_set = frozenset(self.vlog.gc_candidates())
        segment, offset, length = decode_pointer(stored)
        if segment not in self._gc_set:
            return stored, t
        pointer, t = self.vlog.relocate(segment, offset, length, t)
        self._compaction_touched.add(segment)
        destination = decode_pointer(pointer)[0]
        dest_ino = self.vlog.segment_ino(destination)
        if dest_ino is not None:
            self._compaction_dest_inos.add(dest_ino)
        return pointer, t

    # ------------------------------------------------------------------
    # persistence hooks
    # ------------------------------------------------------------------

    def _prepare_minor_sync(self, at: int) -> int:
        return self.vlog.sync_dirty(at)

    def _dispose_inputs(
        self,
        compaction: Compaction,
        outputs: List[FileMetaData],
        at: int,
    ) -> int:
        t = super()._dispose_inputs(compaction, outputs, at)
        touched = self._compaction_touched
        dest_inos = self._compaction_dest_inos
        self._compaction_touched = set()
        self._compaction_dest_inos = set()
        self._gc_set = None
        if touched:
            # the commit barrier for every segment this compaction
            # dropped or relocated references out of: the tables now
            # holding the surviving pointers, the segments holding the
            # relocated bytes, and the MANIFEST edit that installed them
            barrier = [meta.ino for meta in outputs]
            barrier.extend(sorted(dest_inos))
            manifest = self.versions._manifest
            if manifest is not None:
                barrier.append(manifest.ino)
            for segment in sorted(touched):
                self.vlog.note_barrier(segment, barrier)
            if barrier:
                t = self.syscalls.check_commit(barrier, t)
        return self._register_dead_segments(t)

    def _register_dead_segments(self, at: int) -> int:
        """Move zero-live sealed segments into the retirement queue."""
        t = at
        for segment in self.vlog.dead_segments():
            barrier = self.vlog.take_retirement(segment)
            self._segment_retirements.append((segment, barrier))
            if barrier:
                t = self.syscalls.check_commit(barrier, t)
        return t

    # ------------------------------------------------------------------
    # reclamation: the commit gate, extended to vLog segments
    # ------------------------------------------------------------------

    def _reclaim_pass(self, at: int) -> int:
        # Segment gates are polled BEFORE the shadow pass, and every gate
        # before any segment is unlinked. Ordering matters twice over:
        # unlinking erases an inode's commit record, a barrier table
        # about to be retired as a shadow (or a destination segment about
        # to be reclaimed) is necessarily committed *right now* — its own
        # data journaled no later than the successors that release it —
        # but would read as never-committed one unlink later.
        t = self._register_dead_segments(at)
        passed: List[int] = []
        remaining: List[Tuple[int, List[int]]] = []
        for segment, barrier in self._segment_retirements:
            ok, t = self._retirement_committed(barrier, t)
            if ok:
                passed.append(segment)
            else:
                remaining.append((segment, barrier))
        self._segment_retirements = remaining
        for segment in passed:
            t = self.vlog.reclaim_segment(segment, t)
        return super()._reclaim_pass(t)

    def _retirement_committed(
        self, barrier: List[int], at: int
    ) -> Tuple[bool, int]:
        """The commit gate for one segment retirement.

        Satisfaction is sticky: inos observed committed are pruned from
        the barrier in place, so a requirement once met stays met even if
        the ino's record is later erased (shadow unlink) or re-dirtied
        (the MANIFEST). Kept as a separate seam so the crash matrix's
        mutation test can break exactly this gate and assert the oracle
        catches it.
        """
        t = at
        waiting: List[int] = []
        for ino in barrier:
            ok, t = self.syscalls.is_committed(ino, t)
            if not ok:
                waiting.append(ino)
        barrier[:] = waiting
        return not waiting, t

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _validate_recovered_file(self, meta: FileMetaData) -> bool:
        if not super()._validate_recovered_file(meta):
            return False
        from repro.lsm.format import CorruptionError
        from repro.lsm.sstable import Table
        from repro.lsm.filenames import table_file_name

        # pointer re-validation: a major output's relocated pointers are
        # only as durable as their destination segments, and neither was
        # synced — a table referencing lost vLog bytes must be treated
        # like a lost table and rolled back to its shadow predecessors.
        # The read happens at the current clock and its cost is not
        # billed to recovery, matching the size checks above.
        now = self.stack.now
        try:
            table, t = Table.open(
                self.fs, table_file_name(self.dbname, meta.number), at=now
            )
            entries, _ = table.all_entries(at=t)
        except CorruptionError:
            return False
        return self._pointers_resolve(entries)

    def _orphan_intact(self, table) -> bool:
        entries, _ = table.all_entries(at=self.stack.now)
        return self._pointers_resolve(entries)

    def _pointers_resolve(self, entries) -> bool:
        """Every pointer lands inside an existing segment's byte range."""
        fs = self.fs
        for internal_key, value in entries:
            if internal_key[-8] != TYPE_VALUE or value[:1] != POINTER_PREFIX:
                continue
            segment, offset, length = decode_pointer(value)
            path = vlog_file_name(self.dbname, segment)
            if not fs.exists(path) or offset + length > fs.stat_size(path):
                return False
        return True

    def _rebuild_vlog_accounting(self, at: int) -> int:
        """Reopen: recount live bytes from the recovered version.

        The recovered version is ground truth — tables it dropped were
        already deleted and shadow tracking did not survive — so any
        segment no live table references can never be referenced again
        and is dropped immediately, commit gate not required.
        """
        t = at
        live: Dict[int, int] = {}
        for files in self.versions.current.files:
            for meta in files:
                if meta.shadow:
                    continue
                table, t = self.table_cache.get_table(meta.number, at=t)
                entries, t = table.all_entries(at=t)
                for internal_key, value in entries:
                    if (
                        internal_key[-8] == TYPE_VALUE
                        and value[:1] == POINTER_PREFIX
                    ):
                        segment, _, length = decode_pointer(value)
                        live[segment] = live.get(segment, 0) + length
        self.vlog.reset_live(live)
        self._segment_retirements = []
        for segment in self.vlog.dead_segments():
            self.vlog.take_retirement(segment)
            t = self.vlog.reclaim_segment(segment, t)
        return t

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pending_segment_retirements(self) -> List[Tuple[int, List[int]]]:
        """Segments whose reclaim gate has not passed yet (tests)."""
        return list(self._segment_retirements)

    def describe(self) -> Dict[str, object]:
        doc = super().describe()
        doc["vlog"] = self.vlog.snapshot()
        return doc
