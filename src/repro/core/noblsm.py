"""NobLSM: the paper's store (Section 4).

NobLSM changes LevelDB in exactly the places the paper patches (~200
LoC): major-compaction outputs are *not* synced — the store records their
inodes with the ``check_commit`` syscall and lets Ext4's asynchronous
journal commits persist them; compacted input SSTables become *shadow*
files, excluded from reads but retained on the SSD until every successor
is committed; a 5-second reclamation poll (matching Ext4's commit
interval) queries ``is_committed`` and deletes reclaimable shadows. The
MANIFEST is likewise left to asynchronous commits — the single remaining
sync is the L0 SSTable fsync in a minor compaction, so each KV pair is
synced exactly once.

Crash consistency falls out of Ext4's ordered journaling: a durable
MANIFEST prefix can only reference SSTables whose data committed in the
same or an earlier transaction, and shadows are deleted only after their
successors' transaction committed — so recovery always finds a complete,
consistent version (Section 4.4).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.dependency import DependencyTracker, SSTableRef
from repro.fs.stack import StorageStack
from repro.lsm.compaction import Compaction
from repro.lsm.db import DB
from repro.lsm.filenames import parse_file_name, table_file_name
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData


def noblsm_options(base: Optional[Options] = None) -> Options:
    """The sync policy NobLSM runs with (on top of any base tuning).

    KV pairs are synced once (the L0 fdatasync at minor compactions);
    everything else — major-compaction outputs *and* the MANIFEST — is
    left to Ext4's asynchronous commits, matching Table 1's ~160 syncs.
    Crash consistency is preserved by three NobLSM-side mechanisms:

    - recovery validates every MANIFEST-referenced table and rolls lost
      compactions back to their retained predecessors
      (:meth:`NobLSM._validate_recovered_file`);
    - recovery adopts intact orphan L0 tables whose sequence numbers
      exceed the recovered MANIFEST's — an fdatasync'd L0 table whose
      version edit was lost with the volatile MANIFEST tail
      (:meth:`NobLSM._adopt_orphan_tables`);
    - shadow reclamation additionally waits for the MANIFEST inode to
      commit (a ``check_commit`` barrier), so predecessors are never
      durably deleted before the edit that removes them is durable.
    """
    options = base if base is not None else Options()
    options.sync.sync_minor = True  # the one sync per KV pair
    options.sync.sync_major = False
    options.sync.sync_manifest = False
    options.sync.nob_commit = True
    return options


class NobLSM(DB):
    """The non-blocking LSM-tree."""

    store_name = "noblsm"

    def __init__(
        self,
        stack: StorageStack,
        dbname: str = "db",
        options: Optional[Options] = None,
    ) -> None:
        self.tracker = DependencyTracker()
        self.syscalls = stack.syscalls
        self.reclaim_runs = 0
        self.shadows_deleted = 0
        self._reclaim_timer = None
        self._reclaiming = False
        super().__init__(stack, dbname, options=noblsm_options(options))
        self._arm_reclaim_timer()

    # ------------------------------------------------------------------
    # persistence hooks
    # ------------------------------------------------------------------

    def _persist_major_outputs(
        self, outputs: List[FileMetaData], at: int
    ) -> int:
        """No syncs: ask Ext4 to track the new SSTables' inodes instead."""
        if not outputs:
            return at
        return self.syscalls.check_commit([meta.ino for meta in outputs], at)

    def _dispose_inputs(
        self,
        compaction: Compaction,
        outputs: List[FileMetaData],
        at: int,
    ) -> int:
        """Retain inputs as shadow backups until successors commit."""
        if not outputs:
            # Everything was dropped (all tombstones): nothing new to wait
            # for, the inputs are obsolete the moment the edit commits.
            # Retaining them costs nothing, but without successors there
            # is no commit to wait on, so fall back to LevelDB behaviour.
            return super()._dispose_inputs(compaction, outputs, at)
        predecessors = [
            SSTableRef(
                number=meta.number,
                ino=meta.ino,
                path=table_file_name(self.dbname, meta.number),
            )
            for meta in compaction.all_inputs
        ]
        successors = [
            SSTableRef(
                number=meta.number,
                ino=meta.ino,
                path=table_file_name(self.dbname, meta.number),
            )
            for meta in outputs
        ]
        for meta in compaction.all_inputs:
            meta.shadow = True
        manifest = self.versions._manifest
        barrier = [manifest.ino] if manifest is not None else []
        self.tracker.register(predecessors, successors, barrier_inos=barrier)
        # (Re-)track the manifest inode: its entry returns to Pending
        # while the freshly appended edit is still volatile, and moves to
        # Committed once the edit's transaction commits.
        return self.syscalls.check_commit(barrier, at)

    def _protected_table_numbers(self) -> Set[int]:
        return self.tracker.shadow_numbers()

    def _recovery_validator(self):
        return self._validate_recovered_file

    def _adopt_orphan_tables(self, at: int) -> int:
        """Rescue fdatasync'd L0 tables whose version edit was lost.

        NobLSM does not sync the MANIFEST, so a crash can lose the tail
        of edits — including a minor compaction's — while the L0 table it
        added is durable on disk (it was fdatasync'd) and the WAL behind
        it may already be gone. Any intact orphan table whose sequence
        numbers exceed the recovered ``last_sequence`` holds strictly
        newer data than everything the MANIFEST references (edits record
        ``last_sequence`` monotonically and durably as a prefix), so it
        is adopted back into level 0. Retained shadow predecessors can
        never qualify: their entries' sequences are covered by earlier,
        durable edits.
        """
        from repro.lsm.sstable import Table
        from repro.lsm.format import CorruptionError
        from repro.lsm.version import VersionEdit

        t = at
        live = set(self.versions.current.all_file_numbers())
        adopted = []
        for path in self.fs.list_dir(self.dbname + "/"):
            kind, number = parse_file_name(self.dbname, path)
            if kind != "table" or number in live:
                continue
            try:
                table, t = Table.open(self.fs, path, at=t)
            except CorruptionError:
                continue  # volatile tail lost in the crash: not durable
            if not table.index_keys:
                continue
            if not self._orphan_intact(table):
                continue
            max_seq, t = table.max_sequence(t)
            if max_seq <= self.versions.last_sequence:
                continue  # a shadow or an already-covered output
            smallest, t = table.smallest_key(t)
            handle, t = self.fs.open(path, at=t)
            adopted.append(
                (
                    max_seq,
                    FileMetaData(
                        number=number,
                        file_size=handle.size,
                        smallest=smallest,
                        largest=table.largest_key(),
                        ino=handle.ino,
                    ),
                )
            )
        if not adopted:
            return t
        adopted.sort(key=lambda pair: pair[0])
        edit = VersionEdit()
        for max_seq, meta in adopted:
            edit.add_file(0, meta)
            if max_seq > self.versions.last_sequence:
                self.versions.last_sequence = max_seq
            if meta.number >= self.versions.next_file_number:
                self.versions.next_file_number = meta.number + 1
        self.stats.extras["adopted_orphans"] = (
            self.stats.extras.get("adopted_orphans", 0) + len(adopted)
        )
        return self.versions.log_and_apply(edit, t)

    def _orphan_intact(self, table) -> bool:
        """Hook: content-level orphan checks (noblsm-kv: vLog pointers)."""
        return True

    def _validate_recovered_file(self, meta: FileMetaData) -> bool:
        """Did this MANIFEST-referenced SSTable survive the crash intact?

        A table whose journal transaction never committed is missing or
        truncated after a power failure; the recovered version must then
        fall back to the retained predecessors (Section 4.4).
        """
        path = table_file_name(self.dbname, meta.number)
        if not self.fs.exists(path):
            return False
        return self.fs.stat_size(path) == meta.file_size

    # ------------------------------------------------------------------
    # reclamation (Section 4.3)
    # ------------------------------------------------------------------

    def _arm_reclaim_timer(self) -> None:
        self._reclaim_timer = self.events.schedule_after(
            self.options.reclaim_interval_ns, self._reclaim_tick
        )

    def _reclaim_tick(self, when: int) -> None:
        if self.closed:
            return
        self.reclaim(when)
        self._arm_reclaim_timer()

    def reclaim(self, at: int) -> int:
        """Poll ``is_committed`` and delete reclaimable shadows.

        A pass polls and unlinks through the file system, which fires due
        timers — the reclaim timer among them — so a direct call with
        ``at`` past the next tick would re-enter itself and delete a
        shadow twice. A call made while a pass is running returns at
        once; the running pass does its work.
        """
        if self._reclaiming:
            return at
        self._reclaiming = True
        try:
            return self._reclaim_pass(at)
        finally:
            self._reclaiming = False

    def _reclaim_pass(self, at: int) -> int:
        self.reclaim_runs += 1
        t = at

        def committed(ino: int) -> bool:
            nonlocal t
            ok, t = self.syscalls.is_committed(ino, t)
            return ok

        self.tracker.resolve(committed)
        for group in self.tracker.reclaimable():
            span = None
            if self._tracer is not None:
                span = self.obs.start_span(
                    "db.retire",
                    t,
                    group=group.group_id,
                    predecessors=len(group.predecessors),
                    successors=len(group.successors),
                )
                # close the causal chain: the commits that made the
                # successors durable flow into this retirement
                for ref in group.successors:
                    commit_span = self._tracer.commit_span_of(ref.ino)
                    if commit_span is not None:
                        self._tracer.link(commit_span, span, name="retire")
            for ref in group.predecessors:
                self.table_cache.evict(ref.number)
                if self.fs.exists(ref.path):
                    t = self.fs.unlink(ref.path, at=t)
                    self.shadows_deleted += 1
            self.tracker.mark_reclaimed(group)
            if span is not None:
                span.end(t)
        return t

    @property
    def shadow_count(self) -> int:
        """Shadow SSTables currently retained on the SSD."""
        return sum(
            1
            for number in self.tracker.shadow_numbers()
            if self.fs.exists(table_file_name(self.dbname, number))
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self, at: int) -> int:
        """Wait for background work, settle the journal, reclaim, close."""
        t = self.wait_for_background(at)
        t = max(t, self.stack.settle())
        t = self.reclaim(t)
        if self._reclaim_timer is not None:
            self._reclaim_timer.cancel()
        self.closed = True
        return t
