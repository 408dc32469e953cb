"""The key-value store: LevelDB's architecture on the simulated stack.

``DB`` implements the stock-LevelDB behaviour the paper compares against:

- Put/Delete append to the WAL (unsynced, LevelDB's default) and insert
  into the memtable;
- a full memtable is sealed and dumped to an L0 SSTable by a *minor
  compaction* on the background thread, synced per the store's
  :class:`~repro.lsm.options.SyncPolicy`;
- level scores trigger *major compactions* (merge-sort inputs, write new
  tables, log a version edit); read misses trigger *seek compactions*;
- writers observe LevelDB's stalls: the 1 ms L0 slowdown, the sealed-
  memtable wait, and the L0 stop trigger, all decided by the store's
  :class:`~repro.lsm.pressure.WritePressure` controller.

Background work is pulled lazily (see :mod:`repro.lsm.background`): the
memtable dump always has priority, size compactions run as virtual time
passes, and whatever backlog remains when a benchmark window closes is
only executed by an explicit ``wait_for_background`` — matching how a
real timed run leaves deep-level compactions for later.

``DB.get`` is the only code that reads memtables and tables for a point
lookup, and every new SSTable (minor dump, major merge, PebblesDB guard
append) is opened by ``_open_output`` and finished by ``_finish_output``.
Subclasses change policy, never plumbing, through these hooks:

- ``_persist_major_outputs``: NobLSM (no sync), BoLT (one barrier);
- ``_dispose_inputs``: NobLSM (shadows), noblsm-kv (segment barriers);
- ``_prepare_minor_sync``: noblsm-kv (vLog sync before the L0 sync);
- ``_recovery_validator``: NobLSM (lost major outputs roll back);
- ``_adopt_orphan_tables``: NobLSM (L0 tables whose edit was lost);
- ``_protected_table_numbers``: NobLSM (shadows survive recovery);
- ``_kv_separate``/``_kv_rewrite``/``_kv_drop``/``_kv_resolve``: noblsm-kv;
- ``_compact_memtable``: L2SM (hot/cold split of the dump);
- ``_hot_get``: L2SM (hot index, between the memtables and the tables);
- ``_iterator_sources``: L2SM (hot index merged into scans);
- ``_pick_size_compaction``: PebblesDB (whole overlapping guard runs);
- ``_major_compaction_work``: PebblesDB (guard append vs. merge);
- ``_files_for_get``, ``_table_sources``: PebblesDB (files overlap);
- ``write``: PebblesDB, RocksDB (latency), noblsm-kv (inline marker);
- ``get``: BoLT, RocksDB (latency wrappers);
- ``close``: NobLSM (settle the journal, reclaim).

The first two decide *when and how* new SSTables become durable — the
design space the paper explores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fs.stack import StorageStack
from repro.lsm.background import LazyExecutor
from repro.lsm.compaction import (
    Compaction,
    CompactionSchedule,
    pick_seek_compaction,
    pick_size_compaction,
)
from repro.lsm.filenames import (
    current_file_name,
    log_file_name,
    parse_file_name,
    table_file_name,
)
from repro.lsm.format import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    make_internal_key,
)
from repro.lsm.iterator import (
    DBIterator,
    LevelIterator,
    MemTableIterator,
    MergingIterator,
    ResolvingIterator,
)
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.pressure import (  # noqa: F401 (the states are re-exported)
    L0_SLOWDOWN,
    L0_STOP,
    MAJOR_DEFERRED,
    MEMTABLE_FULL,
    PRESSURE_OK,
    PRESSURE_SLOWDOWN,
    PRESSURE_STOP,
    WritePressure,
)
from repro.lsm.sstable import ORDER_START, TableBuilder
from repro.obs.spans import NULL_SPAN, Span
from repro.lsm.tablecache import TableCache
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet
from repro.lsm.wal import BatchEntry, LogReader, LogWriter

#: (ready_time, work_fn) — a pulled background job
BackgroundJob = Tuple[int, Callable[[int], int]]


def _key_fraction(lo: bytes, hi: bytes, begin: bytes, end: bytes) -> float:
    """Fraction of the key span [lo, hi] covered by [begin, end].

    Keys are treated as base-256 fractions over their first 8 bytes —
    coarse, but GetApproximateSizes is an estimate by contract.
    """

    def as_number(key: bytes) -> int:
        return int.from_bytes(key[:8].ljust(8, b"\x00"), "big")

    span = as_number(hi) - as_number(lo)
    if span <= 0:
        return 1.0
    covered = max(as_number(end) - as_number(begin), 0)
    return min(covered / span, 1.0)


class Snapshot:
    """A pinned read view: sees everything up to its sequence number.

    Obtain with :meth:`DB.get_snapshot`; pass to ``get``/``scan``/
    ``make_iterator``; release with :meth:`DB.release_snapshot` so
    compactions may drop the versions it pinned.
    """

    __slots__ = ("sequence", "_released")

    def __init__(self, sequence: int) -> None:
        self.sequence = sequence
        self._released = False

    def __repr__(self) -> str:
        state = "released" if self._released else "live"
        return f"Snapshot(seq={self.sequence}, {state})"


@dataclass
class DBStats:
    """Store-level counters for the evaluation harness.

    Stall accounting contract: ``stall_ns`` is the total *hard* write-
    stall time — the writer fully blocked — and is exactly attributed
    into ``stall_memtable_ns`` (writer waiting for the sealed memtable's
    dump) and ``stall_l0_stop_ns`` (the L0 stop trigger), so
    ``stall_ns == stall_memtable_ns + stall_l0_stop_ns`` always holds.
    The L0 slowdown (LevelDB's 1 ms sleep, or the dynamic delay when
    ``Options.stability_ingest_bytes_per_sec`` is set) is a *soft* delay
    and is kept separate in ``slowdown_ns`` — LevelDB itself
    distinguishes the two.
    Consumers that want "time the writer was not making progress" must
    use the unified :attr:`blocked_ns` total (= stall + slowdown); the
    serve bench (and so the soak gate) and the compare gate do.

    ``l0_stop_abandoned`` counts the times a writer blocked on the L0
    stop trigger was released with L0 *still* at/above the trigger
    because no runnable background job could drain it (see
    :meth:`DB._wait_for_l0_drain`).
    """

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    minor_compactions: int = 0
    major_compactions: int = 0
    trivial_moves: int = 0
    seek_compactions: int = 0
    stall_ns: int = 0
    stall_memtable_ns: int = 0
    stall_l0_stop_ns: int = 0
    slowdown_ns: int = 0
    l0_stop_abandoned: int = 0
    bytes_flushed: int = 0
    bytes_compacted_in: int = 0
    bytes_compacted_out: int = 0
    wal_records: int = 0
    recovered_records: int = 0
    #: WAL files whose tail was corrupt/truncated and silently discarded
    #: during recovery (the paper: "some pairs in the logs are broken")
    wal_tail_drops: int = 0
    extras: Dict[str, int] = field(default_factory=dict)

    @property
    def blocked_ns(self) -> int:
        """Total time writers were not making progress: stalls + slowdowns."""
        return self.stall_ns + self.slowdown_ns

    def reset(self) -> None:
        extras = self.extras
        self.__init__()
        extras.clear()
        self.extras = extras

    def snapshot(self) -> Dict[str, object]:
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "scans": self.scans,
            "minor_compactions": self.minor_compactions,
            "major_compactions": self.major_compactions,
            "trivial_moves": self.trivial_moves,
            "seek_compactions": self.seek_compactions,
            "stall_ns": self.stall_ns,
            "stall_memtable_ns": self.stall_memtable_ns,
            "stall_l0_stop_ns": self.stall_l0_stop_ns,
            "slowdown_ns": self.slowdown_ns,
            "blocked_ns": self.blocked_ns,
            "l0_stop_abandoned": self.l0_stop_abandoned,
            "bytes_flushed": self.bytes_flushed,
            "bytes_compacted_in": self.bytes_compacted_in,
            "bytes_compacted_out": self.bytes_compacted_out,
            "wal_records": self.wal_records,
            "recovered_records": self.recovered_records,
            "wal_tail_drops": self.wal_tail_drops,
            "extras": dict(self.extras),
        }


class DB:
    """A LevelDB-like store bound to one :class:`StorageStack`."""

    #: short name used by benchmark tables
    store_name = "leveldb"

    #: key-value separation hooks, bound as instance attributes by the
    #: noblsm-kv variant; ``None`` (the class default) keeps every hot
    #: path on the plain-store behaviour at the cost of one identity
    #: check, so stores without a vLog stay byte-identical
    _kv_separate: Optional[Callable[[bytes, int], Tuple[bytes, int]]] = None
    _kv_rewrite: Optional[Callable[[bytes, int], Tuple[bytes, int]]] = None
    _kv_drop: Optional[Callable[[bytes], None]] = None
    _kv_resolve: Optional[Callable[[bytes, int], Tuple[bytes, int]]] = None
    #: hot-tier probe (L2SM), same idiom: (key, bound) -> (found, value)
    _hot_get: Optional[Callable[..., Optional[Tuple[bool, bytes]]]] = None

    def __init__(
        self,
        stack: StorageStack,
        dbname: str = "db",
        options: Optional[Options] = None,
    ) -> None:
        self.stack = stack
        self.fs = stack.fs
        self.events = stack.events
        self.cpu = stack.fs.cpu
        self.dbname = dbname
        self.options = options if options is not None else Options()
        self.options.validate()
        self.stats = DBStats()
        self.obs = stack.obs
        self._observe = self.obs.enabled
        #: causal tracer, when one is attached to the registry; per-op
        #: spans and stall spans are created only when tracing is on, so
        #: observe-only runs keep their exact per-op cost profile
        self._tracer = self.obs.tracer if self._observe else None
        #: bounded sample of traced db.write spans still in the live
        #: memtable (the dump links them to its minor-compaction span)
        self._mem_trace_spans: List[Span] = []
        self._mem_trace_count = 0
        self._imm_trace_spans: List[Span] = []
        self._imm_trace_count = 0
        self._wal_bytes_total = 0
        self._wal_records_total = 0
        if self._observe:
            self.obs.register_source(f"db.{dbname}", self._obs_snapshot)
            self._put_hist = self.obs.histogram("db.put_ns")
            self._get_hist = self.obs.histogram("db.get_ns")
        self.table_cache = TableCache(
            self.fs, dbname, block_cache_bytes=self.options.block_cache_bytes
        )
        self.versions = VersionSet(self.fs, dbname, self.options)
        self.versions.validate_new_file = self._recovery_validator()
        self.bg = LazyExecutor(
            self.options.background_threads,
            obs=self.obs,
            name=f"bg.{dbname}",
        )
        #: open virtual-time spans of concurrent compactions (threads > 1)
        self._schedule = CompactionSchedule()
        #: the L0/memtable triggers, stall charging, compaction admission
        self.pressure = WritePressure(
            self.options, self.versions, self.stats, self.bg, self.obs, dbname
        )
        self.mem = MemTable()
        self._wal: Optional[LogWriter] = None
        self._wal_number = 0
        self._writer_free_at = 0
        #: sealed memtable awaiting its dump: (memtable, old_log, ready_at)
        self._pending_imm: Optional[Tuple[MemTable, int, int]] = None
        #: a dump is executing; keeps the sealed memtable readable until
        #: its L0 table is in the version, without re-dispatching the dump
        self._imm_dump_running = False
        self._pending_seek: Optional[Tuple[int, FileMetaData, int]] = None
        self._snapshots: List[Snapshot] = []
        self.closed = False
        self._open(stack.now)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def get_snapshot(self) -> Snapshot:
        """Pin the current state; reads through it never see later writes."""
        snapshot = Snapshot(self.versions.last_sequence)
        self._snapshots.append(snapshot)
        return snapshot

    def release_snapshot(self, snapshot: Snapshot) -> None:
        snapshot._released = True
        self._snapshots = [s for s in self._snapshots if not s._released]

    def _smallest_snapshot(self) -> int:
        """The oldest sequence any reader may still need."""
        if self._snapshots:
            return min(s.sequence for s in self._snapshots)
        return self.versions.last_sequence

    @staticmethod
    def _bound_of(snapshot: Optional[Snapshot]) -> Optional[int]:
        if snapshot is None:
            return None
        if snapshot._released:
            raise ValueError("snapshot was already released")
        return snapshot.sequence

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------

    def _open(self, at: int) -> None:
        t = at
        if self.fs.exists(current_file_name(self.dbname)):
            t = self.versions.recover(t)
            t = self._adopt_orphan_tables(t)
            t = self._replay_logs(t)
            self._delete_obsolete_files(t)
        t = self._new_wal(t)
        edit = VersionEdit(log_number=self._wal_number)
        t = self.versions.log_and_apply(edit, t)

    def _new_wal(self, at: int) -> int:
        number = self.versions.new_file_number()
        handle, t = self.fs.create(log_file_name(self.dbname, number), at=at)
        if self._wal is not None:
            self._wal_records_total += self._wal.records_written
            self._wal_bytes_total += self._wal.bytes_written
        self._wal = LogWriter(handle)
        self._wal_number = number
        return t

    def _obs_snapshot(self) -> Dict[str, object]:
        """Registry source: store counters plus aggregated WAL volume."""
        doc = self.stats.snapshot()
        records = self._wal_records_total
        nbytes = self._wal_bytes_total
        if self._wal is not None:
            records += self._wal.records_written
            nbytes += self._wal.bytes_written
        doc["wal"] = {"records_written": records, "bytes_written": nbytes}
        return doc

    def _replay_logs(self, at: int) -> int:
        """Rebuild the memtable from logs newer than the version's log.

        Every file number in the directory counts as used (LevelDB's
        ``MarkFileNumberUsed``): a table made after the last durable
        MANIFEST edit can survive a crash, and the replay's dumps must
        not hand its number out again. vLog segments number themselves.
        """
        t = at
        versions = self.versions
        logs: List[int] = []
        for path in self.fs.list_dir(self.dbname + "/"):
            kind, number = parse_file_name(self.dbname, path)
            if number is None or kind == "vlog":
                continue
            if number >= versions.next_file_number:
                versions.next_file_number = number + 1
            if kind == "log" and number >= versions.log_number:
                logs.append(number)
        for number in sorted(logs):
            handle, t = self.fs.open(log_file_name(self.dbname, number), at=t)
            reader = LogReader(handle)
            for sequence, entries in reader.records(at=t):
                for offset, (value_type, key, value) in enumerate(entries):
                    self.mem.add(sequence + offset, value_type, key, value)
                    self.stats.recovered_records += 1
                last = sequence + len(entries) - 1
                if last > self.versions.last_sequence:
                    self.versions.last_sequence = last
                if (
                    self.mem.approximate_memory_usage
                    >= self.options.write_buffer_size
                ):
                    t = self._compact_memtable(self.mem, t)
                    self.mem = MemTable()
            if reader.dropped_tail:
                # The log's tail was corrupt or truncated (a crash mid
                # WAL-append): the discarded bytes are data loss and must
                # be visible in recovery stats, not silent.
                self.stats.wal_tail_drops += 1
                self.obs.counter("wal.tail_dropped").inc()
        if not self.mem.empty:
            t = self._compact_memtable(self.mem, t)
            self.mem = MemTable()
        for number in sorted(logs):
            t = self.fs.unlink(log_file_name(self.dbname, number), at=t)
        return t

    def _delete_obsolete_files(self, at: int) -> None:
        """Drop files the recovered version does not reference."""
        live = set(self.versions.current.all_file_numbers())
        live |= self._protected_table_numbers()
        for path in list(self.fs.list_dir(self.dbname + "/")):
            kind, number = parse_file_name(self.dbname, path)
            delete = False
            if kind == "table" and number not in live:
                delete = True
                self.table_cache.evict(number)
            elif kind == "temp":
                delete = True
            elif kind == "manifest" and (
                number != self.versions.manifest_file_number
            ):
                delete = True
            if delete:
                self.fs.unlink(path, at=at)

    def _protected_table_numbers(self) -> "set[int]":
        """Table numbers to keep even when unreferenced (NobLSM shadows)."""
        return set()

    def _recovery_validator(self):
        """Hook: per-file validation during MANIFEST recovery.

        Stock LevelDB syncs tables before the MANIFEST references them,
        so no validation is needed; NobLSM overrides this because its
        async-committed tables can be lost behind a durable MANIFEST.
        """
        return None

    def _adopt_orphan_tables(self, at: int) -> int:
        """Hook: rescue durable tables the MANIFEST lost (NobLSM only)."""
        return at

    # ------------------------------------------------------------------
    # background scheduling (pull model)
    # ------------------------------------------------------------------

    def _pick_background_work(
        self, horizon: Optional[int] = None
    ) -> Optional[BackgroundJob]:
        """Next background job, LevelDB priority: dump, size, seek.

        ``horizon`` is the caller's current virtual time when it only
        wants work that may start by then: a rate-limited major whose
        admitted start lies beyond the horizon is *held back* (no tokens
        consumed) rather than dispatched with a far-future start — a
        dispatched job occupies its worker's whole timeline, so an
        eagerly dispatched throttled major would make every later
        memtable dump queue behind it.
        """
        if self._pending_imm is not None and not self._imm_dump_running:
            imm, old_log, ready = self._pending_imm
            return ready, (
                lambda start: self._minor_compaction_work(imm, old_log, start)
            )
        job = self._pick_major_job(horizon)
        if job is not None:
            return job
        if self._pending_seek is not None:
            level, meta, ready = self._pending_seek
            seek = pick_seek_compaction(self.versions, self.options, level, meta)
            if seek is None:
                self._pending_seek = None
                return None
            ready = self._deferred_ready(seek, ready)
            admitted = self.pressure.admit(seek, ready, horizon)
            if admitted is None:
                return None  # throttled past the horizon; retry later
            self._pending_seek = None
            return admitted, (
                lambda start, c=seek: self._major_compaction_work(c, start)
            )
        return None

    def _pick_major_job(
        self, horizon: Optional[int] = None
    ) -> Optional[BackgroundJob]:
        """The next size compaction as a schedulable job.

        Single-threaded stores keep LevelDB's exact behaviour: the one
        highest-score compaction, ready immediately. With several
        background threads the scheduler becomes conflict-aware: it
        walks the candidate compactions best-score-first and dispatches
        the first one that is *disjoint* from every in-flight compaction
        (different levels or non-overlapping key ranges), so independent
        majors overlap in virtual time on distinct threads. If every
        candidate conflicts, the least-delayed one is dispatched with
        its ready time pushed to the conflict's clearance — never
        dropped, never reordered past the dependency.
        """
        pressure = self.pressure
        if self.bg.num_threads == 1:
            compaction = self._fair_override(self._pick_size_compaction())
            if compaction is None:
                return None
            ready = 0
            if pressure.limiter is not None:
                ready = pressure.admit(
                    compaction, self.bg.next_start(0), horizon
                )
                if ready is None:
                    return None
            return ready, (
                lambda start, c=compaction: self._major_compaction_work(c, start)
            )
        start_hint = self.bg.next_start(0)
        self._schedule.prune(start_hint)
        best: Optional[Tuple[int, Compaction]] = None
        for compaction in self._size_compaction_candidates():
            begin, end = compaction.user_range()
            clearance = self._schedule.clearance(
                compaction.touched_levels(), begin, end, start_hint
            )
            if clearance is None:
                ready = 0
                if pressure.limiter is not None:
                    ready = pressure.admit(compaction, start_hint, horizon)
                    if ready is None:
                        continue  # throttled past the horizon; next candidate
                return ready, (
                    lambda start, c=compaction: self._major_compaction_work(
                        c, start
                    )
                )
            if best is None or clearance < best[0]:
                best = (clearance, compaction)
        if best is None:
            return None
        clearance, compaction = best
        admitted = pressure.admit(compaction, clearance, horizon)
        if admitted is None:
            return None  # throttled past the horizon; retry later
        self._note_deferral(compaction, start_hint, clearance)
        return admitted, (
            lambda start, c=compaction: self._major_compaction_work(c, start)
        )

    def _size_compaction_candidates(self):
        """Candidate size compactions in priority order (parallel picker).

        Subclasses that override :meth:`_pick_size_compaction` keep
        their policy — their single pick is the only candidate. The
        default store yields one candidate per compaction-worthy level,
        best score first, so the scheduler can fall through to the
        second-best level when the best conflicts.
        """
        if type(self)._pick_size_compaction is not DB._pick_size_compaction:
            compaction = self._pick_size_compaction()
            if compaction is not None:
                yield compaction
            return
        levels = sorted(
            (
                level
                for level in range(self.options.num_levels - 1)
                if self.versions.level_score(level) > 0.999999
            ),
            key=lambda level: (-self.versions.level_score(level), level),
        )
        pressure = self.pressure
        if pressure.limiter is not None and pressure.urgent() and 0 in levels:
            # fair mode: the L0 drain goes first even when a deeper
            # level's score is higher — it is what unblocks writers
            levels.remove(0)
            levels.insert(0, 0)
        for level in levels:
            compaction = pick_size_compaction(
                self.versions, self.options, level=level
            )
            if compaction is not None:
                yield compaction

    def _deferred_ready(self, compaction: Compaction, ready: int) -> int:
        """Push a job's ready time past conflicting in-flight spans."""
        if self.bg.num_threads == 1:
            return ready
        start_hint = self.bg.next_start(ready)
        begin, end = compaction.user_range()
        clearance = self._schedule.clearance(
            compaction.touched_levels(), begin, end, start_hint
        )
        if clearance is None:
            return ready
        if clearance > ready:
            self._note_deferral(compaction, start_hint, clearance)
        return max(ready, clearance)

    def _note_deferral(self, compaction: Compaction, start, end) -> None:
        """Count a conflict deferral; observed runs get a span for it."""
        self._schedule.note_deferral()
        self.pressure.charge(
            MAJOR_DEFERRED,
            start,
            end,
            level=compaction.level,
            output_level=compaction.output_level,
        )

    def _fair_override(self, compaction: Optional[Compaction]) -> Optional[Compaction]:
        """Fair mode: swap a deeper pick for the L0 drain under pressure.

        LevelDB's picker chooses the single highest-score level, which
        under bursty debt is often L1+ while L0 climbs toward the
        slowdown trigger; with a fair-mode rate limiter the L0->L1
        compaction preempts that pick, so bandwidth shaping never
        leaves the writer-unblocking work sitting behind deep majors.
        """
        if compaction is not None and compaction.level == 0:
            return compaction
        if self.pressure.limiter is None or not self.pressure.urgent():
            return compaction
        l0 = pick_size_compaction(self.versions, self.options, level=0)
        return l0 if l0 is not None else compaction

    def _note_inflight(
        self,
        levels: "frozenset[int]",
        begin: Optional[bytes],
        end: Optional[bytes],
        done: int,
    ) -> None:
        """Record an executed job's span for later conflict checks."""
        if self.bg.num_threads > 1:
            self._schedule.add(levels, begin, end, done)

    def _pick_size_compaction(self) -> Optional[Compaction]:
        """Hook: choose the next size-triggered compaction."""
        return pick_size_compaction(self.versions, self.options)

    def _advance_background(self, t: int) -> None:
        """Run pending background jobs whose start falls at or before ``t``.

        The horizon ``t`` is passed to the picker so rate-limited majors
        that cannot start by now stay queued (they are retried on the
        next poll, once the clock has reached their admitted start)
        instead of eagerly occupying a worker's future timeline.
        """
        while self.bg.earliest_free() <= t:
            picked = self._pick_background_work(horizon=t)
            if picked is None:
                return
            ready, work = picked
            self.bg.execute(ready, work)

    def _run_one_background_job(self) -> Optional[int]:
        picked = self._pick_background_work()
        if picked is None:
            return None
        ready, work = picked
        return self.bg.execute(ready, work)

    def compact_range(self, at: int) -> int:
        """Manual full compaction (LevelDB's CompactRange over everything).

        Dumps the memtable, then repeatedly compacts the shallowest
        populated level down until each level's data sits as deep as it
        can — db_bench's ``compact`` step between fill and read phases.
        """
        t = at
        if not self.mem.empty:
            t = self._switch_memtable(t)
        t = self.wait_for_background(t)
        for level in range(0, self.options.num_levels - 1):
            for _ in range(10_000):
                files = [
                    f for f in self.versions.current.files[level] if not f.shadow
                ]
                if not files:
                    break
                compaction = pick_seek_compaction(
                    self.versions, self.options, level, files[0]
                )
                if compaction is None:
                    break
                compaction.is_seek = False
                ready = self._deferred_ready(compaction, t)
                done = self.bg.execute(
                    ready,
                    lambda start, c=compaction: self._major_compaction_work(
                        c, start
                    ),
                )
                t = max(t, done)
            t = self.wait_for_background(t)
        return t

    def wait_for_background(self, at: int) -> int:
        """Drain every pending background job; returns the drain time."""
        t = at
        for _ in range(1_000_000):
            done = self._run_one_background_job()
            if done is None:
                break
            t = max(t, done)
        t = max(t, self.bg.latest_free())
        self.events.run_until(t)
        return t

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes, at: int) -> int:
        self.stats.puts += 1
        done = self.write([(TYPE_VALUE, key, value)], at)
        if self._observe:
            self._put_hist.record(done - at)
        return done

    def delete(self, key: bytes, at: int) -> int:
        self.stats.deletes += 1
        done = self.write([(TYPE_DELETION, key, b"")], at)
        if self._observe:
            self.obs.histogram("db.delete_ns").record(done - at)
        return done

    def apply(self, batch, at: int) -> int:
        """Apply a :class:`~repro.lsm.write_batch.WriteBatch` atomically."""
        if len(batch) == 0:
            return at
        return self.write(batch.entries, at)

    def write(self, entries: List[BatchEntry], at: int) -> int:
        """Apply a write batch; returns the caller's completion time.

        When a tracer is attached, the whole batch runs under one
        ``db.write`` root span whose child segments exactly partition
        its latency — writer-lock wait, stalls, memtable switch, WAL
        append, WAL sync, memtable insert — feeding the critical-path
        attribution table.
        """
        if self.closed:
            raise RuntimeError("DB is closed")
        span = None
        if self._tracer is not None:
            span = self.obs.start_span("db.write", at, entries=len(entries))
        t = max(at, self._writer_free_at)
        if span is not None and t > at:
            span.child("writer_lock", at).end(t)
        self.events.run_until(t)
        self._advance_background(t)
        t = self._make_room(t, span=span)
        sequence = self.versions.last_sequence + 1
        self.versions.last_sequence += len(entries)
        seg = t
        t = self._wal.add_record(sequence, entries, at=t)
        self.stats.wal_records += 1
        if span is not None and t > seg:
            span.child("wal.append", seg).end(t)
        if self.options.sync.sync_wal:
            seg = t
            t = self._wal.handle.fsync(at=t, reason="wal")
            if span is not None and t > seg:
                span.child("wal.sync", seg).end(t)
        seg = t
        mem_add = self.mem.add
        for offset, (value_type, key, value) in enumerate(entries):
            mem_add(sequence + offset, value_type, key, value)
        t += self.cpu.memtable_insert_ns * len(entries)
        if span is not None:
            if t > seg:
                span.child("memtable.insert", seg).end(t)
            span.end(t)
            self._note_batch_trace(span)
        self._writer_free_at = t
        return t

    def _note_batch_trace(self, span: Span) -> None:
        """Remember a traced batch now resident in the live memtable."""
        self._mem_trace_count += 1
        if len(self._mem_trace_spans) < 32:
            self._mem_trace_spans.append(span)

    def _make_room(self, at: int, span: Optional[Span] = None) -> int:
        """LevelDB's MakeRoomForWrite: stalls, switches, triggers."""
        pressure = self.pressure
        t = at
        allow_delay = True
        while True:
            if allow_delay:
                delay = pressure.slowdown_ns()
                if delay:
                    pressure.charge(L0_SLOWDOWN, t, t + delay, span)
                    t += delay
                    allow_delay = False
                    self._advance_background(t)
                    continue
            if (
                self.mem.approximate_memory_usage
                < self.options.write_buffer_size
            ):
                return t
            if self._pending_imm is not None:
                # previous memtable not dumped yet: the writer stalls
                # until the background thread gets to it (dump first)
                resumed = t
                while self._pending_imm is not None:
                    done = self._run_one_background_job()
                    if done is None:
                        break
                    resumed = max(resumed, done)
                pressure.charge(MEMTABLE_FULL, t, resumed, span)
                t = resumed
                continue
            if pressure.state() == PRESSURE_STOP:
                resumed = self._wait_for_l0_drain(t)
                pressure.charge(L0_STOP, t, resumed, span)
                t = resumed
                continue
            seg = t
            t = self._switch_memtable(t)
            if span is not None and t > seg:
                span.child("memtable.switch", seg).end(t)

    def _wait_for_l0_drain(self, at: int) -> int:
        """Blocked writer: run background jobs until L0 falls below stop.

        Intended semantics: the writer stays blocked while background
        jobs drain L0 below ``l0_stop_writes_trigger``. Two escapes
        exist so the simulation cannot livelock: the background picker
        may return no runnable job (``None`` — e.g. a subclass picker
        declines while L0 is full of shadows), and a 100 000-iteration
        cap bounds the loop against a picker that keeps yielding jobs
        that never reduce L0. Either way the writer *proceeds with L0
        still at/above the stop trigger*; that escape must be visible,
        not silent — it is counted in ``stats.l0_stop_abandoned`` and
        the ``db.stall.l0_stop_abandoned`` counter. The cap itself is
        asserted unreachable for every in-tree store by the stall-
        accounting tests.
        """
        t = at
        for _ in range(100_000):
            if self.pressure.state() != PRESSURE_STOP:
                return t
            done = self._run_one_background_job()
            if done is None:
                break
            t = max(t, done)
        if self.pressure.state() == PRESSURE_STOP:
            self.stats.l0_stop_abandoned += 1
            if self._observe:
                self.obs.counter("db.stall.l0_stop_abandoned").inc()
        return t

    def _switch_memtable(self, at: int) -> int:
        """Seal the memtable, open a new WAL, leave the dump to the bg.

        If a previously sealed memtable is still awaiting its dump, the
        caller waits for it here — overwriting ``_pending_imm`` would
        silently lose data.
        """
        t = at
        while self._pending_imm is not None:
            done = self._run_one_background_job()
            if done is None:
                raise RuntimeError("sealed memtable pending but no job runnable")
            t = max(t, done)
        imm = self.mem
        old_log = self._wal_number
        self.mem = MemTable()
        if self._tracer is not None:
            # the sealed memtable carries its batches' trace spans; the
            # minor dump will link them to its own span
            self._imm_trace_spans = self._mem_trace_spans
            self._imm_trace_count = self._mem_trace_count
            self._mem_trace_spans = []
            self._mem_trace_count = 0
        t = self._new_wal(t)
        self._pending_imm = (imm, old_log, t)
        self.pressure.note_sealed(True)
        self._advance_background(t)  # dump immediately if a thread is free
        return t

    # ------------------------------------------------------------------
    # minor compaction
    # ------------------------------------------------------------------

    def _minor_compaction_work(
        self, imm: MemTable, old_log_number: int, at: int
    ) -> int:
        # LevelDB drops imm_ only after the L0 table is in the version:
        # while the dump runs, the sealed memtable must stay readable and
        # must survive an abort (crash injection) intact.
        self._imm_dump_running = True
        try:
            t = self._compact_memtable(imm, at)
        finally:
            self._imm_dump_running = False
        self._pending_imm = None
        self.pressure.note_sealed(False)
        t = self.fs.unlink(log_file_name(self.dbname, old_log_number), at=t)
        return t

    def _compact_memtable(self, imm: MemTable, at: int) -> int:
        """Dump a sealed memtable to an L0 (or pushed-down) SSTable."""
        if imm.empty:
            return at
        self.stats.minor_compactions += 1
        span = NULL_SPAN
        if self._observe:
            span = self.obs.start_span(
                "db.compaction.minor",
                at,
                input_bytes=imm.approximate_memory_usage,
            )
        if self._tracer is not None and self._imm_trace_spans:
            # causal arrows: every traced batch in this memtable flows
            # into the dump that persists it
            for batch_span in self._imm_trace_spans:
                self._tracer.link(batch_span, span, name="kv-batch")
            span.annotate(carries=self._imm_trace_count)
            self._imm_trace_spans = []
            self._imm_trace_count = 0
        builder = self._open_output(at)
        t = at
        separate = self._kv_separate
        for user_key, sequence, value_type, value in imm.sorted_entries():
            if separate is not None and value_type == TYPE_VALUE:
                value, t = separate(value, t)
            builder.add(
                make_internal_key(user_key, sequence, value_type), value
            )
        count = builder.num_entries
        t += count * self.cpu.merge_entry_ns
        outputs: List[FileMetaData] = []
        _, t = self._finish_output(builder, outputs, t)
        meta = outputs[0]
        self.stats.bytes_flushed += meta.file_size
        t = self._prepare_minor_sync(t)
        if self.options.sync.sync_minor:
            t = builder.handle.fdatasync(at=t, reason="minor")
        level = self.versions.current.pick_level_for_memtable_output(
            meta.smallest[:-8], meta.largest[:-8], self.options
        )
        if self._tracer is not None:
            # the journal commit covering this inode closes the chain
            self._tracer.bind_inode(meta.ino, span)
        edit = VersionEdit(log_number=self._wal_number)
        edit.add_file(level, meta)
        t = self.versions.log_and_apply(edit, t)
        # Majors must not consume this table at a virtual time before the
        # dump that produced it has completed.
        self._note_inflight(
            frozenset((level,)), meta.smallest[:-8], meta.largest[:-8], t
        )
        span.annotate(
            table=meta.number,
            level=level,
            output_bytes=meta.file_size,
            entries=count,
        )
        span.end(t)
        return t

    def _prepare_minor_sync(self, at: int) -> int:
        """Hook: durability work that must precede the L0 table's sync.

        noblsm-kv fdatasyncs the vLog head segment here, so commit
        ordering guarantees a durable table's pointers always resolve.
        """
        return at

    # ------------------------------------------------------------------
    # table output: the one path every new SSTable takes
    # ------------------------------------------------------------------

    def _open_output(self, at: int) -> TableBuilder:
        """Start a new SSTable under a fresh file number."""
        number = self.versions.new_file_number()
        return TableBuilder(
            self.fs,
            table_file_name(self.dbname, number),
            self.options,
            at,
            number=number,
        )

    def _finish_output(
        self,
        builder: TableBuilder,
        outputs: List[FileMetaData],
        at: int,
    ) -> Tuple[None, int]:
        """Write a table out, hand it to the table cache, list its metadata."""
        size, t = builder.finish(at)
        self.table_cache.adopt(builder.number, builder.built)
        outputs.append(
            FileMetaData(
                number=builder.number,
                file_size=size,
                smallest=builder.smallest,
                largest=builder.largest,
                ino=builder.handle.ino,
            )
        )
        return None, t

    # ------------------------------------------------------------------
    # major / seek compactions
    # ------------------------------------------------------------------

    def _major_compaction_work(self, compaction: Compaction, at: int) -> int:
        if compaction.is_trivial_move(self.options):
            t = self._trivial_move(compaction, at)
            begin, end = compaction.user_range()
            self._note_inflight(compaction.touched_levels(), begin, end, t)
            return t
        span = self._start_major(compaction, at)
        entries, t = self._read_sorted(compaction.all_inputs, at)
        self.stats.bytes_compacted_in += compaction.input_bytes
        t += len(entries) * self.cpu.merge_entry_ns

        outputs: List[FileMetaData] = []
        builder, t = self._write_merged(
            entries, self._is_base_level(compaction), outputs, t,
            grandparents=compaction.grandparents,
        )
        if builder is not None:
            builder, t = self._finish_output(builder, outputs, t)
        t = self._install_major(compaction, outputs, span, t)
        begin, end = compaction.user_range()
        self._note_inflight(compaction.touched_levels(), begin, end, t)
        return t

    def _start_major(self, compaction: Compaction, at: int) -> Span:
        """Count a merging major; observed runs get its span."""
        self.stats.major_compactions += 1
        if compaction.is_seek:
            self.stats.seek_compactions += 1
        if not self._observe:
            return NULL_SPAN
        return self.obs.start_span(
            "db.compaction.major", at, **compaction.span_attrs()
        )

    def _read_sorted(
        self, files: List[FileMetaData], at: int
    ) -> Tuple[List[Tuple[bytes, int, bytes, bytes]], int]:
        """Every entry of ``files`` in merge order, decorated.

        Each entry is ``(user_key, ~tag, internal_key, value)``: sorting
        tuples beats a key lambda per comparison, and the merge loop needs
        (user_key, tag) anyway. Only byte-identical entries tie beyond
        (user, ~tag), so tuple order cannot reorder distinct ones.
        """
        t = at
        decorated: List[Tuple[bytes, int, bytes, bytes]] = []
        from_bytes = int.from_bytes
        for meta in files:
            table, t = self.table_cache.get_table(meta.number, at=t)
            blocks, t = table.all_blocks(at=t)
            decorated += [
                (ik[:-8], ~from_bytes(ik[-8:], "little"), ik, value)
                for block in blocks
                for ik, value in zip(block.keys, block.values)
            ]
        decorated.sort()
        return decorated, t

    def _write_merged(
        self,
        entries: List[Tuple[bytes, int, bytes, bytes]],
        drop_tombstones: bool,
        outputs: List[FileMetaData],
        at: int,
        builder: Optional[TableBuilder] = None,
        grandparents: Sequence[FileMetaData] = (),
    ) -> Tuple[Optional[TableBuilder], int]:
        """The one compaction output loop, over ``_read_sorted`` entries.

        Inlined per entry: LevelDB's drop rule (a version older than one
        the smallest snapshot sees goes, and so does that one if it is a
        tombstone and ``drop_tombstones``), the output cut (at
        ``max_file_size``, or once the keys since the last cut passed
        ``grandparents`` worth more than the overlap limit), and
        :class:`TableBuilder`'s order check and block accounting. vLog
        hooks see values in entry order. Continues ``builder`` if given
        (PebblesDB's guard append); returns the table still open.
        """
        t = at
        # entries carry ~tag: sequence <= smallest snapshot is this bound
        visible_from = ~((self._smallest_snapshot() << 8) | 0xFF)
        kv_drop, kv_rewrite = self._kv_drop, self._kv_rewrite
        options = self.options
        # cut an output at data_size + block_bytes + 4 >= max_file_size:
        # ``room`` is max_file_size - 4 less the sealed blocks
        max_body = options.max_file_size - 4
        block_cut = options.block_size - 4
        overlap_limit = options.grandparent_overlap_limit()
        gp_users = [meta.largest[:-8] for meta in grandparents]
        gp_sizes = [meta.file_size for meta in grandparents]
        gp_count = len(gp_users)
        gp_index = overlap = block_bytes = room = 0
        last_user = None  # drop rule: the previous entry's user key...
        visible = False  # ...has a version every snapshot sees
        keys = values = None
        prev_user, prev_neg = ORDER_START[0], ~ORDER_START[1]
        if builder is not None:
            keys, values = builder.block_keys, builder.block_values
            block_bytes = builder.block_bytes
            room = max_body - builder.data_size
            prev_user, prev_neg = builder.last_user, ~builder.last_tag
        for user_key, neg_tag, internal_key, value in entries:
            if user_key != last_user:
                last_user = user_key
                visible = False
            elif visible:
                if kv_drop is not None and ~neg_tag & 0xFF == TYPE_VALUE:
                    kv_drop(value)
                continue
            if neg_tag >= visible_from:
                visible = True
                if drop_tombstones and ~neg_tag & 0xFF == TYPE_DELETION:
                    continue
            if kv_rewrite is not None and ~neg_tag & 0xFF == TYPE_VALUE:
                value, t = kv_rewrite(value, t)
            if builder is not None:
                if block_bytes < room:
                    while gp_index < gp_count and user_key > gp_users[gp_index]:
                        overlap += gp_sizes[gp_index]
                        gp_index += 1
                if block_bytes >= room or overlap > overlap_limit:
                    builder.block_bytes = block_bytes
                    builder, t = self._finish_output(builder, outputs, t)
                    overlap = 0
            if builder is None:
                builder = self._open_output(t)
                keys, values = builder.block_keys, builder.block_values
                block_bytes, room = 0, max_body
                prev_user, prev_neg = ORDER_START[0], ~ORDER_START[1]
            if user_key < prev_user or (user_key == prev_user and neg_tag <= prev_neg):
                raise ValueError("table entries must be strictly increasing")
            prev_user, prev_neg = user_key, neg_tag
            keys.append(internal_key)
            values.append(value)
            klen, vlen = len(internal_key), len(value)
            block_bytes += 2 + klen + vlen  # block.entry_size, inlined
            if klen >= 0x80:
                block_bytes += 1 if klen < 0x4000 else (klen.bit_length() - 1) // 7
            if vlen >= 0x80:
                block_bytes += 1 if vlen < 0x4000 else (vlen.bit_length() - 1) // 7
            if block_bytes >= block_cut:
                room -= block_bytes + 4
                builder.block_bytes = block_bytes
                builder.cut_block()
                keys, values = builder.block_keys, builder.block_values
                block_bytes = 0
        if builder is not None:
            builder.block_bytes = block_bytes
            builder.last_user, builder.last_tag = prev_user, ~prev_neg
        return builder, t

    def _install_major(
        self,
        compaction: Compaction,
        outputs: List[FileMetaData],
        span: Span,
        at: int,
    ) -> int:
        """Persist a major's outputs, log its edit, dispose of its inputs."""
        output_bytes = sum(m.file_size for m in outputs)
        self.stats.bytes_compacted_out += output_bytes
        if self._tracer is not None:
            for meta in outputs:
                self._tracer.bind_inode(meta.ino, span)
        t = self._persist_major_outputs(outputs, at)
        edit = compaction.make_delete_edit()
        for meta in outputs:
            edit.add_file(compaction.output_level, meta)
        if compaction.inputs:
            edit.compact_pointers.append(
                (
                    compaction.level,
                    max(f.largest[:-8] for f in compaction.inputs),
                )
            )
        t = self.versions.log_and_apply(edit, t)
        t = self._dispose_inputs(compaction, outputs, t)
        span.annotate(
            output_bytes=output_bytes,
            outputs=len(outputs),
            shadow_retained=sum(
                1 for m in compaction.all_inputs if m.shadow
            ),
        )
        span.end(t)
        return t

    def _trivial_move(self, compaction: Compaction, at: int) -> int:
        self.stats.trivial_moves += 1
        meta = compaction.inputs[0]
        edit = VersionEdit()
        edit.delete_file(compaction.level, meta.number)
        edit.add_file(compaction.output_level, meta)
        return self.versions.log_and_apply(edit, at)

    def _is_base_level(self, compaction: Compaction) -> bool:
        """True when no level deeper than the output overlaps the range."""
        begin = min(
            (f.smallest[:-8] for f in compaction.all_inputs), default=None
        )
        end = max((f.largest[:-8] for f in compaction.all_inputs), default=None)
        for level in range(
            compaction.output_level + 1, self.options.num_levels
        ):
            if self.versions.current.overlapping_inputs(level, begin, end):
                return False
        return True

    # ------------------------------------------------------------------
    # persistence hooks (overridden by NobLSM / baselines)
    # ------------------------------------------------------------------

    def _persist_major_outputs(
        self, outputs: List[FileMetaData], at: int
    ) -> int:
        """Stock LevelDB: fdatasync every new SSTable before installing."""
        t = at
        if self.options.sync.sync_major:
            for meta in outputs:
                handle, t = self.fs.open(
                    table_file_name(self.dbname, meta.number), at=t
                )
                t = handle.fdatasync(at=t, reason="major")
        return t

    def _dispose_inputs(
        self,
        compaction: Compaction,
        outputs: List[FileMetaData],
        at: int,
    ) -> int:
        """Stock LevelDB: old SSTables are deleted immediately."""
        t = at
        for meta in compaction.all_inputs:
            self.table_cache.evict(meta.number)
            path = table_file_name(self.dbname, meta.number)
            if self.fs.exists(path):
                t = self.fs.unlink(path, at=t)
        return t

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(
        self,
        key: bytes,
        at: int,
        snapshot: Optional[Snapshot] = None,
    ) -> Tuple[Optional[bytes], int]:
        """Point lookup; returns (value or None, completion_time).

        Probes the live memtable, the sealed one, the hot tier (L2SM),
        then the tables in search order. With a ``snapshot``, the lookup
        sees the newest version at or below the snapshot's sequence
        number.
        """
        if self.closed:
            raise RuntimeError("DB is closed")
        span = None
        if self._tracer is not None:
            span = self.obs.start_span("db.get", at)
        self.stats.gets += 1
        bound = self._bound_of(snapshot)
        t = at + self.cpu.memtable_lookup_ns
        self.events.run_until(t)
        self._advance_background(t)
        hit = self.mem.get(key, sequence_bound=bound)
        if hit is None and self._pending_imm is not None:
            hit = self._pending_imm[0].get(key, sequence_bound=bound)
            if hit is not None:
                t += self.cpu.memtable_lookup_ns
        if hit is None and self._hot_get is not None:
            hit = self._hot_get(key, bound)
            if hit is not None:
                t += self.cpu.memtable_lookup_ns
        if hit is None:
            table_bound = bound if bound is not None else MAX_SEQUENCE
            first_probe: Optional[Tuple[int, FileMetaData]] = None
            probes = 0
            for level, meta in self._files_for_get(key):
                table, t = self.table_cache.get_table(meta.number, at=t)
                hit, t = table.get(key, at=t, sequence_bound=table_bound)
                probes += 1
                if probes == 1:
                    first_probe = (level, meta)
                if hit is not None:
                    break
            if probes > 1:
                self._charge_seek(first_probe, t)
        value = hit[1] if hit is not None and hit[0] else None
        if value is not None and self._kv_resolve is not None:
            value, t = self._kv_resolve(value, t)
        if span is not None:
            span.annotate(hit=value is not None)
            span.end(t)
        if self._observe:
            self._get_hist.record(t - at)
        return value, t

    def _files_for_get(self, key: bytes) -> List[Tuple[int, FileMetaData]]:
        """Hook: candidate files in search order (PebblesDB overrides)."""
        return self.versions.current.files_for_get(key)

    def _charge_seek(
        self, probe: Optional[Tuple[int, FileMetaData]], at: int
    ) -> None:
        if probe is None or not self.options.seek_compaction:
            return
        level, meta = probe
        meta.allowed_seeks -= 1
        if meta.allowed_seeks <= 0 and self._pending_seek is None:
            meta.allowed_seeks = max(meta.file_size // 16384, 100)
            self._pending_seek = (level, meta, at)

    def _iterator_sources(self, at: int) -> List[object]:
        """Merge sources: the live and sealed memtables, then the tables."""
        sources: List[object] = [MemTableIterator(self.mem, at)]
        if self._pending_imm is not None:
            sources.append(MemTableIterator(self._pending_imm[0], at))
        sources.extend(self._table_sources(at))
        return sources

    def _table_sources(self, at: int) -> List[object]:
        """Hook: one source per L0 table, one iterator per deeper level."""
        sources: List[object] = []
        t = at
        version = self.versions.current
        for meta in self._newest_first(version.files[0]):
            table, t = self.table_cache.get_table(meta.number, at=t)
            sources.append(table.iterate(t))
        for level in range(1, self.options.num_levels):
            files = [f for f in version.files[level] if not f.shadow]
            if files:
                sources.append(LevelIterator(self, files, t))
        return sources

    @staticmethod
    def _newest_first(files: List[FileMetaData]) -> List[FileMetaData]:
        """Live tables of an overlapping level in the order reads see them."""
        live = [f for f in files if not f.shadow]
        live.sort(key=lambda f: f.number, reverse=True)
        return live

    def make_iterator(
        self, at: int, snapshot: Optional[Snapshot] = None
    ) -> DBIterator:
        """An unpositioned iterator; seek it before reading."""
        self._advance_background(at)
        merger = MergingIterator(
            self._iterator_sources(at), self.cpu.iter_next_ns
        )
        iterator = DBIterator(merger, sequence_bound=self._bound_of(snapshot))
        resolve = self._kv_resolve
        if resolve is not None:
            return ResolvingIterator(iterator, resolve)
        return iterator

    def iterate(
        self, at: int, snapshot: Optional[Snapshot] = None
    ) -> DBIterator:
        """Full-store iterator positioned at the first key (readseq)."""
        iterator = self.make_iterator(at, snapshot=snapshot)
        iterator.seek_to_first()
        return iterator

    def scan(
        self,
        start_key: bytes,
        count: int,
        at: int,
        snapshot: Optional[Snapshot] = None,
    ) -> Tuple[List[Tuple[bytes, bytes]], int]:
        """Range scan of up to ``count`` pairs from ``start_key``."""
        self.stats.scans += 1
        iterator = self.make_iterator(at, snapshot=snapshot)
        iterator.seek(start_key)
        results: List[Tuple[bytes, bytes]] = []
        while iterator.valid and len(results) < count:
            results.append((iterator.key, iterator.value))
            iterator.next()
        done = max(iterator.time, at)
        if self._observe:
            self.obs.histogram("db.scan_ns").record(done - at)
        return results, done

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self, at: int) -> int:
        """Wait out background work and close (memtable stays in the WAL)."""
        t = self.wait_for_background(at)
        self.closed = True
        return t

    def get_property(self, name: str) -> Optional[str]:
        """LevelDB's GetProperty: stringly-typed introspection.

        Supported: ``leveldb.num-files-at-level<N>``, ``leveldb.stats``,
        ``leveldb.sstables``, ``leveldb.approximate-memory-usage``.
        """
        prefix = "leveldb."
        if not name.startswith(prefix):
            return None
        name = name[len(prefix):]
        if name.startswith("num-files-at-level"):
            try:
                level = int(name[len("num-files-at-level"):])
            except ValueError:
                return None
            if not 0 <= level < self.options.num_levels:
                return None
            return str(len(self.versions.current.files[level]))
        if name == "approximate-memory-usage":
            usage = self.mem.approximate_memory_usage
            if self._pending_imm is not None:
                usage += self._pending_imm[0].approximate_memory_usage
            usage += self.table_cache.block_cache.used_bytes
            return str(usage)
        if name == "stats":
            lines = ["Compactions", "Level  Files Size(KB)", "-" * 24]
            for level, files in enumerate(self.versions.current.files):
                if files:
                    size_kb = sum(f.file_size for f in files) // 1024
                    lines.append(f"{level:5d} {len(files):6d} {size_kb:8d}")
            return "\n".join(lines)
        if name == "sstables":
            lines = []
            for level, files in enumerate(self.versions.current.files):
                for meta in files:
                    lines.append(
                        f"level {level}: {meta.number} "
                        f"[{meta.smallest[:-8]!r} .. {meta.largest[:-8]!r}]"
                    )
            return "\n".join(lines)
        return None

    def get_approximate_sizes(
        self, ranges: List[Tuple[bytes, bytes]]
    ) -> List[int]:
        """LevelDB's GetApproximateSizes: on-disk bytes per key range.

        Approximates each file's contribution by linear interpolation of
        the range overlap over the file's key span.
        """
        results = []
        for begin, end in ranges:
            if begin > end:
                raise ValueError(f"inverted range {begin!r} > {end!r}")
            total = 0
            for files in self.versions.current.files:
                for meta in files:
                    if meta.shadow:
                        continue
                    lo, hi = meta.user_range()
                    if hi < begin or lo > end:
                        continue
                    if begin <= lo and hi <= end:
                        total += meta.file_size
                    else:
                        # partial overlap: pro-rate by key-space fraction
                        span = _key_fraction(lo, hi, max(begin, lo), min(end, hi))
                        total += int(meta.file_size * span)
            results.append(total)
        return results

    def describe(self) -> Dict[str, object]:
        """Human-readable snapshot of the store's structure and stats."""
        version = self.versions.current
        levels = {
            f"L{level}": {
                "files": len(files),
                "bytes": sum(f.file_size for f in files),
            }
            for level, files in enumerate(version.files)
            if files
        }
        return {
            "store": self.store_name,
            "levels": levels,
            "memtable_bytes": self.mem.approximate_memory_usage,
            "pending_imm": self._pending_imm is not None,
            "last_sequence": self.versions.last_sequence,
            "stats": {
                "puts": self.stats.puts,
                "gets": self.stats.gets,
                "minor_compactions": self.stats.minor_compactions,
                "major_compactions": self.stats.major_compactions,
                "trivial_moves": self.stats.trivial_moves,
                "seek_compactions": self.stats.seek_compactions,
                "stall_ms": self.stats.stall_ns / 1e6,
                "bytes_flushed": self.stats.bytes_flushed,
                "bytes_compacted_out": self.stats.bytes_compacted_out,
            },
        }
