"""JBD2-style journaling.

Ext4 delegates crash consistency to JBD2: metadata modified by file
operations joins a *running* transaction; the transaction is committed
either synchronously (an application called fsync) or asynchronously —
every ``commit_interval`` (5 s by default) or when the page cache's dirty
ratio crosses its threshold, whichever comes first (Section 2.2 of the
paper).

Ext4 uses *delayed allocation*: a buffered write only dirties pages; the
inode joins a journal transaction when its data is **written back**
(blocks are allocated then, and ``data=ordered`` is satisfied because the
data reaches the device before the metadata commits). A commit therefore
writes only journal blocks plus a FLUSH — it never has to write file
data, which is why an fsync of one small file stays cheap even while
gigabytes of unrelated dirty data sit in the page cache. Once a commit
completes, both metadata and data of every covered file are
crash-recoverable — the property NobLSM exploits instead of calling
fsync.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.obs.spans import NULL_SPAN
from repro.sim.clock import seconds
from repro.sim.events import Event, EventQueue
from repro.sim.ssd import SSD

JOURNAL_BLOCK = 4096

CommitCallback = Callable[["Transaction", int], None]


class TxnState(enum.Enum):
    RUNNING = "running"
    COMMITTING = "committing"
    COMMITTED = "committed"


class NsOpKind(enum.Enum):
    CREATE = "create"
    UNLINK = "unlink"
    RENAME = "rename"


@dataclass(frozen=True, slots=True)
class NsOp:
    """A journaled namespace operation, applied durably at commit."""

    kind: NsOpKind
    path: str
    ino: int = -1
    dst_path: str = ""


@dataclass(slots=True)
class Transaction:
    """One JBD2 transaction: a set of inodes plus namespace operations."""

    tid: int
    state: TxnState = TxnState.RUNNING
    inodes: Set[int] = field(default_factory=set)
    ns_ops: List[NsOp] = field(default_factory=list)
    commit_sizes: Dict[int, int] = field(default_factory=dict)
    commit_started_at: int = -1
    commit_done_at: int = -1

    @property
    def empty(self) -> bool:
        return not self.inodes and not self.ns_ops


@dataclass(frozen=True)
class JournalConfig:
    """Tunables of the journaling machinery.

    ``commit_interval_ns`` is Ext4's async-commit period (5 s default);
    ``periodic`` disables the timer entirely for ablations.
    """

    commit_interval_ns: int = seconds(5)
    periodic: bool = True
    block_size: int = JOURNAL_BLOCK


class Journal:
    """The JBD2 engine shared by the file system and every application.

    The journal does not know about files; it asks its ``datasource`` (the
    file system) for dirty sizes and tells it when commits become durable.
    The datasource must provide:

    - ``dirty_extent(ino) -> (start, end)``: the not-yet-written-back byte
      range of an inode's data;
    - ``apply_commit(txn, when)``: make the transaction's effects durable.
    """

    def __init__(
        self,
        events: EventQueue,
        device: SSD,
        config: Optional[JournalConfig] = None,
        obs: Optional[MetricRegistry] = None,
    ) -> None:
        self.events = events
        self.clock = events.clock
        self.device = device
        self.config = config if config is not None else JournalConfig()
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._observe = self.obs.enabled
        if self._observe:
            self.obs.register_source("journal", self.snapshot)
        self.datasource = None  # set by Ext4.attach
        self._tids = itertools.count(1)
        self._running: Optional[Transaction] = None
        self._committing: Optional[Transaction] = None
        self._last_commit_done = 0
        #: inode -> the running or committing transaction holding it
        self._ino_txn: Dict[int, Transaction] = {}
        #: tid -> completion event of an async commit not yet applied
        self._in_flight: Dict[int, Event] = {}
        self.commits = 0
        self.forced_commits = 0
        self.committed_tids: List[int] = []
        self.on_commit: List[CommitCallback] = []
        self._timer = None
        if self.config.periodic:
            self._arm_timer()

    # ------------------------------------------------------------------
    # transaction membership
    # ------------------------------------------------------------------

    @property
    def running(self) -> Optional[Transaction]:
        return self._running

    @property
    def committing(self) -> Optional[Transaction]:
        return self._committing

    def _ensure_running(self) -> Transaction:
        if self._running is None:
            self._running = Transaction(tid=next(self._tids))
        return self._running

    def join(self, ino: int, durable_size: int = 0) -> Transaction:
        """Add an inode's metadata to the running transaction.

        ``durable_size`` is the inode's written-back data length at join
        time (the size the committed inode will record). With delayed
        allocation this is called at *writeback* time, so data always
        reaches the device before the metadata that describes it.
        """
        txn = self._ensure_running()
        txn.inodes.add(ino)
        sizes = txn.commit_sizes
        previous = sizes.get(ino)
        if previous is None or durable_size > previous:
            sizes[ino] = durable_size
        self._ino_txn[ino] = txn
        return txn

    def add_ns_op(self, op: NsOp) -> Transaction:
        """Journal a namespace operation (create/unlink/rename)."""
        txn = self._ensure_running()
        txn.ns_ops.append(op)
        if op.ino >= 0:
            txn.inodes.add(op.ino)
            self._ino_txn[op.ino] = txn
        return txn

    def txn_of(self, ino: int) -> Optional[Transaction]:
        """The transaction currently holding an inode's dirty metadata."""
        return self._ino_txn.get(ino)

    # ------------------------------------------------------------------
    # commit machinery
    # ------------------------------------------------------------------

    def _arm_timer(self) -> None:
        self._timer = self.events.schedule_after(
            self.config.commit_interval_ns, self._periodic_tick
        )

    def _periodic_tick(self, when: int) -> None:
        if self._running is not None and not self._running.empty:
            self.commit_async(when)
        self._arm_timer()

    def request_commit(self) -> None:
        """Dirty-ratio hook from the page cache: commit soon (async)."""
        if self._running is not None and not self._running.empty:
            self.commit_async(self.clock.now)

    def _journal_write_bytes(self, txn: Transaction) -> int:
        # descriptor + commit block, plus the modified metadata blocks:
        # inode-table blocks hold ~16 inodes each, directory blocks a
        # few dozen entries.
        metadata_blocks = (len(txn.inodes) + 15) // 16
        dir_blocks = (len(txn.ns_ops) + 31) // 32
        return (2 + metadata_blocks + dir_blocks) * self.config.block_size

    def _perform_commit(
        self, txn: Transaction, at: int, forced: bool = False
    ) -> int:
        """Run the commit for ``txn``; returns completion time.

        Member inodes' data is already on the device (delayed allocation
        joins them at writeback), so a commit is journal blocks + FLUSH.
        """
        if self.datasource is None:
            raise RuntimeError("journal has no attached file system")
        txn.state = TxnState.COMMITTING
        txn.commit_started_at = at
        start = max(at, self._last_commit_done)
        journal_bytes = self._journal_write_bytes(txn)
        span = NULL_SPAN
        tracer = None
        if self._observe:
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.push_track("journal")
            span = self.obs.start_span(
                "journal.commit",
                at,
                tid=txn.tid,
                inodes=len(txn.inodes),
                ns_ops=len(txn.ns_ops),
                journal_bytes=journal_bytes,
                forced=forced,
            )
        # the journal is one physically contiguous region: all commit
        # blocks share one stream so they stay ordered on one channel;
        # the FLUSH that follows is a cross-channel barrier regardless
        t = self.device.write(
            journal_bytes, start, sequential=True, stream="jbd2"
        )
        t = self.device.flush(t)
        txn.commit_done_at = t
        self._last_commit_done = t
        self.commits += 1
        span.end(t)
        if tracer is not None:
            tracer.pop_track()
            tracer.note_commit(txn.inodes, span)
        return t

    def _finalize(self, txn: Transaction, when: int) -> None:
        if txn.state is TxnState.COMMITTED:
            return
        txn.state = TxnState.COMMITTED
        self.committed_tids.append(txn.tid)
        self._in_flight.pop(txn.tid, None)
        # a member inode's entry points here unless a later transaction
        # took it over; committed transactions are never looked up
        ino_txn = self._ino_txn
        for ino in txn.inodes:
            if ino_txn.get(ino) is txn:
                del ino_txn[ino]
        if self._committing is txn:
            self._committing = None
        self.datasource.apply_commit(txn, when)
        for callback in self.on_commit:
            callback(txn, when)

    def commit_async(self, at: int) -> Optional[Transaction]:
        """Close the running transaction and commit it off the critical path.

        The device time is consumed immediately on the shared timeline
        (delaying later I/O), but no caller blocks; durability is applied
        by an event at the commit's completion time.
        """
        txn = self._running
        if txn is None or txn.empty:
            return None
        self._running = None
        done = self._perform_commit(txn, at)
        self._committing = txn
        self._in_flight[txn.tid] = self.events.schedule(
            done, lambda when, t=txn: self._finalize(t, when)
        )
        return txn

    def commit_sync(self, at: int) -> int:
        """Force-commit the running transaction; caller blocks to completion."""
        self.forced_commits += 1
        txn = self._running
        if txn is None or txn.empty:
            # Nothing to commit; wait out any in-flight commit.
            if self._committing is not None:
                return max(at, self._committing.commit_done_at)
            return at
        self._running = None
        older = self._committing
        done = self._perform_commit(txn, at, forced=True)
        if older is not None:
            # Apply the older in-flight commit first so durable state is
            # always applied in tid order (its pending event becomes a no-op).
            self._finalize(older, older.commit_done_at)
        self._finalize(txn, done)
        return done

    def wait_for_inode(self, ino: int, at: int) -> int:
        """fsync path: make the inode's transaction durable, return when.

        - inode in the running transaction: force a synchronous commit;
        - inode in the committing transaction: wait for its completion;
        - otherwise: already durable, no journal work.
        """
        txn = self._ino_txn.get(ino)
        if txn is None:
            return at
        if txn.state is TxnState.RUNNING:
            return self.commit_sync(at)
        return max(at, txn.commit_done_at)

    def snapshot(self) -> Dict[str, object]:
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "commits": self.commits,
            "forced_commits": self.forced_commits,
            "committed_tids": len(self.committed_tids),
            "running": self._running is not None and not self._running.empty,
            "committing": self._committing is not None,
        }

    # ------------------------------------------------------------------
    # crash support
    # ------------------------------------------------------------------

    def discard_volatile(self) -> None:
        """Power failure: running and in-flight transactions are lost.

        An in-flight commit's completion event is cancelled too, so its
        transaction is never applied after the crash.
        """
        self._running = None
        self._committing = None
        for event in self._in_flight.values():
            event.cancel()
        self._in_flight.clear()
        self._ino_txn.clear()
        if self._timer is not None:
            self._timer.cancel()
        if self.config.periodic:
            self._arm_timer()
