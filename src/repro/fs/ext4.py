"""Append-only Ext4 model with delayed allocation and exact crash semantics.

Files are append-only — exactly the access pattern of an LSM-tree (WAL,
SSTables and MANIFEST are appended, CURRENT is replaced via rename). That
restriction buys precise durability tracking: an inode's device-resident
data is a *prefix* (``durable_len``) and its crash-visible size is the
prefix recorded by the last committed journal transaction
(``committed_size``). ``data=ordered`` plus delayed allocation guarantee
``durable_len >= committed_size`` whenever a commit applies, so after a
power failure a file is simply truncated to its committed size.

The write path models ext4's *delayed allocation*: a buffered append
only dirties pages and marks the inode delalloc-dirty. Data reaches the
device through **writeback** — the periodic flusher daemon, dirty-page
pressure, or an explicit fsync — and only then does the inode join the
running journal transaction. Consequently an fsync pays for its own
file's writeback plus one cheap commit, never for unrelated dirty data
(no "fsync entanglement"); and a file is crash-recoverable once the
flusher has written it back and the following asynchronous commit has
journaled its inode — the implicit durability NobLSM builds on.

Content is stored as extents that are real bytes, zero-runs or
*deferred* bytes. Zero-runs let multi-gigabyte experiments (Figure 2a)
run without allocating gigabytes. A deferred extent has a known length
and a call that produces its bytes; it is made into real bytes once, by
the first read (or partial crash truncate) that touches it. Everything
the model charges depends on lengths only — sizes, pages, device bytes —
so a writer whose bytes nobody in the process will parse (an SSTable
handed to its store already decoded) never pays to encode them, and a
reader after a crash still finds exactly the bytes that were "written".

An inode lives as long as a path can reach it. Unlink and rename-over
drop the path at once, but the inode (with its bytes, deferred extents
included) stays until the journal commits that namespace change: until
then a crash brings the path back. The commit frees it, as ext4's
orphan processing would, so the model's memory follows the live and
durable namespaces rather than every file ever written. An open
:class:`File` holds its inode itself and keeps reading after that.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.fs.jbd2 import Journal, NsOp, NsOpKind, Transaction
from repro.fs.pagecache import PageCache
from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.obs.spans import NULL_SPAN
from repro.sim.events import EventQueue
from repro.sim.latency import CpuProfile, DEFAULT_CPU
from repro.sim.ssd import SSD
from repro.sim.stats import SyncStats


class FsError(Exception):
    """Base class for file-system errors."""


class FileNotFound(FsError):
    """Path does not exist."""


class FileExists(FsError):
    """Path already exists."""


class NotAppendOnly(FsError):
    """An operation violated the append-only file model."""


class _Deferred:
    """``length`` bytes that ``make()`` returns when somebody reads them."""

    __slots__ = ("length", "make")

    def __init__(self, length: int, make: Callable[[], bytes]) -> None:
        self.length = length
        self.make = make


#: real bytes, a zero-run length, or bytes not made yet
Payload = Union[bytes, int, _Deferred]


class _ExtentList:
    """Append-only byte content as (start, payload) extents."""

    __slots__ = ("_starts", "_payloads", "size")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._payloads: List[Payload] = []
        self.size = 0  # read on every charged read: a plain attribute

    def append(self, data: bytes) -> None:
        if data:
            self._starts.append(self.size)
            self._payloads.append(bytes(data))
            self.size += len(data)

    def append_zeros(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative zero-run {nbytes}")
        if nbytes:
            self._starts.append(self.size)
            self._payloads.append(int(nbytes))
            self.size += nbytes

    def append_deferred(self, nbytes: int, make: Callable[[], bytes]) -> None:
        """Append ``nbytes`` that ``make()`` produces on first touch."""
        if nbytes < 0:
            raise ValueError(f"negative deferred extent {nbytes}")
        if nbytes:
            self._starts.append(self.size)
            self._payloads.append(_Deferred(nbytes, make))
            self.size += nbytes

    def _materialise(self, idx: int) -> bytes:
        """Turn the deferred extent at ``idx`` into real bytes, once."""
        deferred = self._payloads[idx]
        data = deferred.make()
        if len(data) != deferred.length:
            raise ValueError(
                f"deferred extent promised {deferred.length} bytes, "
                f"made {len(data)}"
            )
        self._payloads[idx] = data
        return data

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise ValueError(f"bad read range ({offset}, {nbytes})")
        end = min(offset + nbytes, self.size)
        if offset >= end:
            return b""
        pieces: List[bytes] = []
        idx = bisect.bisect_right(self._starts, offset) - 1
        pos = offset
        while pos < end and idx < len(self._payloads):
            start = self._starts[idx]
            payload = self._payloads[idx]
            if isinstance(payload, _Deferred):
                payload = self._materialise(idx)
            length = payload if isinstance(payload, int) else len(payload)
            lo = pos - start
            hi = min(end - start, length)
            if isinstance(payload, int):
                pieces.append(b"\x00" * (hi - lo))
            else:
                pieces.append(payload[lo:hi])
            pos = start + hi
            idx += 1
        return b"".join(pieces)

    def truncate(self, new_size: int) -> None:
        """Drop everything past ``new_size`` (crash recovery)."""
        if new_size >= self.size:
            return
        if new_size < 0:
            raise ValueError(f"negative truncate {new_size}")
        keep = bisect.bisect_right(self._starts, max(new_size - 1, 0))
        del self._starts[keep:]
        del self._payloads[keep:]
        if self._payloads:
            payload = self._payloads[-1]
            cut = new_size - self._starts[-1]
            if cut == 0:
                del self._starts[-1]
                del self._payloads[-1]
            elif isinstance(payload, int):
                self._payloads[-1] = cut
            elif isinstance(payload, _Deferred):
                # a torn file keeps a prefix of what was written; an
                # extent that survives whole stays unmade
                if cut < payload.length:
                    self._payloads[-1] = self._materialise(-1)[:cut]
            else:
                self._payloads[-1] = payload[:cut]
        self.size = new_size


@dataclass(slots=True)
class Inode:
    """In-memory inode: live content plus durability watermarks."""

    ino: int
    data: _ExtentList = field(default_factory=_ExtentList)
    durable_len: int = 0  # bytes written back to the device
    committed_size: int = 0  # size recorded by the last committed txn
    ever_committed: bool = False
    nlink: int = 1
    last_read_end: int = -1  # sequential-read detection

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dirty_bytes(self) -> int:
        return max(self.size - self.durable_len, 0)


class File:
    """Handle to an open file. All mutating calls are time-explicit."""

    __slots__ = ("_fs", "path", "_inode", "closed")

    def __init__(self, fs: "Ext4", path: str, inode: Inode) -> None:
        self._fs = fs
        self.path = path
        self._inode = inode
        self.closed = False

    @property
    def ino(self) -> int:
        return self._inode.ino

    @property
    def size(self) -> int:
        return self._inode.size

    def append(self, data: bytes, at: int) -> int:
        return self._fs.append(self, data, at)

    def append_zeros(self, nbytes: int, at: int) -> int:
        return self._fs.append_zeros(self, nbytes, at)

    def append_deferred(
        self, nbytes: int, make: Callable[[], bytes], at: int
    ) -> int:
        return self._fs.append_deferred(self, nbytes, make, at)

    def write_direct(self, nbytes: int, at: int, data: bytes = b"") -> int:
        return self._fs.write_direct(self, nbytes, at, data)

    def read(self, offset: int, nbytes: int, at: int) -> Tuple[bytes, int]:
        return self._fs.read(self, offset, nbytes, at)

    def charge_read(self, offset: int, nbytes: int, at: int) -> Tuple[int, int]:
        return self._fs.charge_read(self, offset, nbytes, at)

    def fsync(self, at: int, reason: str = "fsync") -> int:
        return self._fs.fsync(self, at, reason)

    def fdatasync(self, at: int, reason: str = "fdatasync") -> int:
        # LevelDB calls fdatasync; on Ext4 it behaves almost identically
        # to fsync (Section 2.2), and so it does here.
        return self._fs.fsync(self, at, reason)

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:
        return f"File({self.path!r}, ino={self.ino}, size={self.size})"


class Ext4:
    """The simulated file system.

    One instance owns the namespace, the inodes, the page cache and is
    attached to a :class:`~repro.fs.jbd2.Journal`. Every blocking call
    takes the caller's submission time ``at``, first drains due background
    events, and returns the completion time.
    """

    #: default flusher wake-up period (virtual ns); scaled runs divide it
    DEFAULT_WRITEBACK_INTERVAL = 1_000_000_000
    #: default writeback batch (Linux submits ~16 MiB at a time); a sync
    #: arriving mid-writeback queues behind at most one batch, not the
    #: whole dirty backlog
    DEFAULT_WRITEBACK_CHUNK = 16 * 1024 * 1024

    def __init__(
        self,
        events: EventQueue,
        device: SSD,
        journal: Journal,
        pagecache: PageCache,
        cpu: CpuProfile = DEFAULT_CPU,
        sync_stats: Optional[SyncStats] = None,
        writeback_interval_ns: int = DEFAULT_WRITEBACK_INTERVAL,
        writeback_chunk_bytes: int = DEFAULT_WRITEBACK_CHUNK,
        hard_dirty_ratio: float = 0.25,
        obs: Optional[MetricRegistry] = None,
    ) -> None:
        self.events = events
        self.clock = events.clock
        self.device = device
        self.journal = journal
        self.pagecache = pagecache
        self.cpu = cpu
        self.sync_stats = sync_stats if sync_stats is not None else SyncStats()
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._observe = self.obs.enabled
        if self._observe:
            self.obs.register_source("sync", self.sync_stats.snapshot)
            self.obs.register_source("pagecache", self.pagecache.snapshot)
            self.obs.register_source("fs", self.snapshot)
            self._fsync_hist = self.obs.histogram("fs.fsync_ns")
            self._writeback_bytes = self.obs.counter("fs.writeback_bytes")
            self._throttle_counter = self.obs.counter("fs.throttle_ns")
        self.writeback_interval_ns = max(int(writeback_interval_ns), 1)
        self.writeback_chunk_bytes = max(int(writeback_chunk_bytes), 4096)
        self.hard_dirty_ratio = hard_dirty_ratio
        # balance_dirty_pages threshold, computed once (capacity and
        # ratio are fixed at construction)
        self._hard_dirty_limit = int(
            pagecache.capacity_bytes * hard_dirty_ratio
        )
        self._namespace: Dict[str, int] = {}
        self._durable_namespace: Dict[str, int] = {}
        self._inodes: Dict[int, Inode] = {}
        self._ino_counter = itertools.count(1)
        self._delalloc: "set[int]" = set()  # inodes with dirty data
        self._flusher_timer = None
        self._flusher_busy_until = 0  # previous round's device completion
        self.flusher_runs = 0
        self.throttle_ns = 0
        self.crashes = 0
        journal.datasource = self
        pagecache.on_dirty_threshold = self._on_dirty_pressure

    # ------------------------------------------------------------------
    # journal datasource protocol
    # ------------------------------------------------------------------

    def dirty_extent(self, ino: int) -> Tuple[int, int]:
        inode = self._inodes.get(ino)
        if inode is None:
            return (0, 0)
        return (inode.durable_len, inode.size)

    def apply_commit(self, txn: Transaction, when: int) -> None:
        """Make a committed transaction's effects crash-recoverable."""
        for ino, committed in txn.commit_sizes.items():
            inode = self._inodes.get(ino)
            if inode is None:
                continue
            if committed > inode.durable_len:
                inode.durable_len = committed
            if committed > inode.committed_size:
                inode.committed_size = committed
            inode.ever_committed = True
            self.pagecache.clean_inode(ino, committed)
        durable = self._durable_namespace
        for op in txn.ns_ops:
            if op.kind is NsOpKind.CREATE:
                durable[op.path] = op.ino
            elif op.kind is NsOpKind.UNLINK:
                durable.pop(op.path, None)
                self._release(op.ino)
            elif op.kind is NsOpKind.RENAME:
                ino = durable.pop(op.path, op.ino)
                displaced = durable.get(op.dst_path)
                durable[op.dst_path] = ino
                if displaced is not None:
                    self._release(displaced)

    def _release(self, ino: int) -> None:
        """Free an inode whose last path's removal just became durable:
        no namespace names it, so no crash can bring it back."""
        if self._inodes[ino].nlink == 0:
            del self._inodes[ino]

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    def _tick(self, at: int) -> int:
        """Fire due background events, return the (possibly same) time."""
        self.events.run_until(max(at, self.clock.now))
        return at

    def exists(self, path: str) -> bool:
        return path in self._namespace

    def list_dir(self, prefix: str) -> List[str]:
        """Paths that start with ``prefix`` (our namespace is flat)."""
        return sorted(p for p in self._namespace if p.startswith(prefix))

    def stat_size(self, path: str) -> int:
        return self._get_inode(path).size

    def durable_namespace(self) -> Dict[str, int]:
        """The crash-surviving view of the namespace: path -> inode number.

        A path appears here once the journal transaction covering its
        create (or rename) has committed; an unlinked path stays until
        the unlink's transaction commits. This is exactly the namespace
        :meth:`crash` restores.
        """
        return dict(self._durable_namespace)

    def durable_stat(self, path: str) -> Optional[int]:
        """Crash-durable size of ``path``, or ``None`` if it would vanish.

        The durable size is the prefix recorded by the last committed
        journal transaction (``committed_size``) — the length the file
        would be truncated to by a power failure right now. Paths whose
        create never committed return ``None``: they do not survive.
        """
        ino = self._durable_namespace.get(path)
        if ino is None:
            return None
        return self._inodes[ino].committed_size

    def _get_inode(self, path: str) -> Inode:
        ino = self._namespace.get(path)
        if ino is None:
            raise FileNotFound(path)
        return self._inodes[ino]

    def create(self, path: str, at: int) -> Tuple[File, int]:
        """Create a new empty file; journals the namespace update."""
        self._tick(at)
        if path in self._namespace:
            raise FileExists(path)
        inode = Inode(ino=next(self._ino_counter))
        self._inodes[inode.ino] = inode
        self._namespace[path] = inode.ino
        self.journal.add_ns_op(NsOp(NsOpKind.CREATE, path, inode.ino))
        return File(self, path, inode), at + self.cpu.syscall_ns

    def open(self, path: str, at: int) -> Tuple[File, int]:
        self._tick(at)
        inode = self._get_inode(path)
        return File(self, path, inode), at + self.cpu.syscall_ns

    def unlink(self, path: str, at: int) -> int:
        """Remove a path; durable only once the journal commits."""
        self._tick(at)
        inode = self._get_inode(path)
        del self._namespace[path]
        self._drop_link(inode)
        self.journal.add_ns_op(NsOp(NsOpKind.UNLINK, path, inode.ino))
        return at + self.cpu.syscall_ns

    def _drop_link(self, inode: Inode) -> None:
        """The inode lost its only path (unlink or rename-over).

        Everything volatile about it goes now; the inode itself stays
        until the namespace change commits (:meth:`_release`).
        """
        ino = inode.ino
        inode.nlink = 0
        self._delalloc.discard(ino)
        self.pagecache.drop_inode(ino)
        self.device.forget_stream(ino)
        if self._observe:
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.drop_inode(ino)
        syscalls = getattr(self, "nob_syscalls", None)
        if syscalls is not None:
            syscalls.on_unlink(ino)

    def rename(self, src: str, dst: str, at: int) -> int:
        """Atomically replace ``dst`` with ``src`` (journaled).

        If ``dst`` exists it is implicitly unlinked, as POSIX requires.
        Like ext4's ``auto_da_alloc`` heuristic, a rename writes the
        source's delalloc data back first, so a replace-via-rename never
        leaves a zero-length file after a crash.
        """
        self._tick(at)
        ino = self._namespace.get(src)
        if ino is None:
            raise FileNotFound(src)
        _, at = self.writeback_inode(ino, at)
        displaced = self._namespace.get(dst)
        if displaced is not None and displaced != ino:
            self._drop_link(self._inodes[displaced])
        del self._namespace[src]
        self._namespace[dst] = ino
        self.journal.add_ns_op(NsOp(NsOpKind.RENAME, src, ino, dst_path=dst))
        return at + self.cpu.syscall_ns

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def _record_write(self, inode: Inode, nbytes: int, at: int) -> int:
        """Dirty pages, mark delalloc, throttle if over the hard limit."""
        self.pagecache.write(inode.ino, inode.size - nbytes, nbytes)
        self._delalloc.add(inode.ino)
        self._arm_flusher()
        if self.pagecache.dirty_bytes > self._hard_dirty_limit:
            # balance_dirty_pages: the writer blocks until writeback
            # drains the backlog (it becomes device-bound).
            drained = self.writeback_all(at)
            self.throttle_ns += max(drained - at, 0)
            if self._observe:
                self._throttle_counter.inc(max(drained - at, 0))
            return drained
        return at

    def append(self, handle: File, data: bytes, at: int) -> int:
        """Buffered append: page-cache memcpy; allocation is delayed."""
        self._tick(at)
        inode = handle._inode
        inode.data.append(data)
        t = at + self.cpu.memcpy_ns(len(data))
        return self._record_write(inode, len(data), t)

    def append_zeros(self, handle: File, nbytes: int, at: int) -> int:
        """Buffered append of a zero-run (large synthetic writes)."""
        self._tick(at)
        inode = handle._inode
        inode.data.append_zeros(nbytes)
        t = at + self.cpu.memcpy_ns(nbytes)
        return self._record_write(inode, nbytes, t)

    def append_deferred(
        self, handle: File, nbytes: int, make: Callable[[], bytes], at: int
    ) -> int:
        """Buffered append of ``nbytes`` whose content ``make()`` returns
        when first read; charged exactly like :meth:`append`."""
        self._tick(at)
        inode = handle._inode
        inode.data.append_deferred(nbytes, make)
        t = at + self.cpu.memcpy_ns(nbytes)
        return self._record_write(inode, nbytes, t)

    def write_direct(self, handle: File, nbytes: int, at: int, data: bytes = b"") -> int:
        """O_DIRECT-style append: bypasses the cache, blocks on the device.

        Allocation is immediate with direct I/O, so the inode's size
        change joins the running transaction right away.
        """
        self._tick(at)
        inode = handle._inode
        if data:
            if len(data) != nbytes:
                raise ValueError("data length does not match nbytes")
            inode.data.append(data)
        else:
            inode.data.append_zeros(nbytes)
        done = self.device.write(nbytes, at, sequential=True, stream=inode.ino)
        inode.durable_len = inode.size
        self.journal.join(inode.ino, inode.durable_len)
        self.events.run_until(done)
        return done

    # ------------------------------------------------------------------
    # writeback (the flusher daemon and dirty-pressure handling)
    # ------------------------------------------------------------------

    def writeback_inode(
        self, ino: int, at: int, max_bytes: Optional[int] = None
    ) -> "Tuple[int, int]":
        """Write (up to ``max_bytes`` of) one inode's dirty data back.

        This is where delayed allocation resolves: data goes to the
        device first, then the inode (with its new durable prefix) enters
        the running transaction — data=ordered by construction. Returns
        ``(bytes_written, completion_time)``.
        """
        inode = self._inodes.get(ino)
        if inode is None or inode.nlink == 0:
            self._delalloc.discard(ino)
            return 0, at
        delta = inode.dirty_bytes
        if max_bytes is not None:
            delta = min(delta, max_bytes)
        t = at
        if delta > 0:
            t = self.device.write(delta, t, sequential=True, stream=ino)
            inode.durable_len += delta
            if self._observe:
                self._writeback_bytes.inc(delta)
        self.pagecache.clean_inode(ino, inode.durable_len)
        if inode.dirty_bytes == 0:
            self._delalloc.discard(ino)
        if delta > 0:
            self.journal.join(ino, inode.durable_len)
        return delta, t

    def writeback_all(self, at: int) -> int:
        """Write back every delalloc-dirty inode (dirty-pressure path).

        On a multi-channel device each inode's batch is submitted at
        ``at`` and lands on its affinity channel, so independent files
        drain in parallel; the single-channel path chains submissions,
        which on one serial timeline produces the same completion time.
        """
        if self.device.num_channels > 1:
            done = at
            for ino in sorted(self._delalloc):
                _, end = self.writeback_inode(ino, at)
                done = max(done, end)
            return done
        t = at
        for ino in sorted(self._delalloc):
            _, t = self.writeback_inode(ino, t)
        return t

    def _arm_flusher(self, delay: Optional[int] = None) -> None:
        if self._flusher_timer is None and self._delalloc:
            self._flusher_timer = self.events.schedule_after(
                self.writeback_interval_ns if delay is None else delay,
                self._flusher_tick,
            )

    def _flusher_tick(self, when: int) -> None:
        """One paced writeback batch; reschedules itself while dirty.

        At most one ``writeback_chunk_bytes`` batch is in flight at a
        time, and a round never starts before the previous round's
        device completion — the flusher drains at device speed, dirty
        pages accumulate in between, and writers that outrun the device
        eventually hit the hard dirty limit (backpressure).
        """
        self._flusher_timer = None
        if when < self._flusher_busy_until:
            self._arm_flusher(delay=self._flusher_busy_until - when)
            return
        self.flusher_runs += 1
        span = NULL_SPAN
        tracer = None
        if self._observe:
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.push_track("flusher")
            span = self.obs.start_span("fs.writeback", when)
        budget = self.writeback_chunk_bytes
        t = when
        if self.device.num_channels > 1:
            # fan the batch out: every inode's writeback is submitted at
            # `when` and queues on its own affinity channel, so distinct
            # files (a compaction output, the WAL, a fresh L0 table)
            # drain concurrently instead of behind one another
            for ino in sorted(self._delalloc):
                if budget <= 0:
                    break
                written, end = self.writeback_inode(
                    ino, when, max_bytes=budget
                )
                budget -= written
                t = max(t, end)
        else:
            for ino in sorted(self._delalloc):
                if budget <= 0:
                    break
                written, t = self.writeback_inode(ino, t, max_bytes=budget)
                budget -= written
        span.annotate(bytes=self.writeback_chunk_bytes - budget)
        span.end(t)
        if tracer is not None:
            tracer.pop_track()
        self._flusher_busy_until = t
        if self._delalloc:
            self._arm_flusher(delay=max(t - self.clock.now, 1))
        # otherwise re-armed by the next dirtying write

    def _on_dirty_pressure(self) -> None:
        """Background dirty-ratio crossed: wake the flusher now, commit.

        The flusher still drains in paced chunks at device speed — this
        only pulls its next wake-up forward. Writers that outrun the
        device keep dirtying pages until the *hard* limit, where
        ``_record_write`` blocks them (balance_dirty_pages).
        """
        if self._flusher_timer is not None:
            self._flusher_timer.cancel()
            self._flusher_timer = None
        self._arm_flusher(delay=1)
        self.journal.request_commit()

    def charge_read(
        self, handle: File, offset: int, nbytes: int, at: int
    ) -> Tuple[int, int]:
        """Everything a read costs, without fetching the bytes.

        Returns ``(length, completion)`` where ``length`` is the request
        clamped to the file. Page-cache misses cost device reads. For a
        caller that already holds what the bytes decode to.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError(f"bad read range ({offset}, {nbytes})")
        self._tick(at)
        inode = handle._inode
        length = max(min(offset + nbytes, inode.size) - offset, 0)
        miss_bytes = self.pagecache.read_misses(inode.ino, offset, length)
        t = at + self.cpu.memcpy_ns(length)
        if miss_bytes:
            sequential = offset == inode.last_read_end
            t = self.device.read(miss_bytes, t, sequential=sequential)
            self.events.run_until(t)
        inode.last_read_end = offset + length
        return length, t

    def read(self, handle: File, offset: int, nbytes: int, at: int) -> Tuple[bytes, int]:
        """Read bytes: :meth:`charge_read` plus the data."""
        length, t = self.charge_read(handle, offset, nbytes, at)
        return handle._inode.data.read(offset, length), t

    def fsync(self, handle: File, at: int, reason: str = "fsync") -> int:
        """Blocking sync: write back *this file's* data, force a commit.

        The cost the paper measures: the file's own dirty pages go to the
        device, then the journal commit (journal blocks + FLUSH barrier)
        makes its inode durable. Unrelated dirty data stays in the cache
        (delayed allocation keeps it out of the transaction).
        """
        self._tick(at)
        inode = handle._inode
        dirty = inode.dirty_bytes
        self.sync_stats.record(dirty, reason)
        t = at + self.cpu.syscall_ns
        _, t = self.writeback_inode(inode.ino, t)
        t = self.journal.wait_for_inode(inode.ino, t)
        if inode.committed_size < inode.durable_len:
            # wait_for_inode committed the txn holding this inode, which
            # recorded its size; for a data-only change there is no txn and
            # the durable prefix already covers everything written back.
            inode.committed_size = inode.durable_len
            inode.ever_committed = True
        self.events.run_until(t)
        if self._observe:
            self._fsync_hist.record(t - at)
        return t

    def snapshot(self) -> Dict[str, object]:
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "files": len(self._namespace),
            "delalloc_inodes": len(self._delalloc),
            "flusher_runs": self.flusher_runs,
            "throttle_ns": self.throttle_ns,
            "crashes": self.crashes,
        }

    # ------------------------------------------------------------------
    # crash
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power failure: volatile state vanishes; journal recovery runs.

        Committed metadata and written-back data survive; everything else
        — page cache, running/in-flight transactions, uncommitted files,
        file tails past their committed size — is lost.
        """
        self.crashes += 1
        self.journal.discard_volatile()
        self.pagecache.drop_all()
        self._delalloc.clear()
        if self._flusher_timer is not None:
            self._flusher_timer.cancel()
            self._flusher_timer = None
        self._namespace = dict(self._durable_namespace)
        survivors: Dict[int, Inode] = {}
        for path, ino in self._namespace.items():
            inode = self._inodes[ino]
            inode.data.truncate(inode.committed_size)
            inode.durable_len = inode.committed_size
            inode.nlink = 1
            inode.last_read_end = -1
            survivors[ino] = inode
        self._inodes = survivors
        syscalls = getattr(self, "nob_syscalls", None)
        if syscalls is not None:
            syscalls.reset()
