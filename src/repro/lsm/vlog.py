"""WiscKey-style value log for the ``noblsm-kv`` store variant.

Large values leave the LSM at flush time and live in append-only
*segment* files (``NNNNNN.vlg``); the tree keeps a small pointer in the
value slot instead. Stored values carry a one-byte marker so readers can
tell the two apart without a new internal-key type:

- inline:  ``b"\\x00" + raw_value``
- pointer: ``b"\\x01" + varint(segment) + varint(offset) + varint(length)``

Separation is decided when a memtable is dumped, not when the write
arrives — the WAL and memtable hold the full (inline-marked) value, so
log replay and the durability oracle are untouched.

Durability invariant: a table whose pointers may become visible is only
made durable *after* the head segment holding those values is
fdatasync'd (minor dumps), or its pointers are re-validated at recovery
and the table rolled back to its shadow predecessors (major outputs, the
NobLSM way). Segment reclamation is commit-gated exactly like shadow
retirement: a segment is unlinked only once every table that dropped or
relocated references into it has passed ``is_committed``.

Pointer decode goes through a content-keyed memo (encoded pointer bytes
-> decoded triple): hits are correct by content equality, and
virtual-time charges are identical on hit and miss (decoding is
host-side CPU the simulation never bills for).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.fs.ext4 import Ext4, File
from repro.lsm.filenames import parse_file_name, vlog_file_name
from repro.lsm.format import CorruptionError, get_varint, put_varint
from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.obs.spans import NULL_SPAN

INLINE_PREFIX = b"\x00"
POINTER_PREFIX = b"\x01"


def encode_inline(raw: bytes) -> bytes:
    """Mark a value as stored directly in the LSM."""
    return INLINE_PREFIX + raw


def encode_pointer(segment: int, offset: int, length: int) -> bytes:
    """Encode a ``<segment, offset, length>`` vLog pointer."""
    return (
        POINTER_PREFIX
        + put_varint(segment)
        + put_varint(offset)
        + put_varint(length)
    )


def is_pointer(stored: bytes) -> bool:
    return stored[:1] == POINTER_PREFIX


#: content-keyed pointer-decode bypass: pointer byte strings repeat on
#: every read of a hot key, so decode each distinct encoding once
_POINTER_CACHE: "OrderedDict[bytes, Tuple[int, int, int]]" = OrderedDict()
_POINTER_CACHE_CAPACITY = 4096


def decode_pointer(stored: bytes) -> Tuple[int, int, int]:
    """Decode a pointer value; returns (segment, offset, length)."""
    key = bytes(stored)
    cached = _POINTER_CACHE.get(key)
    if cached is not None:
        _POINTER_CACHE.move_to_end(key)
        return cached
    if not is_pointer(key):
        raise CorruptionError("not a vlog pointer")
    segment, pos = get_varint(key, 1)
    offset, pos = get_varint(key, pos)
    length, pos = get_varint(key, pos)
    if pos != len(key):
        raise CorruptionError("trailing bytes after vlog pointer")
    decoded = (segment, offset, length)
    if len(_POINTER_CACHE) >= _POINTER_CACHE_CAPACITY:
        _POINTER_CACHE.popitem(last=False)
    _POINTER_CACHE[key] = decoded
    return decoded


def decode_stored(stored: bytes) -> bytes:
    """Strip the inline marker (pointer values need a vLog read)."""
    if stored[:1] != INLINE_PREFIX:
        raise CorruptionError("expected an inline-marked value")
    return stored[1:]


class VLog:
    """Segmented append-only value log bound to one database directory.

    Tracks, per segment: appended bytes (``size``), live referenced
    bytes (maintained by the store's compaction hooks), and the commit
    barrier — the inodes that must pass ``is_committed`` before the
    segment may be unlinked.
    """

    def __init__(
        self,
        fs: Ext4,
        dbname: str,
        segment_bytes: int,
        gc_garbage_ratio: float,
        obs: Optional[MetricRegistry] = None,
    ) -> None:
        self.fs = fs
        self.dbname = dbname
        self.segment_bytes = segment_bytes
        self.gc_garbage_ratio = gc_garbage_ratio
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._observe = self.obs.enabled
        if self._observe:
            self._append_counter = self.obs.counter("vlog.append")
            self._append_bytes = self.obs.counter("vlog.append_bytes")
            self._relocated_bytes = self.obs.counter("vlog.gc.relocated_bytes")
            self._reclaimed_counter = self.obs.counter("vlog.reclaimed_segments")
        self._sizes: Dict[int, int] = {}
        self._live: Dict[int, int] = {}
        self._sealed: Set[int] = set()
        self._retiring: Set[int] = set()
        self._barriers: Dict[int, List[int]] = {}
        self._head: Optional[File] = None
        self._head_number: Optional[int] = None
        #: segments with appends not yet fdatasync'd — the head may roll
        #: mid-dump, so this can hold more than the current head
        self._dirty: Dict[int, File] = {}
        self._readers: Dict[int, File] = {}
        self.appends = 0
        self.appended_bytes = 0
        self.relocated_bytes = 0
        self.reclaimed_segments = 0
        # adopt segments already on disk (reopen after close or crash);
        # live counts are rebuilt by the store from the recovered version
        next_number = 0
        for path in fs.list_dir(dbname + "/"):
            kind, number = parse_file_name(dbname, path)
            if kind == "vlog" and number is not None:
                self._sizes[number] = fs.stat_size(path)
                self._live[number] = 0
                self._sealed.add(number)
                next_number = max(next_number, number + 1)
        self._next_number = next_number

    # ------------------------------------------------------------------
    # head segment and the append path
    # ------------------------------------------------------------------

    @property
    def head_number(self) -> Optional[int]:
        return self._head_number

    @property
    def head_ino(self) -> Optional[int]:
        return self._head.ino if self._head is not None else None

    def _ensure_head(self, at: int) -> int:
        if self._head is not None:
            return at
        number = self._next_number
        self._next_number += 1
        handle, t = self.fs.create(vlog_file_name(self.dbname, number), at)
        self._head = handle
        self._head_number = number
        self._sizes[number] = 0
        self._live[number] = 0
        self._readers[number] = handle
        return t

    def _seal_head(self) -> None:
        if self._head_number is not None:
            self._sealed.add(self._head_number)
        self._head = None
        self._head_number = None

    def append(self, raw: bytes, at: int) -> Tuple[bytes, int]:
        """Append one value to the head segment; returns (pointer, t)."""
        t = self._ensure_head(at)
        number = self._head_number
        offset = self._sizes[number]
        span = NULL_SPAN
        if self._observe:
            span = self.obs.start_span("db.vlog.append", t)
        assert self._head is not None
        t = self._head.append(raw, t)
        nbytes = len(raw)
        self._sizes[number] = offset + nbytes
        self._live[number] += nbytes
        self._dirty[number] = self._head
        self.appends += 1
        self.appended_bytes += nbytes
        if self._observe:
            self._append_counter.inc()
            self._append_bytes.inc(nbytes)
            span.annotate(segment=number, bytes=nbytes)
        span.end(t)
        if self._sizes[number] >= self.segment_bytes:
            self._seal_head()
        return encode_pointer(number, offset, nbytes), t

    def sync_dirty(self, at: int) -> int:
        """fdatasync every segment with unsynced appends.

        Minor dumps call this *before* syncing the L0 table, so a durable
        table's pointers always resolve (commits are ordered).
        """
        if not self._dirty:
            return at
        t = at
        for number in sorted(self._dirty):
            t = self._dirty[number].fdatasync(t, reason="vlog")
        self._dirty.clear()
        return t

    def segment_ino(self, segment: int) -> Optional[int]:
        handle = self._readers.get(segment)
        return handle.ino if handle is not None else None

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def read(self, segment: int, offset: int, length: int, at: int) -> Tuple[bytes, int]:
        handle = self._readers.get(segment)
        t = at
        if handle is None:
            handle, t = self.fs.open(vlog_file_name(self.dbname, segment), t)
            self._readers[segment] = handle
        data, t = handle.read(offset, length, t)
        if len(data) != length:
            raise CorruptionError(
                f"dangling vlog pointer: segment {segment} "
                f"[{offset}, {offset + length}) beyond size {handle.size}"
            )
        return data, t

    def resolve(self, stored: bytes, at: int) -> Tuple[bytes, int]:
        """Turn a marked stored value back into the user value."""
        if stored[:1] == INLINE_PREFIX:
            return stored[1:], at
        segment, offset, length = decode_pointer(stored)
        return self.read(segment, offset, length, at)

    # ------------------------------------------------------------------
    # garbage accounting, GC and commit-gated reclamation
    # ------------------------------------------------------------------

    def note_dead(self, segment: int, nbytes: int) -> None:
        """A pointer into ``segment`` was dropped by compaction."""
        live = self._live.get(segment)
        if live is not None:
            self._live[segment] = max(live - nbytes, 0)

    def relocate(self, segment: int, offset: int, length: int, at: int) -> Tuple[bytes, int]:
        """GC: copy a live value to the head, kill the old reference."""
        span = NULL_SPAN
        if self._observe:
            span = self.obs.start_span("db.vlog.gc", at)
        data, t = self.read(segment, offset, length, at)
        pointer, t = self.append(data, t)
        self.note_dead(segment, length)
        self.relocated_bytes += length
        if self._observe:
            self._relocated_bytes.inc(length)
            span.annotate(segment=segment, bytes=length)
        span.end(t)
        return pointer, t

    def gc_candidates(self) -> Set[int]:
        """Sealed segments garbage-heavy enough to relocate out of."""
        candidates = set()
        for segment in self._sealed:
            if segment in self._retiring:
                continue
            size = self._sizes.get(segment, 0)
            if size <= 0:
                continue
            if self._live.get(segment, 0) <= size * (1.0 - self.gc_garbage_ratio):
                candidates.add(segment)
        return candidates

    def note_barrier(self, segment: int, inos: List[int]) -> None:
        """Record inodes that must commit before ``segment`` may go."""
        barrier = self._barriers.setdefault(segment, [])
        for ino in inos:
            if ino not in barrier:
                barrier.append(ino)

    def dead_segments(self) -> List[int]:
        """Sealed segments with no live references, not yet retiring."""
        return sorted(
            segment
            for segment in self._sealed
            if segment not in self._retiring
            and self._live.get(segment, 0) == 0
        )

    def take_retirement(self, segment: int) -> List[int]:
        """Move a dead segment to the retiring set; returns its barrier."""
        self._retiring.add(segment)
        return self._barriers.pop(segment, [])

    def reclaim_segment(self, segment: int, at: int) -> int:
        """Unlink a retired segment (its barrier has fully committed)."""
        span = NULL_SPAN
        if self._observe:
            span = self.obs.start_span("db.vlog.reclaim", at)
            span.annotate(segment=segment, bytes=self._sizes.get(segment, 0))
        t = self.fs.unlink(vlog_file_name(self.dbname, segment), at)
        span.end(t)
        self._sizes.pop(segment, None)
        self._live.pop(segment, None)
        self._sealed.discard(segment)
        self._retiring.discard(segment)
        self._barriers.pop(segment, None)
        self._readers.pop(segment, None)
        self._dirty.pop(segment, None)
        self.reclaimed_segments += 1
        if self._observe:
            self._reclaimed_counter.inc()
        return t

    # ------------------------------------------------------------------
    # recovery and introspection
    # ------------------------------------------------------------------

    def reset_live(self, live: Dict[int, int]) -> None:
        """Replace live counts with ones rebuilt from the version set."""
        for segment in self._sizes:
            self._live[segment] = live.get(segment, 0)
        self._barriers.clear()
        self._retiring.clear()

    def segments(self) -> List[int]:
        return sorted(self._sizes)

    def live_bytes(self, segment: int) -> int:
        return self._live.get(segment, 0)

    def total_bytes(self) -> int:
        """On-disk vLog footprint, garbage included (space amp input)."""
        return sum(self._sizes.values())

    def snapshot(self) -> Dict[str, object]:
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "segments": len(self._sizes),
            "appends": self.appends,
            "appended_bytes": self.appended_bytes,
            "relocated_bytes": self.relocated_bytes,
            "reclaimed_segments": self.reclaimed_segments,
            "total_bytes": self.total_bytes(),
            "live_bytes": sum(self._live.values()),
        }
