"""DRAM page cache model.

The cache models *timing and durability state*, not data content (file
bytes live in the inode regardless). It tracks which 64 KiB pages of each
inode are resident, evicts clean pages LRU when over capacity, and keeps a
global dirty-byte count. When the dirty ratio crosses a threshold (10 % by
default, as in the paper), it notifies the journal so an asynchronous
commit can be triggered early — the second of Ext4's two async-commit
conditions (Section 2.2).

Hot-path notes: ``write``/``read_misses`` run per simulated I/O, so the
LRU reshuffle uses ``move_to_end`` and eviction is guarded by an O(1)
over-capacity check. ``clean_inode``/``drop_inode`` consult per-inode
page indexes instead of scanning every resident (or every possible)
page; the indexes are pure bookkeeping — LRU order, dirty accounting and
eviction decisions are unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Set, Tuple

PAGE_SIZE = 64 * 1024  # coarse pages keep LRU bookkeeping cheap

PageKey = Tuple[int, int]  # (ino, page_index)


class PageCache:
    """Resident-page tracking with LRU eviction of clean pages.

    ``capacity_bytes`` bounds resident pages; dirty pages are pinned (the
    journal's writeback cleans them). ``on_dirty_threshold`` fires once per
    crossing of ``dirty_ratio`` and re-arms after dirty bytes fall below.
    """

    def __init__(
        self,
        capacity_bytes: int,
        dirty_ratio: float = 0.10,
        on_dirty_threshold: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if not 0.0 < dirty_ratio <= 1.0:
            raise ValueError(f"dirty_ratio out of range: {dirty_ratio}")
        self.capacity_bytes = capacity_bytes
        self.dirty_ratio = dirty_ratio
        self.on_dirty_threshold = on_dirty_threshold
        self._pages: "OrderedDict[PageKey, bool]" = OrderedDict()  # key -> dirty
        #: resident page indexes per inode (drop_inode avoids a full scan)
        self._by_ino: Dict[int, Set[int]] = {}
        #: dirty page indexes per inode (clean_inode touches only these)
        self._dirty_by_ino: Dict[int, Set[int]] = {}
        self._dirty_bytes = 0
        self._threshold_armed = True
        #: len(_pages) above which eviction kicks in; len * PAGE_SIZE >
        #: capacity  <=>  len > capacity // PAGE_SIZE
        self._capacity_pages = capacity_bytes // PAGE_SIZE
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    @property
    def dirty_threshold_bytes(self) -> int:
        return int(self.capacity_bytes * self.dirty_ratio)

    def snapshot(self) -> "dict[str, object]":
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "resident_bytes": self.resident_bytes,
            "dirty_bytes": self._dirty_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def _evict_if_needed(self) -> None:
        pages = self._pages
        capacity = self._capacity_pages
        by_ino = self._by_ino
        while len(pages) > capacity:
            if self._dirty_bytes >= len(pages) * PAGE_SIZE:
                # Everything resident is dirty; allow transient overshoot —
                # the journal's next writeback will clean pages.
                break
            victim = None
            for key, dirty in pages.items():
                if not dirty:
                    victim = key
                    break
            if victim is None:
                break
            del pages[victim]
            ino_pages = by_ino.get(victim[0])
            if ino_pages is not None:
                ino_pages.discard(victim[1])
                if not ino_pages:
                    del by_ino[victim[0]]
            self.evictions += 1

    def _maybe_fire_threshold(self) -> None:
        if self._dirty_bytes >= self.dirty_threshold_bytes:
            if self._threshold_armed and self.on_dirty_threshold is not None:
                self._threshold_armed = False
                self.on_dirty_threshold()
        else:
            self._threshold_armed = True

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def write(self, ino: int, offset: int, nbytes: int) -> None:
        """Record a buffered write: pages become resident and dirty."""
        if nbytes > 0:
            pages = self._pages
            move_to_end = pages.move_to_end
            ino_pages = self._by_ino.get(ino)
            if ino_pages is None:
                ino_pages = self._by_ino[ino] = set()
            dirty_pages = self._dirty_by_ino.get(ino)
            if dirty_pages is None:
                dirty_pages = self._dirty_by_ino[ino] = set()
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            for page in range(first, last + 1):
                key = (ino, page)
                was_dirty = pages.get(key)
                if was_dirty is None:
                    pages[key] = True
                    ino_pages.add(page)
                    dirty_pages.add(page)
                    self._dirty_bytes += PAGE_SIZE
                else:
                    if not was_dirty:
                        pages[key] = True
                        dirty_pages.add(page)
                        self._dirty_bytes += PAGE_SIZE
                    move_to_end(key)
        if len(self._pages) > self._capacity_pages:
            self._evict_if_needed()
        self._maybe_fire_threshold()

    def read_misses(self, ino: int, offset: int, nbytes: int) -> int:
        """Record a read; returns the number of bytes that missed.

        Missing pages become resident (read from the device by the caller).
        """
        miss_pages = 0
        pages = self._pages
        if nbytes > 0:
            move_to_end = pages.move_to_end
            ino_pages = self._by_ino.get(ino)
            if ino_pages is None:
                ino_pages = self._by_ino[ino] = set()
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            for page in range(first, last + 1):
                key = (ino, page)
                if key in pages:
                    move_to_end(key)
                    self.hits += 1
                else:
                    miss_pages += 1
                    pages[key] = False
                    ino_pages.add(page)
                    self.misses += 1
        if len(pages) > self._capacity_pages:
            self._evict_if_needed()
        return miss_pages * PAGE_SIZE

    def clean_inode(self, ino: int, up_to_offset: int) -> None:
        """Mark an inode's pages clean after writeback (keeps residency)."""
        dirty_pages = self._dirty_by_ino.get(ino)
        if dirty_pages:
            last_page = (max(up_to_offset, 1) - 1) // PAGE_SIZE
            pages = self._pages
            cleaned = [page for page in dirty_pages if page <= last_page]
            for page in cleaned:
                pages[(ino, page)] = False
                dirty_pages.discard(page)
            if not dirty_pages:
                del self._dirty_by_ino[ino]
            self._dirty_bytes -= len(cleaned) * PAGE_SIZE
            if self._dirty_bytes < 0:
                self._dirty_bytes = 0
        self._maybe_fire_threshold()

    def drop_inode(self, ino: int) -> None:
        """Remove every page of an inode (unlink / crash)."""
        ino_pages = self._by_ino.pop(ino, None)
        if ino_pages is None:
            return
        dirty_pages = self._dirty_by_ino.pop(ino, None)
        pages = self._pages
        for page in ino_pages:
            del pages[(ino, page)]
        if dirty_pages:
            self._dirty_bytes -= len(dirty_pages) * PAGE_SIZE
            if self._dirty_bytes < 0:
                self._dirty_bytes = 0

    def drop_all(self) -> None:
        """Empty the cache (power failure)."""
        self._pages.clear()
        self._by_ino.clear()
        self._dirty_by_ino.clear()
        self._dirty_bytes = 0
        self._threshold_armed = True
