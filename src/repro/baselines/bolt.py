"""BoLT (Middleware '20): barrier-optimized LSM-tree.

BoLT bundles all the KV pairs a compaction produces into one large
*factual* SSTable and flushes it with a single sync, so each compaction
pays one barrier instead of one per output file. Logical SSTables inside
the factual file keep LevelDB's level geometry, at some bookkeeping cost.

Behavioural model on our substrate:

- the outputs of a major compaction are written as usual, then persisted
  by a *single* fsync (Ext4's ordered commit writes back every output's
  data and commits all their inodes in that one transaction — exactly
  the one-barrier effect of BoLT's single large file);
- a fixed logical-SSTable maintenance cost is charged per compaction and
  a small indirection cost per table read;
- unlike NobLSM, the sync still sits on the compaction's critical path,
  and KV pairs are re-synced every time they are compacted again — the
  two behaviours the paper contrasts (Sections 1 and 5.2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.fs.stack import StorageStack
from repro.lsm.db import DB
from repro.lsm.filenames import table_file_name
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData
from repro.sim.clock import micros

#: bookkeeping for the logical->factual mapping, charged per compaction
LOGICAL_TABLE_MAINTENANCE_NS = micros(150)
#: per-read indirection through the logical SSTable map
LOGICAL_LOOKUP_NS = 400


class BoLT(DB):
    """Barrier-optimized LSM-tree (one sync per compaction)."""

    store_name = "bolt"

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
        super().__init__(stack, dbname, options=options)
        self.factual_tables = 0

    def _persist_major_outputs(
        self, outputs: List[FileMetaData], at: int
    ) -> int:
        """One sync persists the whole factual SSTable (all outputs)."""
        t = at + LOGICAL_TABLE_MAINTENANCE_NS
        if not outputs or not self.options.sync.sync_major:
            return t
        self.factual_tables += 1
        # Write back every output's data explicitly (the factual file is
        # flushed as one unit), then a single fsync supplies the barrier
        # and commits all the inodes in one transaction.
        for meta in outputs[:-1]:
            handle, t = self.fs.open(
                table_file_name(self.dbname, meta.number), at=t
            )
            dirty = handle._inode.dirty_bytes
            if dirty:
                _, t = self.fs.writeback_inode(handle.ino, t)
                stats = self.fs.sync_stats
                stats.bytes_synced += dirty
                stats.bytes_by_reason["major"] = (
                    stats.bytes_by_reason.get("major", 0) + dirty
                )
        handle, t = self.fs.open(
            table_file_name(self.dbname, outputs[-1].number), at=t
        )
        t = handle.fsync(at=t, reason="major")
        return t

    def get(self, key, at, snapshot=None):
        value, t = super().get(key, at, snapshot)
        return value, t + LOGICAL_LOOKUP_NS
