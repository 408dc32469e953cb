"""RocksDB-like store: multi-threaded flushes and compactions.

The paper uses RocksDB as the representative of fine-grained,
parallelised engineering: a pool of background threads compacts several
levels concurrently and flushes never wait behind a running compaction.
It still syncs every new SSTable, so its sync volume stays high — the
behaviour Table 1 and Figure 5b attribute to it.

Behavioural model: LevelDB's structure with

- four background threads (``max_background_jobs``-style parallelism);
- RocksDB's default L0 pacing (slowdown 20, stop 36), which trades write
  stalls for read amplification;
- a slightly heavier per-operation CPU path (write batching, statistics,
  version handling), reflecting the larger codebase.
"""

from __future__ import annotations

from typing import Optional

from repro.fs.stack import StorageStack
from repro.lsm.db import DB
from repro.lsm.options import Options

#: extra per-write CPU of the heavier write path
WRITE_PATH_OVERHEAD_NS = 4000
#: extra per-read CPU (version refs, statistics)
READ_PATH_OVERHEAD_NS = 500
#: write-controller pacing: delay per unit of excess compaction score
WRITE_CONTROLLER_DELAY_NS = 25_000
#: the controller never delays a single write longer than this
WRITE_CONTROLLER_CAP_NS = 60_000


def rocksdb_options(base: Optional[Options] = None) -> Options:
    options = base if base is not None else Options()
    options.background_threads = 4
    options.l0_compaction_trigger = 4
    options.l0_slowdown_writes_trigger = 20
    options.l0_stop_writes_trigger = 36
    # RocksDB's default level sizing is much coarser than LevelDB's
    # (max_bytes_for_level_base 256 MB vs 10 MB): one fewer level of
    # rewriting, hence its lower sync volume in Table 1.
    options.max_bytes_for_level_base *= 8
    options.sync.sync_minor = True
    options.sync.sync_major = True
    options.sync.sync_manifest = True
    return options


class RocksDBLike(DB):
    """Multi-threaded, leveled store in the style of RocksDB."""

    store_name = "rocksdb"

    def __init__(
        self,
        stack: StorageStack,
        dbname: str = "db",
        options: Optional[Options] = None,
    ) -> None:
        super().__init__(stack, dbname, options=rocksdb_options(options))

    def write(self, entries, at):
        """Heavier write path plus RocksDB's write controller.

        RocksDB paces foreground writes when compaction debt builds up
        (pending-compaction-bytes / L0 triggers), trading latency for
        smoother background progress; the delay grows with the worst
        level's compaction score.
        """
        t = at + WRITE_PATH_OVERHEAD_NS
        _, score = self.versions.pick_compaction_level()
        if score > 1.0:
            delay = int((score - 1.0) * WRITE_CONTROLLER_DELAY_NS)
            t += min(delay, WRITE_CONTROLLER_CAP_NS)
        return super().write(entries, t)

    def get(self, key, at, snapshot=None):
        return super().get(key, at + READ_PATH_OVERHEAD_NS, snapshot)
