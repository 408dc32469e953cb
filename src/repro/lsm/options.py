"""Store configuration.

``Options`` captures both LevelDB's tuning knobs and the sync-policy
switches that distinguish the systems the paper compares. The paper's
setup (64 MB SSTables, 10 M x 1 KB requests on a 960 GB SSD) is scaled
down by a single ``scale`` factor via :func:`Options.scaled` — all byte
sizes shrink together so the tree keeps the same depth and the same
compaction dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

KIB = 1024
MIB = 1024 * 1024


@dataclass
class SyncPolicy:
    """Which code paths call fsync/fdatasync.

    Stock LevelDB syncs new SSTables at minor and major compactions and
    the MANIFEST on every version edit. NobLSM keeps only the minor-
    compaction sync and tracks everything else through the journal's
    asynchronous commits (``nob_commit``). The 'volatile' baseline of
    Section 3 disables everything.
    """

    sync_minor: bool = True
    sync_major: bool = True
    sync_manifest: bool = True
    sync_wal: bool = False  # LevelDB default WriteOptions.sync=false
    nob_commit: bool = False  # use check_commit/is_committed + shadows


@dataclass
class Options:
    """All knobs of the LSM-tree."""

    # sizes (paper-scale defaults; call .scaled() before simulating)
    write_buffer_size: int = 64 * MIB
    max_file_size: int = 64 * MIB
    block_size: int = 4 * KIB
    max_bytes_for_level_base: int = 10 * MIB
    level_multiplier: int = 10
    num_levels: int = 7
    bloom_bits_per_key: int = 10
    block_cache_bytes: int = 8 * MIB  # LevelDB's default Cache size

    # compaction triggers (LevelDB constants)
    l0_compaction_trigger: int = 4
    l0_slowdown_writes_trigger: int = 8
    l0_stop_writes_trigger: int = 12
    seek_compaction: bool = True

    # background execution
    background_threads: int = 1

    #: performance stability, sized to this user-data ingest (bytes per
    #: virtual second); 0 = stock LevelDB. When set, majors are rate-
    #: limited at 14x ingest (ingest/10 burst) except the L0->L1 drain
    #: once live L0 reaches ``l0_compaction_trigger`` (fair mode), which
    #: also preempts deeper picks; and the 1 ms L0 slowdown becomes a
    #: quadratic ramp toward the stop trigger (:mod:`repro.lsm.pressure`)
    stability_ingest_bytes_per_sec: int = 0

    # key-value separation (WiscKey-style vLog; used by the noblsm-kv
    # store variant, all default OFF: plain stores never consult these)
    #: separate values of at least this many bytes into the vLog at
    #: flush time; ``None`` disables separation entirely (the seed
    #: configuration — byte-identical to a store without a vLog)
    value_threshold: Optional[int] = None
    #: roll the vLog head segment once it reaches this many bytes
    vlog_segment_bytes: int = 1 * MIB
    #: relocate a sealed segment's live values during major compaction
    #: once its garbage fraction reaches this ratio
    vlog_gc_garbage_ratio: float = 0.5

    # durability
    sync: SyncPolicy = field(default_factory=SyncPolicy)

    # NobLSM reclamation poll period, virtual ns (5 s like Ext4's commit)
    reclaim_interval_ns: int = 5_000_000_000

    def validate(self) -> None:
        """Raise ``ValueError`` for incoherent settings (checked by DB)."""
        if self.write_buffer_size <= 0:
            raise ValueError("write_buffer_size must be positive")
        if self.max_file_size <= 0:
            raise ValueError("max_file_size must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.num_levels < 2:
            raise ValueError("need at least two levels")
        if self.level_multiplier < 2:
            raise ValueError("level_multiplier must be >= 2")
        if not (
            0
            < self.l0_compaction_trigger
            <= self.l0_slowdown_writes_trigger
            <= self.l0_stop_writes_trigger
        ):
            raise ValueError(
                "L0 triggers must satisfy 0 < compaction <= slowdown <= stop"
            )
        if self.background_threads < 1:
            raise ValueError("background_threads must be >= 1")
        if self.stability_ingest_bytes_per_sec < 0:
            raise ValueError("stability_ingest_bytes_per_sec must be >= 0")
        if self.reclaim_interval_ns <= 0:
            raise ValueError("reclaim_interval_ns must be positive")
        if self.value_threshold is not None and self.value_threshold < 0:
            raise ValueError("value_threshold must be >= 0 (or None)")
        if self.vlog_segment_bytes <= 0:
            raise ValueError("vlog_segment_bytes must be positive")
        if not 0.0 < self.vlog_gc_garbage_ratio <= 1.0:
            raise ValueError("vlog_gc_garbage_ratio must be in (0, 1]")

    def max_bytes_for_level(self, level: int) -> float:
        """Capacity limit of level ``level`` (level >= 1)."""
        if level < 1:
            raise ValueError(f"levels below 1 have no byte limit: {level}")
        result = float(self.max_bytes_for_level_base)
        for _ in range(level - 1):
            result *= self.level_multiplier
        return result

    def expanded_compaction_limit(self) -> int:
        """Max bytes of lower-level files in one compaction (LevelDB)."""
        return 25 * self.max_file_size

    def grandparent_overlap_limit(self) -> int:
        """Max overlap with level+2 before an output file is cut."""
        return 10 * self.max_file_size

    def scaled(self, scale: float) -> "Options":
        """Shrink every capacity by ``scale`` (>= 1), keeping ratios.

        The block size is a *format* granularity (device sector/cache
        unit), not a capacity, so it stays at the paper's 4 KiB — scaling
        it would distort per-byte CPU costs. File sizes are floored at
        4 KiB so encodings stay meaningful at extreme scales.
        """
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        return replace(
            self,
            write_buffer_size=max(int(self.write_buffer_size / scale), 4 * KIB),
            max_file_size=max(int(self.max_file_size / scale), 4 * KIB),
            max_bytes_for_level_base=max(
                int(self.max_bytes_for_level_base / scale), 2 * KIB
            ),
            block_cache_bytes=max(int(self.block_cache_bytes / scale), 8 * KIB),
            vlog_segment_bytes=max(int(self.vlog_segment_bytes / scale), 4 * KIB),
            sync=replace(self.sync),
        )


def level_file_limits(options: Options) -> List[float]:
    """Convenience: byte limits for levels 1..num_levels-1."""
    return [
        options.max_bytes_for_level(level)
        for level in range(1, options.num_levels)
    ]
