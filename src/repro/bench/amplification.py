"""Write/read/space amplification analysis.

The paper positions NobLSM as *complementary* to write-amplification
research (Section 6): it reduces sync counts, not bytes rewritten. This
module quantifies that claim — it runs a fillrandom workload on any
store and reports:

- **WA(device)** — device bytes written / user bytes (includes journal
  and writeback traffic);
- **WA(compaction)** — bytes flushed + compacted / user bytes (the
  classic LSM metric);
- **RA(point)** — table probes per point lookup;
- **SA** — live on-disk bytes / logical (deduplicated) user bytes.

For the key-value-separated ``noblsm-kv`` store the accounting is kept
honest: vLog appends (initial separation *and* GC relocation) count into
WA(compaction), and the full on-disk vLog footprint — garbage included —
counts into SA. The separation claim only holds if kv still wins under
those terms: values are written to the vLog once and relocated rarely,
instead of being rewritten at every level the LSM pushes them through.

:func:`run_amplification_sweep` compares noblsm against noblsm-kv over a
large-value fillrandom grid and emits a ``repro.amplification/1``
document, gated by ``python -m repro.bench gate amplification``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ScaledConfig
from repro.bench.report import results_document
from repro.bench.workloads import ValueGenerator, fillrandom_indices, make_key

AMPLIFICATION_SCHEMA = "repro.amplification/1"

#: the sweep's defaults: the 4 KiB row is the CI gate's headline
DEFAULT_VALUE_SIZES = (1024, 4096)
DEFAULT_STORES = ("noblsm", "noblsm-kv")
DEFAULT_SCALE = 2000.0
DEFAULT_VALUE_THRESHOLD = 1024


@dataclass
class AmplificationReport:
    store: str
    user_bytes: int
    logical_bytes: int
    device_bytes_written: int
    compaction_bytes: int
    live_bytes: int
    probes: int
    lookups: int
    #: on-disk vLog footprint at measurement time (0 for plain stores)
    vlog_bytes: int = 0
    #: extra counters worth keeping next to the ratios (vLog stats)
    extras: Dict[str, int] = field(default_factory=dict)

    @property
    def wa_device(self) -> float:
        return self.device_bytes_written / max(self.user_bytes, 1)

    @property
    def wa_compaction(self) -> float:
        return self.compaction_bytes / max(self.user_bytes, 1)

    @property
    def ra_point(self) -> float:
        return self.probes / max(self.lookups, 1)

    @property
    def space_amplification(self) -> float:
        return self.live_bytes / max(self.logical_bytes, 1)

    def row(self) -> Dict[str, float]:
        return {
            "wa_device": round(self.wa_device, 2),
            "wa_compaction": round(self.wa_compaction, 2),
            "ra_point": round(self.ra_point, 2),
            "space_amp": round(self.space_amplification, 2),
        }


def measure_amplification(
    store_name: str,
    config: Optional[ScaledConfig] = None,
    read_fraction: float = 0.2,
) -> AmplificationReport:
    """Fill a store, then probe it; returns the amplification report."""
    config = config or ScaledConfig(scale=1000, value_size=1024)
    stack, db = config.build_store(store_name)
    values = ValueGenerator(config.value_size, seed=config.seed)
    written_keys = set()
    t = 0
    for index in fillrandom_indices(config.num_ops, config.seed):
        key = make_key(index, config.key_size)
        t = db.put(key, values.next(), at=t)
        written_keys.add(key)
    t = db.wait_for_background(t)
    t = max(t, stack.settle())
    if hasattr(db, "reclaim"):
        t = db.reclaim(t)

    user_bytes = config.num_ops * (config.key_size + config.value_size)
    logical_bytes = len(written_keys) * (config.key_size + config.value_size)
    live_bytes = sum(
        meta.file_size
        for files in db.versions.current.files
        for meta in files
        if not meta.shadow
    )
    # key-value separation: vLog segments are on-disk state too — count
    # their full footprint (garbage included) into space amplification,
    # and every byte the store appended to them (separation + GC
    # relocation) into the compaction write total
    vlog = getattr(db, "vlog", None)
    vlog_bytes = 0
    vlog_appended = 0
    extras: Dict[str, int] = {}
    if vlog is not None:
        vlog_bytes = vlog.total_bytes()
        vlog_appended = vlog.appended_bytes
        live_bytes += vlog_bytes
        extras = {
            "vlog_segments": len(vlog.segments()),
            "vlog_appended_bytes": vlog.appended_bytes,
            "vlog_relocated_bytes": vlog.relocated_bytes,
            "vlog_reclaimed_segments": vlog.reclaimed_segments,
        }

    # read-amplification probe: count table.get calls per lookup
    probes = 0
    lookups = max(int(config.num_ops * read_fraction), 1)
    import repro.lsm.sstable as sstable_module

    original_get = sstable_module.Table.get

    def counting_get(self, user_key, at, sequence_bound=None, _orig=original_get):
        nonlocal probes
        probes += 1
        if sequence_bound is None:
            return _orig(self, user_key, at)
        return _orig(self, user_key, at, sequence_bound)

    sstable_module.Table.get = counting_get
    try:
        rng_keys = fillrandom_indices(lookups, config.seed + 3)
        for index in rng_keys:
            _, t = db.get(make_key(index, config.key_size), at=t)
    finally:
        sstable_module.Table.get = original_get

    return AmplificationReport(
        store=store_name,
        user_bytes=user_bytes,
        logical_bytes=logical_bytes,
        device_bytes_written=stack.ssd.stats.bytes_written,
        compaction_bytes=(
            db.stats.bytes_flushed
            + db.stats.bytes_compacted_out
            + vlog_appended
        ),
        live_bytes=live_bytes,
        probes=probes,
        lookups=lookups,
        vlog_bytes=vlog_bytes,
        extras=extras,
    )


# ----------------------------------------------------------------------
# the noblsm vs noblsm-kv sweep (``repro.amplification/1``)
# ----------------------------------------------------------------------


def run_amplification_sweep(
    stores: Sequence[str] = DEFAULT_STORES,
    value_sizes: Sequence[int] = DEFAULT_VALUE_SIZES,
    scale: float = DEFAULT_SCALE,
    num_ops: int = 0,
    value_threshold: int = DEFAULT_VALUE_THRESHOLD,
    seed: int = 1234,
) -> List[Dict[str, object]]:
    """Measure every (store, value size) cell; returns document rows.

    ``value_threshold`` applies only to stores that understand it (the
    registry's kv variants); plain stores run with separation off.
    """
    rows: List[Dict[str, object]] = []
    for value_size in value_sizes:
        for store in stores:
            config = ScaledConfig(
                scale=scale,
                num_ops=num_ops,
                value_size=value_size,
                seed=seed,
                value_threshold=(
                    value_threshold if store.endswith("-kv") else None
                ),
            )
            report = measure_amplification(store, config)
            row: Dict[str, object] = {
                "store": store,
                "workload": "fillrandom",
                "value_size": value_size,
                "ops": config.num_ops,
                "wa_device": round(report.wa_device, 4),
                "wa_compaction": round(report.wa_compaction, 4),
                "ra_point": round(report.ra_point, 4),
                "space_amp": round(report.space_amplification, 4),
                "user_bytes": report.user_bytes,
                "device_bytes_written": report.device_bytes_written,
                "compaction_bytes": report.compaction_bytes,
                "live_bytes": report.live_bytes,
                "vlog_bytes": report.vlog_bytes,
            }
            if report.extras:
                row["vlog"] = dict(report.extras)
            rows.append(row)
    return rows


def amplification_document(
    rows: List[Dict[str, object]],
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    return results_document(rows, meta, AMPLIFICATION_SCHEMA)


def render_amplification(rows: List[Dict[str, object]]) -> str:
    """Human table, one line per (store, value size) cell."""
    header = (
        f"{'store':<12} {'vsize':>6} {'ops':>7} "
        f"{'WA(dev)':>9} {'WA(comp)':>9} {'RA(pt)':>8} {'SA':>6} "
        f"{'vlog KiB':>9}"
    )
    lines = ["write/read/space amplification (fillrandom)", header,
             "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['store']:<12} {row['value_size']:>6} {row['ops']:>7} "
            f"{row['wa_device']:>9.2f} {row['wa_compaction']:>9.2f} "
            f"{row['ra_point']:>8.2f} {row['space_amp']:>6.2f} "
            f"{row['vlog_bytes'] / 1024.0:>9.1f}"
        )
    return "\n".join(lines)
