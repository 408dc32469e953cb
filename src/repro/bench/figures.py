"""One entry point per table/figure of the paper's evaluation.

Each ``fig*``/``table*`` function runs the corresponding experiment at a
configurable scale and returns the same rows/series the paper reports;
``render_*`` (table) and ``chart_*`` (ASCII plot) helpers format that
data without re-running anything. Each is a target of
``python -m repro.bench`` whose gate (:mod:`repro.bench.targets`)
checks the paper's claim about it at a CI size, and EXPERIMENTS.md
records one run of each next to the paper's numbers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.registry import PAPER_STORES
from repro.bench.ascii_plot import grouped_bars, line_series
from repro.bench.db_bench import (
    run_fillrandom,
    run_overwrite,
    run_readrandom,
    run_readseq,
)
from repro.bench.harness import ScaledConfig
from repro.bench.rawio import run_fig2a as _run_fig2a_raw
from repro.bench.report import format_table, series_by_store
from repro.bench.ycsb import PAPER_ORDER, run_ycsb_suite
from repro.sim.latency import GIB

#: the value sizes swept in Figure 4
FIG4_VALUE_SIZES = (256, 512, 1024, 2048, 4096)

#: default scale for the db_bench figures (10 M ops -> 20 k ops);
#: at this scale the headline numbers land on the paper's (see
#: EXPERIMENTS.md)
DEFAULT_SCALE = 500.0


# ----------------------------------------------------------------------
# Figure 2a — Async / Direct / Sync raw writing
# ----------------------------------------------------------------------

def fig2a(sizes: Tuple[int, ...] = (4 * GIB, 8 * GIB)) -> Dict[str, Dict[int, float]]:
    """Execution time (s) of Async, Direct, Sync for each data size."""
    raw = _run_fig2a_raw(list(sizes))
    return {
        strategy: {size: result.seconds for size, result in by_size.items()}
        for strategy, by_size in raw.items()
    }


def render_fig2a(data: Dict[str, Dict[int, float]]) -> str:
    sizes = sorted(next(iter(data.values())))
    rows = [
        [strategy.capitalize()] + [round(data[strategy][s], 2) for s in sizes]
        for strategy in ("async", "direct", "sync")
    ]
    header = ["strategy"] + [f"{s // GIB}GB" for s in sizes]
    return format_table(
        "Figure 2a: execution time (s) of Async, Direct and Sync writing",
        header,
        rows,
    )


# ----------------------------------------------------------------------
# Figure 2b — SSTable size and syncs (LevelDB vs volatile LevelDB)
# ----------------------------------------------------------------------

FIG2B_SCALE = 1000.0


def fig2b(scale: float = FIG2B_SCALE) -> Dict[str, float]:
    """Paper-equivalent execution time (s) for Figure 2b's eight bars.

    Bars: {fillrand, overwrt} x {2MB, 64MB} x {Sync (stock LevelDB),
    No-Sync (volatile)} — keyed 'fillrand-2MB-sync' etc. Times are
    us/op x the paper's 10 M operations, so bars are comparable across
    configurations regardless of the scale they ran at.
    """
    from repro.bench.harness import PAPER_NUM_OPS

    results: Dict[str, float] = {}
    for table_mb, label in ((2.0, "2MB"), (64.0, "64MB")):
        for store, suffix in (("leveldb", "sync"), ("volatile", "nosync")):
            config = ScaledConfig(scale=scale, value_size=1024, table_mb=table_mb)
            fill, stack, db = run_fillrandom(store, config)
            over, _, _ = run_overwrite(store, config)
            results[f"fillrand-{label}-{suffix}"] = (
                fill.us_per_op * PAPER_NUM_OPS / 1e6
            )
            results[f"overwrt-{label}-{suffix}"] = (
                over.us_per_op * PAPER_NUM_OPS / 1e6
            )
    return results


def render_fig2b(data: Dict[str, float]) -> str:
    rows = []
    for workload in ("fillrand", "overwrt"):
        for label in ("2MB", "64MB"):
            rows.append(
                [
                    f"{workload} {label}",
                    round(data[f"{workload}-{label}-sync"], 3),
                    round(data[f"{workload}-{label}-nosync"], 3),
                ]
            )
    return format_table(
        "Figure 2b: paper-equivalent execution time (s), Sync vs No-Sync",
        ["workload/table", "Sync", "No-Sync"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 4 — db_bench across seven stores and five value sizes
# ----------------------------------------------------------------------

_FIG4_RUNNERS = {
    "fillrandom": run_fillrandom,
    "overwrite": run_overwrite,
    "readseq": run_readseq,
    "readrandom": run_readrandom,
}


def fig4(
    workload: str,
    stores: Optional[Iterable[str]] = None,
    value_sizes: Iterable[int] = FIG4_VALUE_SIZES,
    scale: float = DEFAULT_SCALE,
) -> Dict[str, Dict[int, float]]:
    """us/op per store per value size for one db_bench workload."""
    runner = _FIG4_RUNNERS[workload]
    stores = list(stores or PAPER_STORES)
    series: Dict[str, Dict[int, float]] = {store: {} for store in stores}
    for value_size in value_sizes:
        for store in stores:
            config = ScaledConfig(scale=scale, value_size=value_size)
            result, _, _ = runner(store, config)
            series[store][value_size] = result.us_per_op
    return series


#: figure label of each Figure 4 workload
FIG4_LABELS = {
    "fillrandom": "4a",
    "overwrite": "4b",
    "readseq": "4c",
    "readrandom": "4d",
}


def render_fig4(workload: str, series: Dict[str, Dict[int, float]]) -> str:
    sizes = sorted(next(iter(series.values())))
    return series_by_store(
        series,
        sizes,
        "value size (B)",
        f"Figure {FIG4_LABELS[workload]}: {workload} time/op (us, virtual)",
    )


def chart_fig4(workload: str, series: Dict[str, Dict[int, float]]) -> str:
    """Figure 4 as an ASCII line chart (log y for the write workloads)."""
    return line_series(
        f"Figure {FIG4_LABELS[workload]}: {workload}",
        sorted(next(iter(series.values()))),
        series,
        x_label="value size (B)",
        unit="us/op",
        log=workload in ("fillrandom", "overwrite"),
    )


# ----------------------------------------------------------------------
# Table 1 — number of syncs and size of data synced (fillrandom, 1 KB)
# ----------------------------------------------------------------------

def table1(
    stores: Optional[Iterable[str]] = None,
    scale: float = DEFAULT_SCALE,
) -> Dict[str, Tuple[int, float]]:
    """(sync count, GB-equivalent synced) per store.

    Matching the paper's accounting, only SSTable syncs are counted (the
    'minor' and 'major' reasons); GB are rescaled to paper volume by the
    run's scale factor so the row is directly comparable to Table 1.
    """
    stores = list(stores or PAPER_STORES)
    rows: Dict[str, Tuple[int, float]] = {}
    for store in stores:
        config = ScaledConfig(scale=scale, value_size=1024)
        _, stack, _ = run_fillrandom(store, config)
        stats = stack.sync_stats
        count = stats.by_reason.get("minor", 0) + stats.by_reason.get("major", 0)
        gib = (
            stats.bytes_by_reason.get("minor", 0)
            + stats.bytes_by_reason.get("major", 0)
        ) / GIB
        rows[store] = (count, gib * scale)
    return rows


def render_table1(data: Dict[str, Tuple[int, float]]) -> str:
    rows = [
        [store, count, round(gb, 2)] for store, (count, gb) in data.items()
    ]
    return format_table(
        "Table 1: no. of SSTable syncs and GB-equivalent synced (fillrandom, 1KB)",
        ["store", "syncs", "GB synced (paper-equivalent)"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 5 — YCSB, single- and multi-threaded
# ----------------------------------------------------------------------

def fig5(
    threads: int,
    stores: Optional[Iterable[str]] = None,
    scale: float = 5000.0,
    workloads: Optional[List[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """us/op per store per YCSB phase (Fig 5a: threads=1, 5b: threads=4)."""
    stores = list(stores or PAPER_STORES)
    series: Dict[str, Dict[str, float]] = {}
    for store in stores:
        config = ScaledConfig(scale=scale, value_size=1024, threads=threads)
        results = run_ycsb_suite(store, config, workloads=workloads)
        series[store] = {
            phase: result.us_per_op for phase, result in results.items()
        }
    return series


def _phases(series: Dict[str, Dict[str, float]]) -> List[str]:
    return [p for p in PAPER_ORDER if p in next(iter(series.values()))]


def render_fig5(threads: int, series: Dict[str, Dict[str, float]]) -> str:
    label = "5a" if threads == 1 else "5b"
    return series_by_store(
        series,
        _phases(series),
        "workload",
        f"Figure {label}: YCSB time/op (us, virtual), {threads} thread(s)",
    )


def chart_fig5(threads: int, series: Dict[str, Dict[str, float]]) -> str:
    """Figure 5 as ASCII grouped bars, one group per YCSB phase."""
    label = "5a" if threads == 1 else "5b"
    return grouped_bars(
        f"Figure {label}: YCSB, {threads} thread(s)",
        _phases(series),
        series,
        unit="us/op",
    )
