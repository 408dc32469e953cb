"""The bench-target registry: one record per ``python -m repro.bench`` target.

A :class:`BenchTarget` names the flags the target honours (with its own
defaults) and how to run it: compute once, print the report, and write
its files into the ``--json`` directory. A regression gate additionally
declares its CI-sized flags, the baseline files a CI-sized run
reproduces under ``benchmarks/baselines/`` and a ``check`` holding the
invariants its output must satisfy; a gate on a bench document also
names its schema and the metrics ``compare`` gates that document on.
Every figure and table of the paper is a check-only gate: its ``check``
holds the paper's claim about it.

Everything else derives from :data:`TARGETS`: the CLI subcommands and
their flags (:mod:`repro.bench.cli`), compare's schema -> metric-set
lookup (:data:`METRICS_BY_SCHEMA`), ``gate``/``refresh``, the Makefile's
``%-gate`` / ``refresh-%-baseline`` pattern rules and the CI gate
matrix. Adding a gate means adding one record here and committing the
files ``python -m repro.bench refresh <name>`` writes.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.registry import PAPER_STORES, STORE_CLASSES
from repro.bench import figures
from repro.bench.amplification import (
    AMPLIFICATION_SCHEMA,
    DEFAULT_SCALE as AMPLIFICATION_SCALE,
    DEFAULT_STORES as AMPLIFICATION_STORES,
    DEFAULT_VALUE_SIZES,
    DEFAULT_VALUE_THRESHOLD,
    render_amplification,
    run_amplification_sweep,
)
from repro.bench.compare import MetricSpec
from repro.bench.db_bench import run_fillrandom
from repro.bench.harness import ScaledConfig
from repro.bench.parallelism import (
    DEFAULT_CHANNELS,
    DEFAULT_SCALE as PARALLELISM_SCALE,
    DEFAULT_THREADS,
    render_parallelism,
    run_parallelism,
)
from repro.bench.report import (
    RESULTS_SCHEMA,
    format_breakdown_table,
    format_latency_table,
    results_document,
    write_json,
)
from repro.bench.slo import (
    SLO_SCHEMA,
    SloConfig,
    check_discrimination,
    render_slo,
    run_slo,
)
from repro.crashtest import (
    CrashMatrixConfig,
    matrix_payload,
    render_matrix,
    run_crash_matrix,
)
from repro.crashtest.report import PAYLOAD_SCHEMA as CRASH_MATRIX_SCHEMA
from repro.obs.critical_path import analyze_write_path, render_critical_path
from repro.obs.timeseries import TIMESERIES_SCHEMA
from repro.obs.trace import write_chrome_trace
from repro.serve.bench import (
    SERVE_SCHEMA,
    SOAK,
    ServeConfig,
    render_serve,
    run_serve_pair,
    soak_config,
)
from repro.sim.latency import GIB

#: schema of every figure/table payload
FIGURE_SCHEMA = "repro.figure/1"


def ints(text: str) -> List[int]:
    return [int(item) for item in text.split(",")]


def names(text: str) -> List[str]:
    return text.split(",")


def _flag(option: str, text: str, **kwargs) -> Tuple[str, Dict[str, object]]:
    return option, dict(help=text, **kwargs)


#: Every flag a target may take: key -> (option, argparse kwargs). A
#: target lists the keys it honours with its own defaults, and the key is
#: the ``args`` attribute its runner reads. Keys sharing an option string
#: give it a different type per target: one store or a store list, one
#: channel count or a sweep grid.
FLAGS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "scale": _flag("--scale", "scale factor (paper setup / N)", type=float),
    "store": _flag("--stores", "the store to run", metavar="STORE",
                   choices=sorted(STORE_CLASSES)),
    "stores": _flag("--stores", "comma-separated stores", type=names),
    "seed": _flag("--seed", "workload seed", type=int),
    "num": _flag("--num", "operations per run; 0 derives it from --scale",
                 type=int),
    "channels": _flag("--channels", "device channels", type=int),
    "threads": _flag("--threads", "background compaction threads",
                     type=int),
    "channel_grid": _flag("--channels",
                          "comma-separated device channel counts",
                          type=ints),
    "thread_grid": _flag("--threads",
                         "comma-separated background thread counts",
                         type=ints),
    "observe": _flag("--observe", "wire a MetricRegistry through the stack",
                     action="store_true"),
    "trace_out": _flag("--trace-out",
                       "write a Chrome trace-event JSON (implies --observe) "
                       "and print the critical-path table",
                       metavar="PATH"),
    "rate": _flag("--rate", "open-loop arrival rate, ops per virtual second",
                  type=float),
    "duration": _flag("--duration", "horizon in virtual seconds",
                      type=float),
    "window_ms": _flag("--window-ms",
                       "percentile window width in virtual ms", type=float),
    "shards": _flag("--shards", "independent store shards", type=int),
    "tenants": _flag("--tenants", "tenants sharing the cluster", type=int),
    "mode": _flag("--mode", "open-loop arrivals or closed-loop clients",
                  choices=["open", "closed"]),
    "max_queue": _flag("--max-queue",
                       "per-shard admission queue bound; 0 disables "
                       "admission control", type=int),
    "spread": _flag("--spread",
                    "shards per tenant home group; 1 = tenant-affine "
                    "placement", type=int),
    "amplitude": _flag("--amplitude",
                       "diurnal rate modulation depth in [0, 1)",
                       type=float),
    "value_sizes": _flag("--value-sizes",
                         "comma-separated value sizes in bytes", type=ints),
    "value_threshold": _flag("--value-threshold",
                             "kv separation threshold in bytes, applied to "
                             "*-kv stores only", type=int),
    "interval_ms": _flag("--interval-ms", "virtual sampling interval in ms",
                         type=float),
    "latency_slo_us": _flag("--latency-slo-us",
                            "latency objective threshold in us; keep it on "
                            "a 1-2-5 histogram bucket bound for exact "
                            "good/bad counting", type=float),
    "points": _flag("--points", "injection-point budget per mode", type=int),
    "modes": _flag("--modes", "comma-separated crash-matrix modes",
                   type=names),
    "bg_threads": _flag("--bg-threads", "background compaction threads",
                        type=int),
    "chart": _flag("--chart", "render an ASCII chart instead of a table",
                   action="store_true"),
}


@dataclass(frozen=True)
class BenchTarget:
    """One ``python -m repro.bench`` target and, when gated, its gate."""

    name: str
    help: str
    #: runs once from parsed args: prints the report, writes the files
    #: into ``args.json`` when set, returns the exit code
    run: Callable[[argparse.Namespace], int]
    #: the flags it honours (keys of :data:`FLAGS`) -> this target's
    #: defaults
    flags: Dict[str, object] = field(default_factory=dict)
    #: schema of ``<name>.json`` and the metrics compare gates it on
    schema: Optional[str] = None
    metrics: Tuple[MetricSpec, ...] = ()
    #: the CI-sized flags; ``None`` means the target is not a gate
    ci_argv: Optional[Tuple[str, ...]] = None
    #: the files a CI-sized run writes that are committed baselines
    baselines: Tuple[str, ...] = ()
    #: the invariants of a CI-sized run's output dir -> problems found
    check: Optional[Callable[[str], List[str]]] = None


def read(*path: str) -> Dict[str, object]:
    """Load a JSON document from ``os.path.join(*path)``."""
    with open(os.path.join(*path)) as fh:
        return json.load(fh)


def _save(out_dir: Optional[str], files: Dict[str, object]) -> None:
    """Write each named JSON document (or text report) into ``out_dir``."""
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    for path, content in zip(paths, files.values()):
        if isinstance(content, str):
            with open(path, "w") as fh:
                fh.write(content + "\n")
        else:
            write_json(path, content)
    print(f"\nwrote {', '.join(paths)}")


def _by_workload(out_dir: str, name: str) -> Dict[str, Dict[str, object]]:
    return {row["workload"]: row for row in read(out_dir, name)["results"]}


def _below(better, worse, metrics, what: str) -> List[str]:
    """A problem for each metric where ``better`` is not strictly lower."""
    return [
        f"{what}: {m} {better[m]} is not below {worse[m]}"
        for m in metrics
        if not better[m] < worse[m]
    ]


# ----------------------------------------------------------------------
# the paper's figures and tables
# ----------------------------------------------------------------------


def _series(series) -> Dict[str, object]:
    """A store -> x -> value series with JSON (string) x keys."""
    return {
        "series": {
            store: {str(x): v for x, v in points.items()}
            for store, points in series.items()
        }
    }


def _failed(*claims: Tuple[bool, str]) -> List[str]:
    """The text of every ``(holds, text)`` claim that does not hold."""
    return [text for holds, text in claims if not holds]


def _cuts(new: float, old: float, floor: float, what: str) -> List[str]:
    """A problem unless ``new`` is more than ``floor`` below ``old``."""
    cut = 1 - new / old
    return _failed((cut > floor, f"{what}: cut {cut:.1%} <= {floor:.0%}"))


def _check_fig2a(doc) -> List[str]:
    # paper at 4 / 8 GB: Async << Direct < Sync, a ~9.5x Async-to-Direct
    # jump and ~13x overall; the sync penalty over Direct is tens of
    # percent, not integer factors
    problems = []
    for size in (4 * GIB, 8 * GIB):
        a, d, s = (doc["series"][k][str(size)]
                   for k in ("async", "direct", "sync"))
        at = f"{size // GIB} GB"
        ratios = {
            "direct/async": (d / a, 6.0, 15.0),
            "sync/async": (s / a, 9.0, 20.0),
            "sync/direct": (s / d, 1.05, 1.8),
        }
        problems += _failed(
            (a < d < s, f"{at}: not async {a} < direct {d} < sync {s}"),
            *((lo < r < hi, f"{at}: {name} {r:.2f} not in ({lo}, {hi})")
              for name, (r, lo, hi) in ratios.items()),
        )
    return problems


def _check_fig2b(doc) -> List[str]:
    # removing syncs helps at both table sizes and 64 MB tables help the
    # synced runs, yet even 64 MB tables leave a large sync penalty
    problems = []
    for w in ("fillrand", "overwrt"):
        s2, n2, s64, n64 = (
            doc["points"][f"{w}-{bar}"]
            for bar in ("2MB-sync", "2MB-nosync", "64MB-sync", "64MB-nosync")
        )
        problems += _failed(
            (n2 < s2, f"{w} 2MB: no-sync {n2} is not below sync {s2}"),
            (n64 < s64, f"{w} 64MB: no-sync {n64} is not below sync {s64}"),
            (s64 < s2, f"{w} sync: 64MB {s64} is not below 2MB {s2}"),
        )
        problems += _cuts(n64, s64, 0.25, f"{w} 64MB no-sync vs sync")
    return problems


def _check_fig4a(doc) -> List[str]:
    # NobLSM is the fastest consistency-preserving store: under LevelDB
    # and BoLT at every value size, ~44-47 % under LevelDB at 1-2 KB
    series = doc["series"]
    nob, ldb = series["noblsm"], series["leveldb"]
    return [
        *_below(nob, ldb, nob, "noblsm vs leveldb us/op"),
        *_below(nob, series["bolt"], nob, "noblsm vs bolt us/op"),
        *_cuts(nob["1024"], ldb["1024"], 0.25, "noblsm vs leveldb at 1 KB"),
    ]


def _check_fig4b(doc) -> List[str]:
    # overwrite: under LevelDB at every size; paper -47.5 % at 4 KB
    nob, ldb = doc["series"]["noblsm"], doc["series"]["leveldb"]
    return [
        *_below(nob, ldb, nob, "noblsm vs leveldb us/op"),
        *_cuts(nob["4096"], ldb["4096"], 0.2, "noblsm vs leveldb at 4 KB"),
    ]


def _check_fig4c(doc) -> List[str]:
    # readseq is cheap and close across stores (paper: 0-3 us/op)
    nob, ldb = doc["series"]["noblsm"], doc["series"]["leveldb"]
    return _failed(*(
        (nob[size] < 4 * ldb[size] and ldb[size] < 4 * nob[size],
         f"{size} B: noblsm {nob[size]} and leveldb {ldb[size]} differ 4x")
        for size in nob
    ))


def _check_fig4d(doc) -> List[str]:
    # readrandom: NobLSM comparable-or-better (paper: -24 % at 1 KB)
    nob, ldb = doc["series"]["noblsm"], doc["series"]["leveldb"]
    return _failed(*(
        (nob[size] <= 1.5 * ldb[size],
         f"{size} B: noblsm {nob[size]} > 1.5x leveldb {ldb[size]}")
        for size in nob
    ))


def _check_table1(doc) -> List[str]:
    # NobLSM syncs and flushes the least (paper: 84.9 % fewer syncs and
    # ~6x less data than LevelDB); HyperLevelDB's hard-coded small
    # tables make it sync the most
    stores = doc["stores"]
    nob, ldb = stores["noblsm"], stores["leveldb"]
    problems = []
    for store, row in stores.items():
        if store != "noblsm":
            problems += _below(
                nob, row, ("syncs", "gb_equiv"), f"noblsm vs {store}"
            )
    gb_ratio = ldb["gb_equiv"] / nob["gb_equiv"]
    most = max(row["syncs"] for row in stores.values())
    return [
        *problems,
        *_cuts(nob["syncs"], ldb["syncs"], 0.75, "noblsm vs leveldb syncs"),
        *_failed(
            (gb_ratio > 3.5, f"leveldb/noblsm GB {gb_ratio:.2f} <= 3.5"),
            (stores["hyperleveldb"]["syncs"] == most,
             f"hyperleveldb does not sync the most ({most})"),
        ),
    ]


#: the YCSB phases NobLSM must win
_WRITE_HEAVY = ("load-a", "a", "load-e")


def _check_fig5a(doc) -> List[str]:
    # one thread: NobLSM beats LevelDB and BoLT on the write-heavy
    # phases (paper: Load-A -48 %) and stays comparable on read-only C
    series = doc["series"]
    nob, ldb = series["noblsm"], series["leveldb"]
    return [
        *_below(nob, ldb, _WRITE_HEAVY, "noblsm vs leveldb us/op"),
        *_below(nob, series["bolt"], _WRITE_HEAVY, "noblsm vs bolt us/op"),
        *_cuts(nob["load-a"], ldb["load-a"], 0.2, "noblsm vs leveldb load-a"),
        *_failed((nob["c"] < 2 * ldb["c"],
                  f"c: noblsm {nob['c']} >= 2x leveldb {ldb['c']}")),
    ]


def _check_fig5b(doc) -> List[str]:
    # four threads: NobLSM still beats LevelDB on the write-heavy phases
    # and is at least comparable on read-only C (paper: about half)
    nob, ldb = doc["series"]["noblsm"], doc["series"]["leveldb"]
    return [
        *_below(nob, ldb, _WRITE_HEAVY, "noblsm vs leveldb us/op"),
        *_failed((nob["c"] <= 1.2 * ldb["c"],
                  f"c: noblsm {nob['c']} > 1.2x leveldb {ldb['c']}")),
    ]


def _figure(
    name, title, compute, render, payload, check, ci_argv, chart=None,
    **flags,
) -> BenchTarget:
    """A figure/table computed once, then rendered as a table (or with
    ``--chart`` as an ASCII plot) and written as its ``repro.figure/1``
    payload; gated by ``check`` over that payload at ``ci_argv``."""
    if chart is not None:
        flags["chart"] = False

    def run(args: argparse.Namespace) -> int:
        data = compute(args)
        print(chart(data) if chart and args.chart else render(data))
        print()
        doc = {"schema": FIGURE_SCHEMA, "figure": name, **payload(data)}
        _save(args.json, {f"{name}.json": doc})
        return 0

    return BenchTarget(
        name, title, run, flags,
        ci_argv=ci_argv,
        baselines=(f"{name}.json",),
        check=lambda out_dir: check(read(out_dir, f"{name}.json")),
    )


#: the CI scale of Figure 2b, the db_bench figures and Table 1
_CI_SCALE = ("--scale", "4000")

FIGURES: List[BenchTarget] = [
    _figure(
        "fig2a", "Figure 2a: Async / Direct / Sync raw writing",
        lambda args: figures.fig2a(), figures.render_fig2a, _series,
        _check_fig2a, (),
    ),
    _figure(
        "fig2b", "Figure 2b: SSTable size and syncs",
        lambda args: figures.fig2b(args.scale), figures.render_fig2b,
        lambda data: {"points": {k: round(v, 3) for k, v in data.items()}},
        _check_fig2b, _CI_SCALE,
        scale=figures.FIG2B_SCALE,
    ),
    *[
        _figure(
            f"fig{figures.FIG4_LABELS[workload]}",
            f"Figure {figures.FIG4_LABELS[workload]}: db_bench {workload}",
            lambda args, w=workload: figures.fig4(
                w, args.stores, scale=args.scale
            ),
            partial(figures.render_fig4, workload),
            lambda data, w=workload: {"workload": w, **_series(data)},
            check, (*_CI_SCALE, "--stores", stores),
            chart=partial(figures.chart_fig4, workload),
            scale=figures.DEFAULT_SCALE, stores=list(PAPER_STORES),
        )
        for workload, check, stores in (
            ("fillrandom", _check_fig4a, "leveldb,bolt,noblsm"),
            ("overwrite", _check_fig4b, "leveldb,noblsm"),
            ("readseq", _check_fig4c, "leveldb,noblsm"),
            ("readrandom", _check_fig4d, "leveldb,noblsm"),
        )
    ],
    _figure(
        "table1", "Table 1: SSTable syncs and GB synced",
        lambda args: figures.table1(args.stores, args.scale),
        figures.render_table1,
        lambda data: {
            "stores": {
                store: {"syncs": syncs, "gb_equiv": round(gb, 3)}
                for store, (syncs, gb) in data.items()
            }
        },
        _check_table1, _CI_SCALE,
        scale=figures.DEFAULT_SCALE, stores=list(PAPER_STORES),
    ),
    *[
        _figure(
            f"fig{label}", f"Figure {label}: YCSB, {threads} thread(s)",
            lambda args, t=threads: figures.fig5(
                t, args.stores, scale=args.scale
            ),
            partial(figures.render_fig5, threads),
            lambda data, t=threads: {"threads": t, **_series(data)},
            check, ci_argv,
            chart=partial(figures.chart_fig5, threads),
            scale=2000.0, stores=list(PAPER_STORES),
        )
        # Load-A's cut holds at scale 2000 and 8000 but not at 4000
        for label, threads, check, ci_argv in (
            ("5a", 1, _check_fig5a, ("--stores", "leveldb,bolt,noblsm")),
            ("5b", 4, _check_fig5b,
             ("--scale", "8000", "--stores", "leveldb,noblsm")),
        )
    ],
]


def _all(args: argparse.Namespace) -> int:
    for target in FIGURES:
        target.run(argparse.Namespace(json=args.json, **target.flags))
    return 0


# ----------------------------------------------------------------------
# bench runs and their gates
# ----------------------------------------------------------------------

#: the ``repro.bench/1`` gate (fillrandom, parallelism); lower is better
BENCH_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("us_per_op", 0.10, 0.01),
    MetricSpec("put_p99_us", 0.25, 5.0),
    MetricSpec("stall_ns", 0.25, 5e6),
    MetricSpec("device_bytes_written", 0.25, 64 * 1024),
    MetricSpec("syncs", 0.10, 2.0),
)


def _fillrandom(args: argparse.Namespace) -> int:
    trace = args.trace_out is not None
    config = ScaledConfig(
        scale=args.scale,
        num_ops=args.num,
        seed=args.seed,
        observe=args.observe or trace,
        trace=trace,
        num_channels=args.channels,
        background_threads=args.threads,
    )
    wall_start = time.perf_counter()
    result, stack, _ = run_fillrandom(args.store, config)
    result.wall_seconds = time.perf_counter() - wall_start
    print(
        f"fillrandom {args.store}: {result.num_ops} ops, "
        f"{result.us_per_op:.3f} us/op, {result.sync_calls} syncs, "
        f"{result.stall_ns / 1e6:.2f} ms stalled "
        f"[host: {result.wall_seconds:.3f}s, "
        f"{result.ops_per_sec_wall:,.0f} ops/sec real time]"
    )
    if stack.obs.enabled:
        print()
        print(format_latency_table([result]))
        print()
        print(format_breakdown_table([result]))
    meta = {
        "target": "fillrandom",
        "store": args.store,
        "scale": args.scale,
        "seed": args.seed,
    }
    if trace:
        print()
        print(render_critical_path(analyze_write_path(stack.obs), stack.obs))
        doc = write_chrome_trace(
            args.trace_out,
            stack.obs.tracer,
            meta=dict(
                meta,
                num_ops=result.num_ops,
                device=stack.ssd.profile.describe(),
            ),
        )
        print(
            f"\nwrote {args.trace_out} "
            f"({len(doc['traceEvents'])} events; open in ui.perfetto.dev)"
        )
    _save(args.json, {"fillrandom.json": results_document([result], meta)})
    return 0


def _parallelism(args: argparse.Namespace) -> int:
    results = run_parallelism(
        store=args.store,
        scale=args.scale,
        num_ops=args.num,
        channels=args.channel_grid,
        threads=args.thread_grid,
        seed=args.seed,
    )
    print(render_parallelism(results))
    meta = {
        "target": "parallelism",
        "store": args.store,
        "scale": args.scale,
        "channels": args.channel_grid,
        "threads": args.thread_grid,
    }
    _save(args.json, {"parallelism.json": results_document(results, meta)})
    return 0


def _check_parallelism(out_dir: str) -> List[str]:
    rows = {
        (r["extras"]["num_channels"], r["extras"]["background_threads"]): r
        for r in read(out_dir, "parallelism.json")["results"]
    }
    if (1, 1) not in rows or (4, 2) not in rows:
        return [f"sweep lacks the 1x1 or 4x2 point: {sorted(rows)}"]
    speedup = rows[(4, 2)]["extras"]["speedup"]
    if speedup < 1.3:
        return [f"4ch x 2thr speed-up {speedup:.2f}x < 1.3x"]
    return []


#: schema of the soak pair's document
SOAK_SCHEMA = "repro.soak/1"

#: the ``repro.soak/1`` stability gate (all lower-is-better, all
#: deterministic virtual-time numbers). ``windowed_p999_us`` is the
#: worst windowed p99.9 — the spike a user actually hits;
#: ``p999_ratio`` is that spike relative to the median window, the
#: paper-style stability measure; ``max_stall_ns`` the single longest
#: write stall; ``blocked_ns`` the unified stall + slowdown total.
#: Floors absorb near-zero wobble: a tuned run whose worst window is a
#: few microseconds must not fail the gate over nanosecond noise.
SOAK_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("windowed_p999_us", 0.25, 50.0),
    MetricSpec("p999_ratio", 0.25, 0.5),
    MetricSpec("max_stall_ns", 0.25, 1e6),
    MetricSpec("blocked_ns", 0.25, 5e6),
)


def _soak(args: argparse.Namespace) -> int:
    config = soak_config(
        store=args.store,
        scale=args.scale,
        seed=args.seed,
        arrival_rate=args.rate,
        duration_s=args.duration,
        window_ms=args.window_ms,
        num_channels=args.channels,
        background_threads=args.threads,
    )
    results = run_serve_pair(config)
    for result, name in zip(results, ("soak", "soak-tuned")):
        result.workload = name
    rendered = render_serve(results)
    print(rendered)
    meta = {
        "target": "soak",
        "store": args.store,
        "scale": args.scale,
        "seed": args.seed,
        "arrival_rate": args.rate,
        "duration_s": args.duration,
        "window_ms": args.window_ms,
    }
    _save(args.json, {
        "soak.json": results_document(results, meta, SOAK_SCHEMA),
        "soak-timeline.txt": rendered,
    })
    return 0


def _check_soak(out_dir: str) -> List[str]:
    rows = _by_workload(out_dir, "soak.json")
    return _below(
        rows["soak-tuned"], rows["soak"], ("p999_ratio", "max_stall_ns"),
        "tuned vs untuned soak",
    )


#: the ``repro.serve/1`` multi-tenant gate (all lower-is-better,
#: deterministic virtual-time numbers). ``worst_tenant_p999_us`` is the
#: serving headline — the tail the worst-off tenant actually gets;
#: ``fairness_ratio`` (worst/best tenant p99) is the multi-tenant SLA
#: measure; ``shed`` counts refused requests (a fair cluster should not
#: start shedding more than its recorded baseline); ``blocked_ns`` sums
#: writer-not-progressing time over every shard. Floors absorb
#: near-zero wobble on the tuned variant.
SERVE_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("worst_tenant_p999_us", 0.25, 50.0),
    MetricSpec("worst_tenant_p99_us", 0.25, 25.0),
    MetricSpec("fairness_ratio", 0.25, 0.5),
    MetricSpec("shed", 0.25, 20.0),
    MetricSpec("blocked_ns", 0.25, 5e6),
)


def _serve(args: argparse.Namespace) -> int:
    config = ServeConfig(
        store=args.store,
        num_shards=args.shards,
        num_tenants=args.tenants,
        scale=args.scale,
        seed=args.seed,
        arrival_rate=args.rate,
        duration_s=args.duration,
        window_ms=args.window_ms,
        diurnal_amplitude=args.amplitude,
        spread=args.spread,
        max_queue=args.max_queue,
        mode=args.mode,
        num_channels=args.channels,
        background_threads=args.threads,
    )
    results = run_serve_pair(config)
    rendered = render_serve(results)
    print(rendered)
    meta = {
        "target": "serve",
        "store": args.store,
        "scale": args.scale,
        "seed": args.seed,
        "shards": args.shards,
        "tenants": args.tenants,
        "arrival_rate": args.rate,
        "duration_s": args.duration,
        "window_ms": args.window_ms,
        "mode": args.mode,
    }
    _save(args.json, {
        "serve.json": results_document(results, meta, SERVE_SCHEMA),
        "serve-timeline.txt": rendered,
    })
    return 0


def _check_serve(out_dir: str) -> List[str]:
    rows = _by_workload(out_dir, "serve.json")
    base, fair = rows["serve"], rows["serve-fair"]
    problems = _below(
        fair, base, ("worst_tenant_p999_us",), "fair vs untuned cluster"
    )
    if base["shed"] + base["queued"] == 0:
        problems.append("admission never engaged: untuned shed + queued == 0")
    for row in rows.values():
        if not row["tenants"] or any(
            not {"p50_us", "p99_us", "p999_us"} <= set(tenant)
            for tenant in row["tenants"]
        ):
            problems.append(f"{row['workload']}: per-tenant rows missing")
    return problems


#: the ``repro.amplification/1`` gate (all lower-is-better ratios from
#: deterministic virtual-time runs). ``wa_device`` and ``wa_compaction``
#: are the headline write-amplification claims the kv variant exists
#: for; ``ra_point`` absorbs more wobble because probe counts shift with
#: any compaction-shape change; ``space_amp`` guards vLog garbage from
#: piling up unreclaimed.
AMPLIFICATION_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("wa_device", 0.10, 0.05),
    MetricSpec("wa_compaction", 0.10, 0.05),
    MetricSpec("ra_point", 0.25, 0.25),
    MetricSpec("space_amp", 0.10, 0.05),
)


def _amplification(args: argparse.Namespace) -> int:
    rows = run_amplification_sweep(
        stores=args.stores,
        value_sizes=args.value_sizes,
        scale=args.scale,
        num_ops=args.num,
        value_threshold=args.value_threshold,
        seed=args.seed,
    )
    print(render_amplification(rows))
    meta = {
        "target": "amplification",
        "stores": args.stores,
        "value_sizes": args.value_sizes,
        "scale": args.scale,
        "value_threshold": args.value_threshold,
        "seed": args.seed,
    }
    doc = results_document(rows, meta, AMPLIFICATION_SCHEMA)
    _save(args.json, {"amplification.json": doc})
    return 0


def _check_amplification(out_dir: str) -> List[str]:
    # the claim the kv variant exists for: strictly fewer bytes written
    # per user byte at large values, vLog appends counted into
    # WA(compaction)
    rows = {
        (r["store"], r["value_size"]): r
        for r in read(out_dir, "amplification.json")["results"]
    }
    return _below(
        rows[("noblsm-kv", 4096)], rows[("noblsm", 4096)],
        ("wa_device", "wa_compaction"), "noblsm-kv vs noblsm at 4 KiB",
    )


#: the ``repro.slo/1`` alerting gate (all lower-is-better, fully
#: deterministic). Alert *counts* are gated exactly (threshold 0 with a
#: 0.5 floor: any extra alert on a variant that held its SLOs fails);
#: ``bad_events`` (summed SLO violations) and ``max_burn`` (worst burn
#: rate any monitor saw) absorb moderate wobble because deliberate
#: workload changes shift them without changing the alert story.
SLO_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("alerts_total", 0.0, 0.5),
    MetricSpec("fast_burn_alerts", 0.0, 0.5),
    MetricSpec("bad_events", 0.25, 20.0),
    MetricSpec("max_burn", 0.25, 1.0),
)


def _slo(args: argparse.Namespace) -> int:
    config = SloConfig(
        interval_ms=args.interval_ms,
        latency_threshold_us=args.latency_slo_us,
        serve=ServeConfig(
            store=args.store,
            scale=args.scale,
            seed=args.seed,
            arrival_rate=args.rate,
            duration_s=args.duration,
            window_ms=args.window_ms,
            num_shards=args.shards,
            num_tenants=args.tenants,
            diurnal_amplitude=args.amplitude,
            spread=args.spread,
            max_queue=args.max_queue,
        ),
    )
    results = run_slo(config)
    rendered = render_slo(results)
    print(rendered)
    meta = {
        "target": "slo",
        "store": args.store,
        "scale": args.scale,
        "seed": args.seed,
        "interval_ms": args.interval_ms,
        "latency_slo_us": args.latency_slo_us,
        "window_ms": args.window_ms,
    }
    files = {"slo.json": results_document(results, meta, SLO_SCHEMA)}
    for result in results:
        files[f"timeseries-{result.workload}.json"] = (
            result.telemetry.sampler.document(
                dict(meta, workload=result.workload)
            )
        )
    files["slo-dashboard.txt"] = rendered
    _save(args.json, files)
    return 0


def _check_slo(out_dir: str) -> List[str]:
    rows = read(out_dir, "slo.json")["results"]
    problems = check_discrimination(rows)
    for row in rows:
        name = f"timeseries-{row['workload']}.json"
        doc = read(out_dir, name)
        if doc["schema"] != TIMESERIES_SCHEMA or not (
            doc["samples"] and doc["series"]
        ):
            problems.append(f"{name} holds no samples")
    return problems


#: the vLog crash-point families the kv store must reach
VLOG_KINDS = (
    "mid-vlog-append",
    "mid-vlog-gc",
    "pre-vlog-reclaim",
    "post-vlog-reclaim",
)


def _crash_matrix(args: argparse.Namespace) -> int:
    reports = [
        run_crash_matrix(
            CrashMatrixConfig(
                mode=mode,
                points=args.points,
                seed=args.seed,
                num_ops=args.num,
                background_threads=args.bg_threads,
            )
        )
        for mode in args.modes
    ]
    print(render_matrix(reports))
    _save(args.json, {"crash-matrix.json": matrix_payload(reports)})
    return 1 if any(r.violations for r in reports) else 0


def _check_crash_matrix(out_dir: str) -> List[str]:
    doc = read(out_dir, "crash-matrix.json")
    modes = {m["mode"]: m for m in doc["modes"]}
    problems = []
    if doc["schema"] != CRASH_MATRIX_SCHEMA:
        problems.append(f"schema {doc['schema']!r} != {CRASH_MATRIX_SCHEMA!r}")
    if doc["total_violations"]:
        problems.append(f"{doc['total_violations']} durability violation(s)")
    if doc["total_points"] < 150:
        problems.append(f"only {doc['total_points']} crash points (< 150)")
    if set(modes) != {"noblsm", "sync", "noblsm-kv"}:
        problems.append(f"modes {sorted(modes)} != noblsm, sync, noblsm-kv")
    kinds = modes.get("noblsm-kv", {}).get("points_by_kind", {})
    missing = [kind for kind in VLOG_KINDS if kind not in kinds]
    if missing:
        problems.append(f"vLog point families missing: {missing}")
    return problems


_SERVE, _SLO, _CRASH = ServeConfig(), SloConfig(), CrashMatrixConfig()

TARGETS: Dict[str, BenchTarget] = {
    target.name: target
    for target in [
        *FIGURES,
        BenchTarget(
            "all", "every figure and table above, at its defaults", _all
        ),
        BenchTarget(
            "fillrandom",
            "one fillrandom run, optionally observed and causally traced",
            _fillrandom,
            flags=dict(
                store="noblsm", scale=2000.0, seed=1234, num=0,
                channels=1, threads=1, observe=False, trace_out=None,
            ),
            schema=RESULTS_SCHEMA,
            metrics=BENCH_METRICS,
            ci_argv=("--observe",),
            baselines=("fillrandom.json",),
        ),
        BenchTarget(
            "parallelism",
            "device channels x background compaction threads sweep",
            _parallelism,
            flags=dict(
                store="noblsm", scale=PARALLELISM_SCALE, seed=1234, num=0,
                channel_grid=list(DEFAULT_CHANNELS),
                thread_grid=list(DEFAULT_THREADS),
            ),
            schema=RESULTS_SCHEMA,
            metrics=BENCH_METRICS,
            ci_argv=(),
            baselines=("parallelism.json",),
            check=_check_parallelism,
        ),
        BenchTarget(
            "soak",
            "open-loop stability pair on one store (a one-shard, one-tenant "
            "serve run): stock vs rate limiter + dynamic slowdown",
            _soak,
            flags=dict(
                store=SOAK.store, scale=SOAK.scale, seed=SOAK.seed,
                channels=SOAK.num_channels,
                threads=SOAK.background_threads,
                rate=SOAK.arrival_rate, duration=SOAK.duration_s,
                window_ms=SOAK.window_ms,
            ),
            schema=SOAK_SCHEMA,
            metrics=SOAK_METRICS,
            # short enough for a gate job, long enough for the tree to
            # reach the bursty-compaction regime
            ci_argv=("--duration", "0.3"),
            baselines=("soak.json", "soak-timeline.txt"),
            check=_check_soak,
        ),
        BenchTarget(
            "serve",
            "sharded multi-tenant cluster pair: untuned vs fair-scheduled",
            _serve,
            flags=dict(
                store=_SERVE.store, scale=_SERVE.scale, seed=_SERVE.seed,
                channels=_SERVE.num_channels,
                threads=_SERVE.background_threads,
                rate=_SERVE.arrival_rate, duration=_SERVE.duration_s,
                window_ms=_SERVE.window_ms, shards=_SERVE.num_shards,
                tenants=_SERVE.num_tenants, mode=_SERVE.mode,
                max_queue=_SERVE.max_queue, spread=_SERVE.spread,
                amplitude=_SERVE.diurnal_amplitude,
            ),
            schema=SERVE_SCHEMA,
            metrics=SERVE_METRICS,
            # the defaults already make the hot tenant's shard shed
            ci_argv=(),
            baselines=("serve.json", "serve-timeline.txt"),
            check=_check_serve,
        ),
        BenchTarget(
            "amplification",
            "write/read/space amplification: noblsm vs noblsm-kv",
            _amplification,
            flags=dict(
                stores=list(AMPLIFICATION_STORES), scale=AMPLIFICATION_SCALE,
                seed=1234, num=0, value_sizes=list(DEFAULT_VALUE_SIZES),
                value_threshold=DEFAULT_VALUE_THRESHOLD,
            ),
            schema=AMPLIFICATION_SCHEMA,
            metrics=AMPLIFICATION_METRICS,
            ci_argv=(),
            baselines=("amplification.json",),
            check=_check_amplification,
        ),
        BenchTarget(
            "slo",
            "flight recorder: the serve pair with telemetry and SLO "
            "burn-rate alerts",
            _slo,
            flags=dict(
                store=_SERVE.store, scale=_SERVE.scale, seed=_SERVE.seed,
                interval_ms=_SLO.interval_ms,
                latency_slo_us=_SLO.latency_threshold_us,
                rate=_SERVE.arrival_rate, duration=_SERVE.duration_s,
                window_ms=_SERVE.window_ms,
                shards=_SERVE.num_shards, tenants=_SERVE.num_tenants,
                max_queue=_SERVE.max_queue, spread=_SERVE.spread,
                amplitude=_SERVE.diurnal_amplitude,
            ),
            schema=SLO_SCHEMA,
            metrics=SLO_METRICS,
            ci_argv=(),
            baselines=(
                "slo.json",
                "timeseries-serve.json",
                "timeseries-serve-fair.json",
                "slo-dashboard.txt",
            ),
            check=_check_slo,
        ),
        BenchTarget(
            "crash-matrix",
            "durability sweep over crash points; exits 1 on a violation",
            _crash_matrix,
            flags=dict(
                points=_CRASH.points, seed=_CRASH.seed, num=_CRASH.num_ops,
                modes=["noblsm", "sync"],
                bg_threads=_CRASH.background_threads,
            ),
            # 240 ops is the floor at which the kv store's vLog GC and
            # commit-gated segment retirement happen inside the workload
            # horizon; below it the vlog-gc/vlog-reclaim families vanish
            ci_argv=(
                "--points", "60", "--num", "240",
                "--modes", "noblsm,sync,noblsm-kv",
            ),
            check=_check_crash_matrix,
        ),
    ]
}

#: the regression gates, in CI matrix order
GATES: List[BenchTarget] = [
    t for t in TARGETS.values() if t.ci_argv is not None
]

#: compare's lookup: document schema -> the metrics it is gated on
METRICS_BY_SCHEMA: Dict[str, Tuple[MetricSpec, ...]] = {
    t.schema: t.metrics for t in TARGETS.values() if t.metrics
}
