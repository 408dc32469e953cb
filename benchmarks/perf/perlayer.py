"""``--trace 1``: one traced run, per-layer metrics.

Three passes over the same inputs, each on a fresh system, each of
which must reproduce the same virtual numbers:

- **profiled** — ``cProfile`` around the timed phase, observability off:
  host self time and exact call counts by ``repro/<package>``. Runs
  first, so it also warms the process up;
- **untraced** — nothing on: the reference numbers and host time;
- **traced** — the program's ``MetricRegistry`` + ``Tracer`` on, and the
  benchmark's own spans around every phase and public call.

``write`` adds one LevelDB pass (the paper's comparison); ``serve`` adds
one untraced pass at each other arrival rate.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, List

import layers
from measure import Repeat, check_identical, final_state_check, one_repeat
from repro.obs.metrics import MetricRegistry
from tracing import SpanLog
from workloads import (
    GET,
    GET_MISSING,
    SERVE_RATES,
    SLO_LIMIT_NS,
    SLO_QUANTILE,
    Inputs,
    Serve,
    Size,
    Workload,
)

#: paper, Fig. 4a: NobLSM issues 84.9% fewer syncs than LevelDB
PAPER_SYNC_REDUCTION = 0.849

#: metrics that only one workload measures; zero on the others
WRITE_ONLY = (
    "baselines.leveldb_virt_us_per_op",
    "baselines.leveldb_sync_calls_per_kop",
    "core.virt_speedup_vs_leveldb",
    "core.sync_reduction_vs_leveldb",
)
SERVE_ONLY = (
    "shed_fraction",
    "serve_rate_in_slo",
    "serve.queued_per_kop",
    "serve.shed_slowdown_per_kop",
    "serve.shed_stop_per_kop",
    "serve.worst_tenant_p999_us",
    "serve.fairness_ratio",
    "serve.hot_shard_op_share",
    f"serve.shed_fraction.{layers.rate_label(SERVE_RATES[-1])}",
    *(f"serve.p999_us.{layers.rate_label(rate)}" for rate in SERVE_RATES),
)


def traced_pass(
    workload: Workload, inputs: Inputs, size: Size, log: SpanLog
) -> "tuple[Repeat, Dict[str, float]]":
    """The program's observability on; returns what only it can tell."""
    missing = {key for kind, key, _, _ in inputs.ops if kind == GET_MISSING}
    with layers.count_table_probes(missing) as probes:
        traced = one_repeat(
            workload, inputs, size, obs=MetricRegistry(),
            # ServeCluster builds its own shard registries; no Tracer fits
            trace=workload.name != "serve", log=log,
        )
    ops = traced.outcome.attempted
    metrics = layers.registry_metrics(
        [stack.obs for stack in traced.env.stacks], ops
    )
    latencies = traced.outcome.latencies
    metrics["lsm.table_probes_per_get"] = layers.ratio(
        probes["present"], len(latencies.get(GET, ()))
    )
    metrics["lsm.table_probes_per_missing_get"] = layers.ratio(
        probes["missing"], len(latencies.get(GET_MISSING, ()))
    )
    # shadows are reclaimed by the final drain, so their cost in space
    # is read at its peak while the timed phase runs
    metrics["core.shadow_tables_peak"] = float(
        max((s["shadow_tables"] for s in log.samples), default=0)
    )
    metrics["core.shadow_bytes_share"] = max(
        (layers.ratio(s["shadow_bytes"], s["stored_bytes"]) for s in log.samples),
        default=0.0,
    )
    traced.env = None
    return traced, metrics


def write_amp_curve(inputs: Inputs, log: SpanLog) -> List[float]:
    """Device bytes / user bytes after each quarter of the timed puts.

    Shows whether write amplification has levelled off by the end.
    """
    ops = len(inputs.ops)
    preload_bytes = inputs.user_bytes_put - inputs.user_bytes_moved
    per_op = inputs.user_bytes_moved / ops
    curve = []
    for quarter in (1, 2, 3, 4):
        upto = [s for s in log.samples if s["calls"] <= quarter * ops // 4]
        if upto:
            sample = upto[-1]
            curve.append(round(
                sample["dev_bytes_written"]
                / (preload_bytes + sample["calls"] * per_op), 4,
            ))
    return curve


def leveldb_reference(
    workload: Workload, inputs: Inputs, size: Size, noblsm: Dict[str, float]
) -> Dict[str, float]:
    """The same inputs on LevelDB: the paper's speed-up and sync claims."""
    leveldb = one_repeat(workload, inputs, size, store="leveldb").virtual
    syncs = leveldb["fs.sync_calls_per_kop"]
    return {
        "baselines.leveldb_virt_us_per_op": leveldb["virt_us_per_op"],
        "baselines.leveldb_sync_calls_per_kop": syncs,
        "core.virt_speedup_vs_leveldb": leveldb["virt_us_per_op"]
        / noblsm["virt_us_per_op"],
        "core.sync_reduction_vs_leveldb": 1.0
        - noblsm["fs.sync_calls_per_kop"] / syncs,
    }


def serve_rates(
    seed: int, size: Size, main: Repeat, main_rate: int
) -> "tuple[Dict[str, float], Dict[str, object], int]":
    """Every fixed arrival rate once; returns (metrics, notes, wrong).

    Admission, fairness and placement are reported at the top rate, the
    only one where admission control has to act.
    """
    metrics: Dict[str, float] = {}
    by_rate: Dict[int, Dict[str, float]] = {}
    wrong = 0
    for rate in SERVE_RATES:
        if rate == main_rate:
            run = main
        else:
            side = Serve(rate)
            run = one_repeat(side, side.generate(seed, size), size)
            wrong += side.read_back(run.env, run.outcome.model)
        numbers = by_rate[rate] = layers.serve_rate_metrics(
            run.outcome, SLO_LIMIT_NS
        )
        label = layers.rate_label(rate)
        metrics[f"serve.p999_us.{label}"] = numbers["p999_us"]
        if rate == SERVE_RATES[-1]:
            metrics[f"serve.shed_fraction.{label}"] = numbers["shed_fraction"]
            metrics.update(
                layers.serve_front_door_metrics(run.env, run.outcome)
            )
        if run is not main:
            run.env = None
    metrics["shed_fraction"] = by_rate[SERVE_RATES[1]]["shed_fraction"]
    in_slo = [
        rate
        for rate, numbers in by_rate.items()
        if numbers["within_limit"] >= SLO_QUANTILE
        and numbers["backlog_after_limit"] == 0
    ]
    metrics["serve_rate_in_slo"] = float(max(in_slo, default=0))
    notes = {"serve_rates": {str(rate): n for rate, n in by_rate.items()}}
    return metrics, notes, wrong


def per_layer(
    workload: Workload, inputs: Inputs, size: Size, seed: int, out_dir: str
) -> "tuple[Dict[str, float], Dict[str, object]]":
    """Run the passes; returns (metrics by name, run information)."""
    profiler = cProfile.Profile()
    profiled = one_repeat(workload, inputs, size, profiler=profiler)
    ops = profiled.outcome.attempted
    metrics = layers.profile_metrics(profiler, ops)
    profiled.env = None

    untraced = one_repeat(workload, inputs, size)
    check_identical(
        untraced.virtual, profiled.virtual, "the untraced and profiled pass"
    )
    metrics.update(untraced.virtual)

    log = SpanLog()
    traced, traced_metrics = traced_pass(workload, inputs, size, log)
    check_identical(
        untraced.virtual, traced.virtual, "the untraced and traced pass"
    )
    metrics.update(traced_metrics)
    metrics["obs.trace_overhead_ratio"] = traced.cpu_s / untraced.cpu_s
    trace_path = os.path.join(out_dir, f"{workload.name}.trace.json")
    log.write(trace_path, {"workload": workload.name, "seed": seed, "ops": ops})
    notes: Dict[str, object] = {"trace_file": os.path.relpath(trace_path)}

    metrics.update(dict.fromkeys(WRITE_ONLY + SERVE_ONLY, 0.0))
    wrong = untraced.outcome.wrong
    if workload.name == "write":
        notes["write_amp_at_quarters"] = write_amp_curve(inputs, log)
        notes["paper_sync_reduction_fig4a"] = PAPER_SYNC_REDUCTION
        metrics.update(leveldb_reference(workload, inputs, size, metrics))
    if workload.name == "serve":
        rates, rate_notes, wrong_side = serve_rates(
            seed, size, untraced, workload.rate
        )
        metrics.update(rates)
        notes.update(rate_notes)
        wrong += wrong_side
    checked, wrong_after, recovery = final_state_check(
        workload, inputs, untraced
    )
    metrics.update(recovery)
    wrong += wrong_after

    info = {
        "attempted": ops + checked,
        # shed requests at the side rates are reported as metrics, not
        # as failures of this workload's own operations
        "failed": wrong + untraced.outcome.shed,
        "wrong": wrong,
        "repeats": 1,
        "latency_samples": sum(
            len(v) for v in untraced.outcome.latencies.values()
        ),
        "notes": notes,
    }
    return metrics, info
