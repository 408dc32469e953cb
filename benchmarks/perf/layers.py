"""Turn what the program already counts into named benchmark metrics.

Three sources, all read from outside the program:

- plain counters every layer keeps whether or not observability is on
  (``stack.ssd.stats``, ``stack.sync_stats``, ``db.stats`` ...), read
  before and after the timed phase — :func:`counts`, :func:`deterministic`;
- the ``MetricRegistry`` / ``Tracer`` the traced pass switches on —
  :func:`registry_metrics`;
- a ``cProfile`` pass bucketed by package — :func:`profile_metrics`.

Everything :func:`deterministic` returns is virtual time or a count, so
it must come out identical on every repeat of the same inputs.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from repro.lsm.db import PRESSURE_SLOWDOWN, PRESSURE_STOP
from repro.lsm.filenames import table_file_name
from repro.lsm.sstable import Table
from repro.obs.critical_path import UNATTRIBUTED, analyze_write_path
from repro.sim.clock import to_micros

from workloads import GET, GET_MISSING, PUT, SCAN, Env, Inputs, Outcome

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: packages of ``src/repro`` that are layers of the system
LAYERS = ("sim", "fs", "lsm", "core", "serve", "obs", "bench")


def percentile(sorted_values: Sequence[int], q: float) -> int:
    """Exact nearest-rank percentile (0 < q <= 1) of a sorted sample."""
    if not sorted_values:
        return 0
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def counts(env: Env) -> Dict[str, int]:
    """Every always-on counter, summed over the system's machines."""
    total: Counter = Counter()
    for stack, db in zip(env.stacks, env.dbs):
        device = stack.ssd.stats
        cache = stack.pagecache
        blocks = db.table_cache.block_cache
        total.update(
            dev_write_bytes=device.bytes_written,
            dev_read_bytes=device.bytes_read,
            dev_write_ios=device.write_ios,
            dev_read_ios=device.read_ios,
            dev_flushes=device.flushes,
            dev_busy_ns=device.busy_ns,
            sync_calls=stack.sync_stats.sync_calls,
            sync_bytes=stack.sync_stats.bytes_synced,
            journal_commits=stack.journal.commits,
            check_commit=stack.syscalls.check_commit_calls,
            is_committed=stack.syscalls.is_committed_calls,
            pagecache_hits=cache.hits,
            pagecache_misses=cache.misses,
            pagecache_evictions=cache.evictions,
            throttle_ns=stack.fs.throttle_ns,
            gets=db.stats.gets,
            minor=db.stats.minor_compactions,
            major=db.stats.major_compactions,
            seek=db.stats.seek_compactions,
            trivial=db.stats.trivial_moves,
            stall_memtable_ns=db.stats.stall_memtable_ns,
            stall_l0_stop_ns=db.stats.stall_l0_stop_ns,
            slowdown_ns=db.stats.slowdown_ns,
            flushed_bytes=db.stats.bytes_flushed,
            compaction_in_bytes=db.stats.bytes_compacted_in,
            compaction_out_bytes=db.stats.bytes_compacted_out,
            bg_busy_ns=db.bg.busy_ns,
            bg_queue_ns=db.bg.stall_ns,
            bg_throttle_ns=db.bg.throttle_ns,
            table_opens=db.table_cache.opens,
            blockcache_hits=blocks.hits,
            blockcache_misses=blocks.misses,
            shadows_deleted=getattr(db, "shadows_deleted", 0),
            reclaim_runs=getattr(db, "reclaim_runs", 0),
        )
    return dict(total)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _logical_bytes(model: Dict[object, bytes]) -> int:
    """Key+value bytes of the live data (serve keys are (tenant, key))."""
    total = 0
    for key, value in model.items():
        if isinstance(key, tuple):
            total += len(key[0]) + len(key[1])
        else:
            total += len(key)
        total += len(value)
    return total


def stored_bytes(env: Env) -> "tuple[int, int]":
    """(bytes of every file under the db dirs, of which NobLSM shadows)."""
    stored = shadows = 0
    for stack, db in zip(env.stacks, env.dbs):
        fs = stack.fs
        stored += sum(
            fs.stat_size(path) for path in fs.list_dir(db.dbname + "/")
        )
        tracker = getattr(db, "tracker", None)
        if tracker is not None:
            for number in tracker.shadow_numbers():
                path = table_file_name(db.dbname, number)
                if fs.exists(path):
                    shadows += fs.stat_size(path)
    return stored, shadows


def space_sample(env: Env) -> Dict[str, int]:
    """What the traced pass samples while the timed phase runs."""
    stored, shadows = stored_bytes(env)
    return {
        "dev_bytes_written": sum(s.ssd.stats.bytes_written for s in env.stacks),
        "stored_bytes": stored,
        "shadow_bytes": shadows,
        "shadow_tables": sum(getattr(db, "shadow_count", 0) for db in env.dbs),
    }


def _latency_metrics(prefix: str, values: Iterable[int], tail: bool = True) -> Dict[str, float]:
    ordered = sorted(values)
    out = {f"{prefix}_p50_us": to_micros(percentile(ordered, 0.5))}
    if tail:
        out[f"{prefix}_p999_us"] = to_micros(percentile(ordered, 0.999))
    return out


def deterministic(
    env: Env,
    inputs: Inputs,
    outcome: Outcome,
    start: Dict[str, int],
    end: Dict[str, int],
) -> Dict[str, float]:
    """Every virtual-time and count metric of one repeat, by final name."""
    ops = outcome.attempted
    kops = ops / 1000.0
    delta = {name: end[name] - start[name] for name in end}
    pooled = sorted(x for values in outcome.latencies.values() for x in values)
    model = outcome.model if outcome.model is not None else inputs.model
    stored, _ = stored_bytes(env)
    virtual_ns = outcome.end - env.now

    metrics: Dict[str, float] = {
        # end to end
        "virt_us_per_op": to_micros(ratio(sum(pooled), len(pooled))),
        "virt_p50_us": to_micros(percentile(pooled, 0.5)),
        "virt_p999_us": to_micros(percentile(pooled, 0.999)),
        "write_amp": ratio(end["dev_write_bytes"], outcome.user_bytes_put),
        "read_amp": ratio(delta["dev_read_bytes"], outcome.user_bytes_moved),
        "space_amp": ratio(stored, _logical_bytes(model)),
        # sim
        "sim.dev_write_bytes_per_op": delta["dev_write_bytes"] / ops,
        "sim.dev_read_bytes_per_op": delta["dev_read_bytes"] / ops,
        "sim.dev_write_ios_per_kop": delta["dev_write_ios"] / kops,
        "sim.dev_read_ios_per_kop": delta["dev_read_ios"] / kops,
        "sim.dev_flushes_per_kop": delta["dev_flushes"] / kops,
        "sim.dev_busy_frac": ratio(
            delta["dev_busy_ns"], virtual_ns * len(env.stacks)
        ),
        # fs
        "fs.sync_calls_per_kop": delta["sync_calls"] / kops,
        "fs.sync_bytes_per_op": delta["sync_bytes"] / ops,
        "fs.journal_commits_per_kop": delta["journal_commits"] / kops,
        "fs.throttle_virt_ns_per_op": delta["throttle_ns"] / ops,
        "fs.check_commit_per_kop": delta["check_commit"] / kops,
        "fs.is_committed_per_kop": delta["is_committed"] / kops,
        "fs.pagecache_hit_rate": ratio(
            delta["pagecache_hits"],
            delta["pagecache_hits"] + delta["pagecache_misses"],
        ),
        "fs.pagecache_evictions_per_kop": delta["pagecache_evictions"] / kops,
        # lsm
        "lsm.stall_memtable_virt_ns_per_op": delta["stall_memtable_ns"] / ops,
        "lsm.stall_l0_stop_virt_ns_per_op": delta["stall_l0_stop_ns"] / ops,
        "lsm.slowdown_virt_ns_per_op": delta["slowdown_ns"] / ops,
        "lsm.minor_compactions_per_kop": delta["minor"] / kops,
        "lsm.major_compactions_per_kop": delta["major"] / kops,
        "lsm.seek_compactions_per_kop": delta["seek"] / kops,
        "lsm.trivial_moves_per_kop": delta["trivial"] / kops,
        "lsm.compaction_in_bytes_per_op": delta["compaction_in_bytes"] / ops,
        "lsm.compaction_out_bytes_per_op": delta["compaction_out_bytes"] / ops,
        "lsm.wa_compaction": ratio(
            end["flushed_bytes"] + end["compaction_out_bytes"],
            outcome.user_bytes_put,
        ),
        "lsm.compaction_virt_ns_per_op": delta["bg_busy_ns"] / ops,
        "lsm.bg_queue_virt_ns_per_op": delta["bg_queue_ns"] / ops,
        "lsm.bg_stall_virt_ns_per_op": delta["bg_throttle_ns"] / ops,
        "lsm.blockcache_hit_rate": ratio(
            delta["blockcache_hits"],
            delta["blockcache_hits"] + delta["blockcache_misses"],
        ),
        "lsm.tablecache_opens_per_kop": delta["table_opens"] / kops,
        # core
        "core.shadows_deleted_per_kop": delta["shadows_deleted"] / kops,
        "core.reclaim_runs_per_kop": delta["reclaim_runs"] / kops,
    }
    by_kind = outcome.latencies
    metrics.update(_latency_metrics("lsm.put", by_kind.get(PUT, ())))
    metrics.update(_latency_metrics("lsm.get", by_kind.get(GET, ())))
    metrics.update(
        _latency_metrics(
            "lsm.get_missing", by_kind.get(GET_MISSING, ()), tail=False
        )
    )
    metrics.update(_latency_metrics("lsm.scan", by_kind.get(SCAN, ())))
    return metrics


# ----------------------------------------------------------------------
# the traced pass: MetricRegistry + Tracer
# ----------------------------------------------------------------------

#: metrics only the registry can give; zero when no store reports them
REGISTRY_METRICS = (
    "sim.dev_queue_ns_per_op",
    "fs.journal_commit_virt_ns_per_op",
    "fs.writeback_bytes_per_op",
    "lsm.write_path.wal_append_share",
    "lsm.write_path.memtable_insert_share",
    "lsm.write_path.stall_share",
    "lsm.write_path.writer_lock_share",
    "lsm.write_path.unattributed_share",
)


def registry_metrics(registries: Sequence[object], ops: int) -> Dict[str, float]:
    """Read the registries the traced pass reset before its timed phase."""
    queue_ns = writeback = commit_ns = 0
    segments: Counter = Counter()
    for obs in registries:
        queue_ns += obs.counter("device.queue_ns").value
        writeback += obs.counter("fs.writeback_bytes").value
        commits = obs.find_histogram("span.journal.commit_ns")
        commit_ns += commits.sum if commits is not None else 0
        if obs.tracer is not None:
            for segment in analyze_write_path(obs).segments:
                segments[segment.name] += segment.total_ns
    total = sum(segments.values())
    stall = sum(ns for name, ns in segments.items() if name.startswith("stall."))
    return {
        "sim.dev_queue_ns_per_op": queue_ns / ops,
        "fs.journal_commit_virt_ns_per_op": commit_ns / ops,
        "fs.writeback_bytes_per_op": writeback / ops,
        "lsm.write_path.wal_append_share": ratio(segments["wal.append"], total),
        "lsm.write_path.memtable_insert_share": ratio(
            segments["memtable.insert"], total
        ),
        "lsm.write_path.stall_share": ratio(stall, total),
        "lsm.write_path.writer_lock_share": ratio(segments["writer_lock"], total),
        "lsm.write_path.unattributed_share": ratio(segments[UNATTRIBUTED], total),
    }


@contextmanager
def count_table_probes(missing: Set[bytes]) -> Iterator[Counter]:
    """Count ``Table.get`` calls while active, split by whether the key
    is one the workload knows to be absent (as ``bench/amplification.py``
    does for its read-amplification probe)."""
    probes: Counter = Counter()
    original = Table.get

    def counting_get(self, user_key, at, *args, **kwargs):
        probes["missing" if user_key in missing else "present"] += 1
        return original(self, user_key, at, *args, **kwargs)

    Table.get = counting_get
    try:
        yield probes
    finally:
        Table.get = original


# ----------------------------------------------------------------------
# the profiled pass: host self time and calls by package
# ----------------------------------------------------------------------


def _bucket(code: object) -> str:
    if isinstance(code, str):  # a builtin has no file
        return "py"
    filename = code.co_filename
    if filename.startswith(BENCH_DIR):
        return "bench"
    head, sep, tail = filename.rpartition(os.sep + "repro" + os.sep)
    if sep:
        return tail.split(os.sep, 1)[0]
    return "py"


def profile_metrics(profiler, ops: int) -> Dict[str, float]:
    """Bucket ``cProfile`` self time and call counts by ``repro/<package>``.

    ``py`` collects builtins and the standard library. Call counts are
    exact and repeat; self time includes the profiler's own per-call
    cost, so use it for shares, not for speed.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for entry in profiler.getstats():
        bucket = _bucket(entry.code)
        self_s[bucket] += entry.inlinetime
        calls[bucket] += entry.callcount
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.host_self_us_per_op"] = self_s[layer] * 1e6 / ops
    for layer in ("sim", "fs", "lsm", "serve"):
        metrics[f"{layer}.host_calls_per_op"] = calls[layer] / ops
    metrics["bench.py_builtins_self_us_per_op"] = self_s["py"] * 1e6 / ops
    metrics["bench.host_calls_per_op"] = sum(calls.values()) / ops
    return metrics


# ----------------------------------------------------------------------
# serve: what the front door did
# ----------------------------------------------------------------------


def rate_label(rate: int) -> str:
    return f"r{rate // 1000}k"


def serve_rate_metrics(outcome: Outcome, limit_ns: int) -> Dict[str, float]:
    """One rate's exact numbers (served latencies; shed counts as a miss)."""
    served = sorted(outcome.latencies["request"])
    within = sum(1 for latency in served if latency <= limit_ns)
    return {
        "p999_us": to_micros(percentile(served, 0.999)),
        "shed_fraction": outcome.shed / outcome.attempted,
        "within_limit": within / outcome.attempted,
        "backlog_after_limit": outcome.backlog_after_limit,
        "samples": len(served),
    }


def serve_front_door_metrics(env: Env, outcome: Outcome) -> Dict[str, float]:
    """Admission, fairness and placement, from the cluster's own records."""
    cluster = env.cluster
    kops = outcome.attempted / 1000.0
    queued = slowdown = stop = 0
    for shard in cluster.shards:
        stats = shard.admission.stats
        queued += stats.queued
        slowdown += stats.shed_by_pressure.get(PRESSURE_SLOWDOWN, 0)
        stop += stats.shed_by_pressure.get(PRESSURE_STOP, 0)
    tails: List[float] = []
    p99s: List[float] = []
    for tenant, stats in cluster.tenants.items():
        if stats.served:
            total = cluster.tenant_latency[tenant].total
            tails.append(to_micros(total.percentile(99.9)))
            p99s.append(to_micros(total.p99))
    served = [shard.served for shard in cluster.shards]
    return {
        "serve.queued_per_kop": queued / kops,
        "serve.shed_slowdown_per_kop": slowdown / kops,
        "serve.shed_stop_per_kop": stop / kops,
        "serve.worst_tenant_p999_us": max(tails, default=0.0),
        "serve.fairness_ratio": ratio(max(p99s, default=0.0), min(p99s, default=0.0)),
        "serve.hot_shard_op_share": ratio(max(served), sum(served)),
    }
