"""Critical-path latency attribution for the LSM write path.

Every traced ``db.write`` root span carries child segment spans that
partition its latency: writer-lock wait, stall spans (L0 slowdown,
memtable full, L0 stop), the memtable switch (WAL file creation),
the WAL append, the optional WAL fsync, and the memtable insert CPU
time. :func:`analyze_write_path` folds those segments across all traced
operations into a per-segment p50/p99 attribution table, and reports
what share of the *tail* (operations at or beyond the exact p99 total
latency) each segment explains — the "which layer made this p99 put
slow?" answer.

Time an operation spends that no child explains shows up as the
``unattributed`` residual, so the table always sums to 100% and a
coverage hole is visible rather than silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricRegistry

#: segment child-span names the write path emits, in pipeline order
WRITE_SEGMENTS = (
    "writer_lock",
    "stall.l0_slowdown",
    "stall.memtable_full",
    "stall.l0_stop",
    "memtable.switch",
    "wal.append",
    "wal.sync",
    "memtable.insert",
)

#: the residual bucket — total minus all named children
UNATTRIBUTED = "unattributed"


def _pct(sorted_vals: Sequence[int], q: float) -> int:
    """Exact nearest-rank percentile over a sorted sample."""
    if not sorted_vals:
        return 0
    rank = max(int(math.ceil(q / 100.0 * len(sorted_vals))), 1)
    return sorted_vals[rank - 1]


@dataclass
class SegmentStat:
    """One attribution row: a named slice of the write path."""

    name: str
    count: int = 0
    total_ns: int = 0
    p50_ns: int = 0
    p99_ns: int = 0
    #: fraction of total tail (>= p99) latency this segment explains
    share_p99: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "total_ns": self.total_ns,
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "share_p99": round(self.share_p99, 4),
        }


@dataclass
class CriticalPathReport:
    """Attribution of operation latency across named segments."""

    op: str = "db.write"
    count: int = 0
    total_p50_ns: int = 0
    total_p99_ns: int = 0
    tail_ops: int = 0
    #: fraction of tail latency attributed to *named* segments
    coverage_p99: float = 0.0
    segments: List[SegmentStat] = field(default_factory=list)

    def segment(self, name: str) -> Optional[SegmentStat]:
        for seg in self.segments:
            if seg.name == name:
                return seg
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "count": self.count,
            "total_p50_ns": self.total_p50_ns,
            "total_p99_ns": self.total_p99_ns,
            "tail_ops": self.tail_ops,
            "coverage_p99": round(self.coverage_p99, 4),
            "segments": [seg.to_dict() for seg in self.segments],
        }


def analyze_write_path(
    registry: MetricRegistry, op: str = "db.write"
) -> CriticalPathReport:
    """Decompose every traced ``op`` root span into segment attribution.

    The spans are the ones the registry's tracer kept, in finish order;
    a registry with no tracer gives a report with a count of 0.
    """
    report = CriticalPathReport(op=op)
    ops: List[Dict[str, int]] = []
    totals: List[int] = []
    tracer = registry.tracer
    for span in tracer.spans if tracer is not None else ():
        if span.parent is not None or span.name != op:
            continue
        total = span.duration_ns
        parts: Dict[str, int] = {"__total__": total}
        attributed = 0
        for child in span.children:
            if child.end_ns is None:
                continue
            dur = child.duration_ns
            parts[child.name] = parts.get(child.name, 0) + dur
            attributed += dur
        parts[UNATTRIBUTED] = max(total - attributed, 0)
        ops.append(parts)
        totals.append(total)
    report.count = len(ops)
    if not ops:
        return report

    totals.sort()
    report.total_p50_ns = _pct(totals, 50)
    report.total_p99_ns = _pct(totals, 99)

    tail = [parts for parts in ops if parts["__total__"] >= report.total_p99_ns]
    report.tail_ops = len(tail)
    tail_total = sum(parts["__total__"] for parts in tail)
    tail_named = 0

    names = list(WRITE_SEGMENTS)
    for parts in ops:
        for name in parts:
            if name not in names and name not in ("__total__", UNATTRIBUTED):
                names.append(name)
    names.append(UNATTRIBUTED)

    for name in names:
        values = sorted(parts.get(name, 0) for parts in ops)
        seg = SegmentStat(
            name=name,
            count=sum(1 for parts in ops if parts.get(name, 0) > 0),
            total_ns=sum(values),
            p50_ns=_pct(values, 50),
            p99_ns=_pct(values, 99),
        )
        seg_tail = sum(parts.get(name, 0) for parts in tail)
        seg.share_p99 = seg_tail / tail_total if tail_total else 0.0
        if name != UNATTRIBUTED:
            tail_named += seg_tail
        report.segments.append(seg)

    report.coverage_p99 = tail_named / tail_total if tail_total else 1.0
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

#: background debt counters shown under the table — latency the write
#: path *didn't* pay thanks to non-blocking design, but someone did
_DEBT_ROWS = (
    ("bg.stall_ns", "compaction queue stall"),
    ("device.queue_ns", "device channel queueing"),
    ("fs.throttle_ns", "writeback throttling"),
)


def _fmt_us(ns: int) -> str:
    return f"{ns / 1000.0:10.2f}"


def render_critical_path(
    report: CriticalPathReport,
    registry: Optional[MetricRegistry] = None,
) -> str:
    """Fixed-width critical-path attribution table."""
    title = f"critical path: {report.op} ({report.count} ops)"
    lines = [title, "-" * len(title)]
    if not report.count:
        lines.append("(no traced operations)")
        return "\n".join(lines)
    lines.append(
        f"total latency   p50 {report.total_p50_ns / 1000.0:.2f} us   "
        f"p99 {report.total_p99_ns / 1000.0:.2f} us   "
        f"tail ops {report.tail_ops}"
    )
    header = f"{'segment':<22} {'hits':>6} {'p50_us':>10} {'p99_us':>10} {'p99_share':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for seg in report.segments:
        lines.append(
            f"{seg.name:<22} {seg.count:>6} {_fmt_us(seg.p50_ns)} "
            f"{_fmt_us(seg.p99_ns)} {seg.share_p99 * 100:>9.1f}%"
        )
    lines.append("-" * len(header))
    lines.append(
        f"named-segment coverage of p99 tail: {report.coverage_p99 * 100:.1f}%"
    )
    if registry is not None and registry.enabled:
        snap = registry.snapshot()
        counters = snap.get("counters", {})
        debt = []
        for key, label in _DEBT_ROWS:
            value = counters.get(key, 0)
            if value:
                debt.append(f"  {label:<28} {value / 1e6:10.2f} ms")
        journal_ns = 0
        journal_commits = 0
        hist = snap.get("histograms", {}).get("span.journal.commit_ns")
        if hist:
            journal_ns = hist.get("sum", 0)
            journal_commits = hist.get("count", 0)
        if journal_ns:
            debt.append(
                f"  {'journal commit (async)':<28} {journal_ns / 1e6:10.2f} ms"
                f"  ({journal_commits} commits)"
            )
        if debt:
            lines.append("")
            lines.append("background debt (off the write path):")
            lines.extend(debt)
    return "\n".join(lines)
