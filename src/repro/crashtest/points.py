"""Crash-point discovery: from an observed reference run to a point set.

A reference execution of the workload (no crash, observability enabled)
emits spans for every journal commit, writeback batch and compaction,
plus per-operation ack times from the workload runner. Each of those
becomes a family of candidate injection points:

- ``commit-begin`` / ``mid-commit`` / ``commit-boundary`` around every
  JBD2 commit span (the boundary is one nanosecond past the commit's
  completion — the first instant the transaction is durable);
- ``mid-writeback`` inside every flusher batch;
- ``minor-begin`` / ``mid-minor`` and ``major-begin`` / ``mid-major``
  inside every compaction span;
- ``mid-vlog-append`` inside every vLog value append and ``mid-vlog-gc``
  inside every GC relocation (noblsm-kv only);
- ``pre-vlog-reclaim`` / ``post-vlog-reclaim`` bracketing every
  commit-gated segment unlink — the instants just before the segment
  disappears and just after (the first moment recovery must cope with
  its absence);
- ``mid-wal-append`` between an operation's submission and its ack;
- ``random`` virtual times drawn uniformly over the run.

``select_points`` dedups by timestamp and picks a budget-bounded subset
round-robin across kinds, so rare families (a single major compaction)
are never crowded out by plentiful ones (thousands of WAL appends).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: span name -> crash-point kind prefix
SPAN_FAMILIES = {
    "journal.commit": "commit",
    "fs.writeback": "writeback",
    "db.compaction.minor": "minor",
    "db.compaction.major": "major",
    "db.vlog.append": "vlog-append",
    "db.vlog.gc": "vlog-gc",
    "db.vlog.reclaim": "vlog-reclaim",
}


@dataclass(frozen=True)
class CrashPoint:
    """One virtual time at which to pull the plug."""

    time_ns: int
    kind: str

    def __str__(self) -> str:
        return f"{self.kind}@{self.time_ns}ns"


class SpanCollector:
    """A span listener that keeps only (name, start, end) triples.

    Attach with ``registry.add_span_listener(collector)`` before the
    reference run. It sees child spans too, keeps no span object and has
    no bound.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int]] = []

    def __call__(self, span) -> None:
        if span.name in SPAN_FAMILIES:
            self.spans.append((span.name, span.start_ns, span.end_ns or 0))


def points_from_spans(
    spans: Iterable[Tuple[str, int, int]]
) -> List[CrashPoint]:
    """Candidate points around every collected span."""
    points: List[CrashPoint] = []
    for name, start, end in spans:
        family = SPAN_FAMILIES.get(name)
        if family is None:
            continue
        mid = (start + end) // 2
        if family == "commit":
            points.append(CrashPoint(start, "commit-begin"))
            points.append(CrashPoint(mid, "mid-commit"))
            points.append(CrashPoint(end + 1, "commit-boundary"))
        elif family == "writeback":
            points.append(CrashPoint(mid, "mid-writeback"))
        elif family in ("vlog-append", "vlog-gc"):
            points.append(CrashPoint(mid, f"mid-{family}"))
        elif family == "vlog-reclaim":
            # bracket the unlink: the last instant the segment exists
            # and the first instant recovery must live without it
            points.append(CrashPoint(start, "pre-vlog-reclaim"))
            points.append(CrashPoint(end + 1, "post-vlog-reclaim"))
        else:
            points.append(CrashPoint(start, f"{family}-begin"))
            points.append(CrashPoint(mid, f"mid-{family}"))
    return points


def points_from_ops(
    op_windows: Iterable[Tuple[int, int]]
) -> List[CrashPoint]:
    """``mid-wal-append`` points: midway through each operation's window.

    ``op_windows`` are (submit_ns, ack_ns) pairs from the reference run;
    an operation's window covers its WAL append, so a point inside it
    crashes the store mid-append.
    """
    points: List[CrashPoint] = []
    for submit, ack in op_windows:
        if ack > submit:
            points.append(CrashPoint((submit + ack) // 2, "mid-wal-append"))
    return points


def random_points(
    end_ns: int, rng: random.Random, count: int
) -> List[CrashPoint]:
    """Uniformly random virtual times in (0, end_ns]."""
    if end_ns <= 1 or count <= 0:
        return []
    return [
        CrashPoint(rng.randrange(1, end_ns + 1), "random")
        for _ in range(count)
    ]


def select_points(
    candidates: Sequence[CrashPoint], budget: int, rng: random.Random
) -> List[CrashPoint]:
    """A budget-bounded, timestamp-distinct, kind-balanced selection.

    Candidates are grouped by kind; selection takes one point per kind
    per round (shuffled within each kind) until the budget is exhausted
    or nothing remains. Two candidates with the same timestamp count as
    one point — the earliest-registered kind wins.
    """
    by_kind: Dict[str, List[CrashPoint]] = {}
    for point in candidates:
        by_kind.setdefault(point.kind, []).append(point)
    for pool in by_kind.values():
        rng.shuffle(pool)
    selected: List[CrashPoint] = []
    seen_times = set()
    kinds = sorted(by_kind)
    while len(selected) < budget and any(by_kind[k] for k in kinds):
        for kind in kinds:
            pool = by_kind[kind]
            while pool:
                point = pool.pop()
                if point.time_ns not in seen_times:
                    seen_times.add(point.time_ns)
                    selected.append(point)
                    break
            if len(selected) >= budget:
                break
    selected.sort(key=lambda p: p.time_ns)
    return selected
