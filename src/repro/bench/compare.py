"""Diff two bench documents — the regression half of every gate.

:func:`compare_documents` matches result rows between a *baseline* and a
*current* document by their identity key (store, workload, value size,
op count, channels, threads) and checks each guarded metric against a
relative threshold plus an absolute floor::

    regressed  iff  current > baseline * (1 + threshold) + floor

The floor keeps tiny absolute wobbles on near-zero metrics (a few
syncs, a handful of stall microseconds) from tripping a relative gate.
Rows present in the baseline but missing from the current run are
regressions too — a silently dropped benchmark must fail the gate.

Which metrics a document is gated on follows from its schema: each
registered bench target (:mod:`repro.bench.targets`) declares its
schema and metric set, and only those schemas are comparable.

The simulation is deterministic, so identical code produces *identical*
numbers and the thresholds only have to absorb deliberate behaviour
changes; ``make refresh-<target>-baseline`` re-records one when a change
is intentional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: machine-readable report schema emitted by ``compare --json``
COMPARE_SCHEMA = "repro.compare/1"


@dataclass(frozen=True)
class MetricSpec:
    """One gated, lower-is-better metric: relative threshold + floor."""

    name: str
    threshold: float
    floor: float

    def limit(self, base: float) -> float:
        return base * (1.0 + self.threshold) + self.floor

    def is_regression(self, base: float, current: float) -> bool:
        return current > self.limit(base)


#: row-identity fields; extras are included when present
_KEY_FIELDS = ("store", "workload", "value_size", "ops")
_KEY_EXTRAS = ("num_channels", "background_threads")

RowKey = Tuple[object, ...]


def row_key(row: Dict[str, object]) -> RowKey:
    extras = row.get("extras") or {}
    return tuple(row.get(f) for f in _KEY_FIELDS) + tuple(
        extras.get(f) for f in _KEY_EXTRAS
    )


def _metric_value(row: Dict[str, object], name: str) -> Optional[float]:
    if name == "put_p99_us":
        latency = row.get("latency_us") or {}
        put = latency.get("put") or {}
        value = put.get("p99")
    else:
        value = row.get(name)
    if value is None:
        return None
    return float(value)


@dataclass
class MetricDelta:
    """One (row, metric) comparison."""

    key: RowKey
    metric: str
    base: float
    current: float
    threshold: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.base == 0:
            return 0.0 if self.current == 0 else float("inf")
        return self.current / self.base


@dataclass
class CompareReport:
    """Everything the gate found, regressions first in rendering."""

    base_meta: Dict[str, object] = field(default_factory=dict)
    cur_meta: Dict[str, object] = field(default_factory=dict)
    deltas: List[MetricDelta] = field(default_factory=list)
    missing_rows: List[RowKey] = field(default_factory=list)
    new_rows: List[RowKey] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.missing_rows


def _check_schema(doc: Dict[str, object], which: str, known) -> str:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in known:
        raise ValueError(
            f"{which} document is not one of "
            f"{', '.join(repr(s) for s in known)} "
            f"(schema={schema if isinstance(doc, dict) else doc!r})"
        )
    if not isinstance(doc.get("results"), list):
        raise ValueError(f"{which} document has no results list")
    return schema


def compare_documents(
    base_doc: Dict[str, object],
    cur_doc: Dict[str, object],
) -> CompareReport:
    """Compare current against baseline on their schema's metric set."""
    from repro.bench.targets import METRICS_BY_SCHEMA

    base_schema = _check_schema(base_doc, "baseline", METRICS_BY_SCHEMA)
    cur_schema = _check_schema(cur_doc, "current", METRICS_BY_SCHEMA)
    if base_schema != cur_schema:
        raise ValueError(
            f"schema mismatch: baseline is {base_schema!r}, "
            f"current is {cur_schema!r}"
        )
    base_rows = {row_key(r): r for r in base_doc["results"]}
    cur_rows = {row_key(r): r for r in cur_doc["results"]}

    report = CompareReport(
        base_meta=dict(base_doc.get("meta") or {}),
        cur_meta=dict(cur_doc.get("meta") or {}),
    )
    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        if cur_row is None:
            report.missing_rows.append(key)
            continue
        for spec in METRICS_BY_SCHEMA[base_schema]:
            base = _metric_value(base_row, spec.name)
            current = _metric_value(cur_row, spec.name)
            if base is None or current is None:
                continue
            report.deltas.append(
                MetricDelta(
                    key=key,
                    metric=spec.name,
                    base=base,
                    current=current,
                    threshold=spec.threshold,
                    regressed=spec.is_regression(base, current),
                )
            )
    report.new_rows = [k for k in cur_rows if k not in base_rows]
    return report


def _key_label(key: RowKey) -> str:
    store, workload, value_size, ops, channels, threads = key
    label = f"{store}/{workload} v{value_size} n{ops}"
    if channels is not None or threads is not None:
        label += f" ch{channels or 1}xt{threads or 1}"
    return label


def report_payload(report: CompareReport) -> Dict[str, object]:
    """The machine-readable ``repro.compare/1`` document for a report.

    Everything :func:`render_compare` prints, as data: per-delta rows
    with base/current/ratio/limit, the missing/new row keys, and the
    verdict — so CI can annotate a failed gate without scraping text.
    """
    return {
        "schema": COMPARE_SCHEMA,
        "base_meta": dict(report.base_meta),
        "cur_meta": dict(report.cur_meta),
        "passed": report.passed,
        "regression_count": len(report.regressions),
        "missing_rows": [list(k) for k in report.missing_rows],
        "new_rows": [list(k) for k in report.new_rows],
        "deltas": [
            {
                "row": _key_label(d.key),
                "key": list(d.key),
                "metric": d.metric,
                "base": d.base,
                "current": d.current,
                "ratio": (
                    round(d.ratio, 6)
                    if d.ratio != float("inf")
                    else None
                ),
                "threshold": d.threshold,
                "regressed": d.regressed,
            }
            for d in report.deltas
        ],
    }


def render_compare(report: CompareReport) -> str:
    """Human summary: regressions first, then per-row deltas, verdict."""
    lines: List[str] = []
    title = "perf gate: current vs baseline"
    lines.append(title)
    lines.append("-" * len(title))
    for key in report.missing_rows:
        lines.append(f"MISSING  {_key_label(key)} — row absent from current run")
    for delta in report.regressions:
        lines.append(
            f"REGRESSED  {_key_label(delta.key)}  {delta.metric}: "
            f"{delta.base:g} -> {delta.current:g} "
            f"({delta.ratio:.3f}x, limit +{delta.threshold * 100:.0f}%)"
        )
    header = (
        f"{'row':<38} {'metric':<22} {'base':>14} {'current':>14} {'ratio':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for delta in report.deltas:
        flag = " <-- REGRESSED" if delta.regressed else ""
        lines.append(
            f"{_key_label(delta.key):<38} {delta.metric:<22} "
            f"{delta.base:>14g} {delta.current:>14g} "
            f"{delta.ratio:>8.3f}{flag}"
        )
    for key in report.new_rows:
        lines.append(f"(new row, not gated: {_key_label(key)})")
    lines.append("")
    if report.passed:
        lines.append("PASS: no metric exceeded its threshold")
    else:
        lines.append(
            f"FAIL: {len(report.regressions)} regression(s), "
            f"{len(report.missing_rows)} missing row(s)"
        )
    return "\n".join(lines)
