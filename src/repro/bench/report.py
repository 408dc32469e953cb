"""Rendering and export of benchmark results.

Two consumers, two formats:

- plain-text tables (``format_table`` / ``series_by_store`` /
  ``format_latency_table`` / ``format_breakdown_table``) for humans;
- versioned JSON documents (``results_document`` / ``write_json``;
  schema ``repro.bench/1`` by default, every other bench target passes
  its own) so runs can be diffed and plotted by machines. Observed runs
  additionally carry per-op latency percentiles and the per-layer time
  breakdown.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

RESULTS_SCHEMA = "repro.bench/1"


def format_table(
    title: str,
    header: Sequence[str],
    rows: List[Sequence[object]],
) -> str:
    """Fixed-width table with a title line."""
    columns = len(header)
    widths = [len(str(h)) for h in header]
    rendered_rows = []
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, header has {columns}: {row!r}"
            )
        cells = [
            f"{cell:.3f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        rendered_rows.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
        )
    return "\n".join(lines)


def series_by_store(
    results: Dict[str, Dict[object, float]],
    x_values: Sequence[object],
    x_label: str,
    title: str,
) -> str:
    """One row per store, one column per x value (a figure's series)."""
    header = [x_label] + [str(x) for x in x_values]
    rows = []
    for store, series in results.items():
        rows.append([store] + [round(series.get(x, float("nan")), 3) for x in x_values])
    return format_table(title, header, rows)


def format_latency_table(results: Sequence[object], title: str = "latency (us)") -> str:
    """Percentile columns for observed runs (one row per store/op).

    ``results`` are :class:`~repro.bench.harness.BenchResult` objects;
    rows come from their ``latency_us`` field, so unobserved runs simply
    contribute nothing.
    """
    header = ["store", "workload", "op", "p50", "p95", "p99", "mean"]
    rows: List[Sequence[object]] = []
    for result in results:
        for op, ps in sorted(getattr(result, "latency_us", {}).items()):
            rows.append(
                [
                    result.store,
                    result.workload,
                    op,
                    ps.get("p50", 0.0),
                    ps.get("p95", 0.0),
                    ps.get("p99", 0.0),
                    ps.get("mean", 0.0),
                ]
            )
    if not rows:
        return f"{title}\n(no observed runs — pass observe=True)"
    return format_table(title, header, rows)


def format_breakdown_table(
    results: Sequence[object], title: str = "virtual-time breakdown (ms)"
) -> str:
    """Per-layer virtual-time table for observed runs.

    Layers overlap (a compaction span contains its device time), so the
    columns answer "how busy was each layer", not "a partition of the
    run" — ``total`` is the run's virtual time for reference.
    """
    header = ["store", "workload", "total", "device", "journal", "compaction", "stalls"]
    rows: List[Sequence[object]] = []
    for result in results:
        breakdown = getattr(result, "breakdown_ns", {})
        if not breakdown:
            continue
        rows.append(
            [
                result.store,
                result.workload,
                round(result.virtual_ns / 1e6, 3),
            ]
            + [
                round(breakdown.get(layer, 0) / 1e6, 3)
                for layer in ("device", "journal", "compaction", "stalls")
            ]
        )
    if not rows:
        return f"{title}\n(no observed runs — pass observe=True)"
    return format_table(title, header, rows)


def results_document(
    results: Sequence[object],
    meta: Optional[Dict[str, object]] = None,
    schema: str = RESULTS_SCHEMA,
) -> Dict[str, object]:
    """The versioned ``{schema, meta, results}`` document of every bench
    target; ``results`` are records with ``to_dict()`` or ready rows."""
    return {
        "schema": schema,
        "meta": dict(meta) if meta else {},
        "results": [r if isinstance(r, dict) else r.to_dict() for r in results],
    }


def write_json(path: str, doc: Dict[str, object]) -> Dict[str, object]:
    """Write ``doc`` to ``path`` (sorted keys, indented); returns it."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
