"""JSON export and the per-layer virtual-time breakdown.

The exported document is versioned (``schema``) and fully
machine-readable so benchmark trajectories can be diffed across runs:

.. code-block:: text

    {
      "schema": "repro.obs/1",
      "meta": {...},                       # caller-supplied run context
      "counters": {"db.stall.l0_stop_ns": 0, ...},
      "gauges": {...},
      "histograms": {"db.put_ns": {"count", "sum", "min", "max",
                                   "mean", "p50", "p95", "p99"}, ...},
      "sources": {"device": {...}, "sync": {...}, ...},
      "breakdown_ns": {"device", "journal", "compaction", "stalls"}
    }

Spans are not part of it: the registry keeps none, and the span export
is the tracer's Chrome trace (:func:`repro.obs.trace.write_chrome_trace`).

``layer_breakdown`` answers the paper's core question — *where did the
virtual time go?* — from well-known metric names: device busy time from
the device stats source, journal-commit time from the ``journal.commit``
span histogram, compaction time from the minor/major compaction span
histograms, and stall time from the store's attributed stall counters
(every ``db.stall.*_ns`` counter, whatever causes the store books).
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.obs.metrics import MetricRegistry

SCHEMA = "repro.obs/1"

#: span histograms summed into the breakdown's "compaction" entry
COMPACTION_SPANS = ("span.db.compaction.minor_ns", "span.db.compaction.major_ns")


def layer_breakdown(registry: MetricRegistry) -> Dict[str, int]:
    """Virtual ns attributed to each layer of the stack.

    The layers overlap by design (a compaction's span includes its
    device time; an fsync stall includes a journal commit) — the
    breakdown answers "how busy was each layer", not "a partition of
    wall time".
    """
    snapshot = registry.snapshot()
    sources = snapshot.get("sources", {})
    histograms = snapshot.get("histograms", {})
    counters = snapshot.get("counters", {})

    device = int(sources.get("device", {}).get("busy_ns", 0))
    journal = int(histograms.get("span.journal.commit_ns", {}).get("sum", 0))
    compaction = sum(
        int(histograms.get(name, {}).get("sum", 0)) for name in COMPACTION_SPANS
    )
    stalls = sum(
        int(value)
        for name, value in counters.items()
        if name.startswith("db.stall.") and name.endswith("_ns")
    )
    return {
        "device": device,
        "journal": journal,
        "compaction": compaction,
        "stalls": stalls,
    }


def registry_document(
    registry: MetricRegistry,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The full versioned export document for one registry."""
    snapshot = registry.snapshot()
    return {
        "schema": SCHEMA,
        "meta": dict(meta) if meta else {},
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "histograms": snapshot.get("histograms", {}),
        "windowed": snapshot.get("windowed", {}),
        "sources": snapshot.get("sources", {}),
        "breakdown_ns": layer_breakdown(registry),
    }


def to_json(
    registry: MetricRegistry,
    meta: Optional[Dict[str, object]] = None,
    indent: int = 2,
) -> str:
    return json.dumps(registry_document(registry, meta), indent=indent, sort_keys=True)


def write_json(
    path: str,
    registry: MetricRegistry,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the export document to ``path``; returns the document."""
    doc = registry_document(registry, meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
