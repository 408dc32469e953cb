"""Causal write-path tracing and the Chrome trace-event exporter.

A :class:`Tracer` attaches to one :class:`~repro.obs.metrics.MetricRegistry`
and turns the span substrate into a causal trace:

- every *root* span gets a fresh **trace id** at creation (children
  inherit their parent's), so one ``db.write`` and everything it spawns
  share an identity;
- every span is stamped with the **track** it executes on — the client
  thread, a background compaction thread (``bg.<db>.t<i>``), the journal,
  the flusher, a device channel — via an explicit track stack that the
  :class:`~repro.lsm.background.LazyExecutor` and the journal push/pop
  around their work;
- **flow edges** link spans across object and track boundaries: a KV
  batch's ``db.write`` span flows into the minor-compaction dump that
  persists it, the dump's SSTable inode flows into the JBD2 commit that
  makes it durable, and the commit flows into the dependency-group
  retirement (``db.retire``) that finally deletes the shadow
  predecessors — the full NobLSM causal chain;
- every device I/O is recorded as a bounded **slice** on its channel's
  track, so queueing is visible per channel.

Everything is virtual-time only: the tracer never advances the clock, so
a traced run's simulated timings are identical to an untraced run.

:func:`chrome_trace_document` renders the whole trace as Chrome
trace-event JSON (the ``traceEvents`` array of ``ph: "X"`` complete
events plus ``M`` thread-name metadata and ``s``/``f`` flow pairs) —
loadable in Perfetto / ``chrome://tracing``. The export is
byte-deterministic for a deterministic run: track ids are assigned by a
fixed ordering, timestamps come from the virtual clock, and the JSON is
dumped with sorted keys.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricRegistry
from repro.obs.spans import Span


class IOSlice:
    """One device operation on a channel track (virtual-time interval)."""

    __slots__ = ("kind", "channel", "start_ns", "end_ns", "nbytes", "stream")

    def __init__(
        self,
        kind: str,
        channel: int,
        start_ns: int,
        end_ns: int,
        nbytes: int,
        stream: object = None,
    ) -> None:
        self.kind = kind
        self.channel = channel
        self.start_ns = int(start_ns)
        self.end_ns = int(end_ns)
        self.nbytes = nbytes
        self.stream = stream

    def __repr__(self) -> str:
        return (
            f"IOSlice({self.kind!r}, ch{self.channel}, "
            f"[{self.start_ns}, {self.end_ns}], {self.nbytes}B)"
        )


class FlowEdge:
    """A causal arrow between two spans (possibly on different tracks)."""

    __slots__ = ("flow_id", "name", "src_ts", "src_track", "dst_ts", "dst_track")

    def __init__(
        self,
        flow_id: int,
        name: str,
        src_ts: int,
        src_track: str,
        dst_ts: int,
        dst_track: str,
    ) -> None:
        self.flow_id = flow_id
        self.name = name
        self.src_ts = src_ts
        self.src_track = src_track
        self.dst_ts = dst_ts
        self.dst_track = dst_track

    def __repr__(self) -> str:
        return (
            f"FlowEdge({self.name!r}, {self.src_track}@{self.src_ts} -> "
            f"{self.dst_track}@{self.dst_ts})"
        )


class Tracer:
    """Causal trace collector bound to one enabled registry.

    Attach *before* building the stack so every component sees it::

        registry = MetricRegistry()
        tracer = Tracer(registry)
        stack = StorageStack(StackConfig(obs=registry))

    The tracer sees every finished span through the registry's listener
    stream (children included) and is the one place that keeps them: a
    bounded list in finish order, read by the Chrome export and by
    :func:`~repro.obs.critical_path.analyze_write_path`.
    """

    #: bounds on what is kept; past them a record is counted as dropped
    max_spans = 500_000
    max_io = 500_000
    max_flows = 100_000

    def __init__(self, registry: MetricRegistry) -> None:
        if not registry.enabled:
            raise ValueError("cannot attach a Tracer to a disabled registry")
        if registry.tracer is not None:
            raise RuntimeError("registry already has a tracer attached")
        self.registry = registry
        self._next_trace = 1
        self._next_flow = 1
        self._track_stack: List[str] = ["client"]
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self.io_slices: List[IOSlice] = []
        self.io_dropped = 0
        self.flows: List[FlowEdge] = []
        self.flows_dropped = 0
        #: ino -> [producing span, committing span or None]
        self._inode_spans: Dict[int, List[Optional[Span]]] = {}
        registry.tracer = self
        registry.add_span_listener(self._on_finish)

    # ------------------------------------------------------------------
    # track stack (who is executing right now)
    # ------------------------------------------------------------------

    @property
    def current_track(self) -> str:
        return self._track_stack[-1]

    def push_track(self, track: str) -> None:
        self._track_stack.append(track)

    def pop_track(self) -> None:
        if len(self._track_stack) <= 1:
            raise RuntimeError("track stack underflow")
        self._track_stack.pop()

    # ------------------------------------------------------------------
    # span hooks (called by the registry)
    # ------------------------------------------------------------------

    def _on_start(self, span: Span) -> None:
        """Stamp a fresh root span with a trace id and its track."""
        span.trace_id = self._next_trace
        self._next_trace += 1
        span.track = self.current_track

    def _on_finish(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.spans_dropped += 1

    # ------------------------------------------------------------------
    # device slices
    # ------------------------------------------------------------------

    def io_slice(
        self,
        kind: str,
        channel: int,
        start_ns: int,
        end_ns: int,
        nbytes: int,
        stream: object = None,
    ) -> None:
        if len(self.io_slices) < self.max_io:
            self.io_slices.append(
                IOSlice(kind, channel, start_ns, end_ns, nbytes, stream)
            )
        else:
            self.io_dropped += 1

    # ------------------------------------------------------------------
    # causal links
    # ------------------------------------------------------------------

    def link(self, src: Span, dst: Span, name: str = "dep") -> None:
        """Record a causal arrow from ``src``'s end to ``dst``'s start."""
        if len(self.flows) >= self.max_flows:
            self.flows_dropped += 1
            return
        src_ts = src.end_ns if src.end_ns is not None else src.start_ns
        dst_ts = dst.start_ns
        # A periodic commit may start inside its producer's span; clamp
        # so the arrow never points backwards in time.
        src_ts = min(src_ts, dst_ts)
        self.flows.append(
            FlowEdge(
                self._next_flow, name, src_ts, src.track, dst_ts, dst.track
            )
        )
        self._next_flow += 1

    def bind_inode(self, ino: int, span: Span) -> None:
        """Remember which span produced an inode's content (SSTable write)."""
        self._inode_spans[ino] = [span, None]

    def note_commit(self, inos, commit_span: Span) -> None:
        """A journal commit covered ``inos``: link producers -> commit."""
        for ino in sorted(inos):
            entry = self._inode_spans.get(ino)
            if entry is None:
                continue
            if entry[1] is None:
                producer = entry[0]
                if producer is not None:
                    self.link(producer, commit_span, name="journal-commit")
                entry[1] = commit_span

    def commit_span_of(self, ino: int) -> Optional[Span]:
        """The journal-commit span that made ``ino`` durable, if traced."""
        entry = self._inode_spans.get(ino)
        return entry[1] if entry is not None else None

    def drop_inode(self, ino: int) -> None:
        """The inode is gone (unlink): forget its binding."""
        self._inode_spans.pop(ino, None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything collected (new experiment, ids keep counting)."""
        self.spans.clear()
        self.spans_dropped = 0
        self.io_slices.clear()
        self.io_dropped = 0
        self.flows.clear()
        self.flows_dropped = 0
        self._inode_spans.clear()

    def snapshot(self) -> Dict[str, object]:
        return {
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "io_slices": len(self.io_slices),
            "io_dropped": self.io_dropped,
            "flows": len(self.flows),
            "flows_dropped": self.flows_dropped,
        }


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------

#: coarse ordering of track groups in the Perfetto timeline
_TRACK_RANKS = (("client", 0), ("bg.", 1), ("dev.", 2), ("journal", 3), ("flusher", 4))


def _track_rank(track: str) -> Tuple[int, str]:
    for prefix, rank in _TRACK_RANKS:
        if track == prefix or track.startswith(prefix):
            return rank, track
    return len(_TRACK_RANKS), track


def _us(ns: int) -> float:
    return round(ns / 1000.0, 3)


def _safe_attr(value: object) -> object:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.decode("latin-1")
    return str(value)


def _category(name: str) -> str:
    return name.split(".", 1)[0]


def chrome_trace_document(
    tracer: Tracer,
    meta: Optional[Dict[str, object]] = None,
    clip: Optional[Tuple[int, int]] = None,
    limit: Optional[int] = None,
) -> Dict[str, object]:
    """Render the tracer's trace as a Chrome trace-event document.

    ``clip=(lo, hi)`` keeps only events intersecting that virtual-ns
    window; ``limit`` keeps the last N timed events (closest to the
    window's end) — both are how the crash matrix attaches a bounded
    snapshot around a violated crash point.
    """

    def in_window(start: int, end: int) -> bool:
        if clip is None:
            return True
        lo, hi = clip
        return end >= lo and start <= hi

    timed: List[Tuple[float, int, str, Dict[str, object]]] = []
    tracks = set()

    for span in tracer.spans:
        if span.end_ns is None or not in_window(span.start_ns, span.end_ns):
            continue
        track = span.track or "client"
        tracks.add(track)
        args: Dict[str, object] = {"trace": span.trace_id}
        for key, value in span.attrs.items():
            args[key] = _safe_attr(value)
        timed.append(
            (
                _us(span.start_ns),
                0,
                track,
                {
                    "name": span.name,
                    "cat": _category(span.name),
                    "ph": "X",
                    "ts": _us(span.start_ns),
                    "dur": _us(span.duration_ns),
                    "pid": 0,
                    "args": args,
                },
            )
        )

    for io in tracer.io_slices:
        if not in_window(io.start_ns, io.end_ns):
            continue
        track = "dev.barrier" if io.channel < 0 else f"dev.ch{io.channel}"
        tracks.add(track)
        args = {"bytes": io.nbytes}
        if io.stream is not None:
            args["stream"] = _safe_attr(io.stream)
        timed.append(
            (
                _us(io.start_ns),
                1,
                track,
                {
                    "name": io.kind,
                    "cat": "device",
                    "ph": "X",
                    "ts": _us(io.start_ns),
                    "dur": _us(max(io.end_ns - io.start_ns, 0)),
                    "pid": 0,
                    "args": args,
                },
            )
        )

    for flow in tracer.flows:
        if not in_window(flow.src_ts, flow.dst_ts):
            continue
        tracks.add(flow.src_track)
        tracks.add(flow.dst_track)
        timed.append(
            (
                _us(flow.src_ts),
                2,
                flow.src_track,
                {
                    "name": flow.name,
                    "cat": "causal",
                    "ph": "s",
                    "id": flow.flow_id,
                    "ts": _us(flow.src_ts),
                    "pid": 0,
                },
            )
        )
        timed.append(
            (
                _us(flow.dst_ts),
                3,
                flow.dst_track,
                {
                    "name": flow.name,
                    "cat": "causal",
                    "ph": "f",
                    "bp": "e",
                    "id": flow.flow_id,
                    "ts": _us(flow.dst_ts),
                    "pid": 0,
                },
            )
        )

    # Track ids are assigned by a fixed ordering (client, bg threads,
    # device channels, journal, flusher, rest alphabetically), so the
    # export is stable regardless of event interleaving.
    tids = {
        track: index + 1
        for index, track in enumerate(sorted(tracks, key=_track_rank))
    }

    timed.sort(key=lambda item: (item[0], tids[item[2]], item[1], item[3]["name"]))
    if limit is not None and len(timed) > limit:
        timed = timed[-limit:]

    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "repro"},
        }
    ]
    used = sorted({item[2] for item in timed}, key=lambda t: tids[t])
    for track in used:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    for _, _, track, event in timed:
        event["tid"] = tids[track]
        events.append(event)

    other: Dict[str, object] = dict(meta) if meta else {}
    other.update(
        {
            "spans_dropped": tracer.spans_dropped,
            "io_dropped": tracer.io_dropped,
            "flows_dropped": tracer.flows_dropped,
        }
    )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def validate_chrome_trace(doc: Dict[str, object]) -> int:
    """Validate a document against the trace-event schema we emit.

    Checks the structural contract Perfetto relies on: a ``traceEvents``
    array whose members carry a name, a known phase, integer pid/tid and
    non-negative timestamps/durations; flow events must carry an id and
    metadata events a ``name`` arg. Returns the event count; raises
    :class:`ValueError` on the first violation.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must have a traceEvents list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing string name")
        ph = event.get("ph")
        if ph not in ("X", "M", "s", "f"):
            raise ValueError(f"{where}: unknown phase {ph!r}")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"{where}: missing integer pid")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(f"{where}: bad {field} {value!r}")
            if not isinstance(event.get("tid"), int):
                raise ValueError(f"{where}: missing integer tid")
        elif ph in ("s", "f"):
            if "id" not in event:
                raise ValueError(f"{where}: flow event without id")
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"{where}: flow event without ts")
        elif ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"{where}: metadata event without args.name")
    return len(events)


def write_chrome_trace(
    path: str,
    tracer: Tracer,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Validate and write the Chrome trace to ``path``; returns the doc.

    The file is byte-deterministic for a deterministic run: sorted keys,
    fixed separators, trailing newline.
    """
    doc = chrome_trace_document(tracer, meta=meta)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return doc
