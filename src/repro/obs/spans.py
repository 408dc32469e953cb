"""Virtual-time spans with parent/child nesting.

A :class:`Span` covers one logical operation on the virtual clock — a
journal commit, a compaction, a reclamation poll. Spans carry structured
attributes, may nest (``span.child(...)``), and report their duration
once ended. The registry that created a span streams it to its span
listeners when it ends and keeps nothing; an attached
:class:`~repro.obs.trace.Tracer` is the one place that keeps spans.

Spans are time-explicit like everything else in the simulation: the
caller passes the virtual start time at creation and the virtual end
time to :meth:`Span.end`. There is no ambient "current span"; parenthood
is explicit, which keeps the model honest about which thread of virtual
time a span belongs to.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Span:
    """One timed operation: name, [start, end] in virtual ns, attributes."""

    __slots__ = (
        "name",
        "start_ns",
        "end_ns",
        "attrs",
        "parent",
        "children",
        "trace_id",
        "track",
        "_registry",
    )

    def __init__(
        self,
        name: str,
        start_ns: int,
        registry=None,
        parent: "Optional[Span]" = None,
        **attrs: object,
    ) -> None:
        self.name = name
        self.start_ns = int(start_ns)
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, object] = dict(attrs)
        self.parent = parent
        self.children: List[Span] = []
        self.trace_id = 0
        self.track = "client"
        self._registry = registry

    @property
    def ended(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return max(self.end_ns - self.start_ns, 0)

    def annotate(self, **attrs: object) -> "Span":
        """Attach (or overwrite) structured attributes."""
        self.attrs.update(attrs)
        return self

    def child(self, name: str, at: int, **attrs: object) -> "Span":
        """Open a nested span starting at virtual time ``at``.

        Children inherit the parent's trace id; the track is whichever
        execution context (tracer track stack) is active *now*, so a
        child created on a background thread lands on that thread's
        track even though its parent started on the client track.
        """
        span = Span(name, at, registry=self._registry, parent=self, **attrs)
        span.trace_id = self.trace_id
        tracer = self._registry.tracer if self._registry is not None else None
        span.track = tracer.current_track if tracer is not None else self.track
        self.children.append(span)
        return span

    def end(self, at: int) -> int:
        """Close the span at virtual time ``at``; returns ``at`` unchanged.

        Ending twice keeps the first end time (idempotent). The span is
        handed to its registry on its first end.
        """
        if self.end_ns is None:
            self.end_ns = max(int(at), self.start_ns)
            if self._registry is not None:
                self._registry._finish_span(self)
        return at

    def to_dict(self, include_children: bool = True) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
        }
        if self.trace_id:
            doc["trace"] = self.trace_id
        if include_children and self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    def __repr__(self) -> str:
        state = f"{self.duration_ns}ns" if self.ended else "open"
        return f"Span({self.name!r}, {state}, attrs={self.attrs})"


class _NullSpan:
    """Shared no-op span returned by the disabled registry."""

    __slots__ = ()

    name = "null"
    start_ns = 0
    end_ns = 0
    attrs: Dict[str, object] = {}
    children: List[Span] = []
    parent = None
    ended = True
    duration_ns = 0
    trace_id = 0
    track = "client"

    def annotate(self, **attrs: object) -> "_NullSpan":
        return self

    def child(self, name: str, at: int, **attrs: object) -> "_NullSpan":
        return self

    def end(self, at: int) -> int:
        return at

    def to_dict(self, include_children: bool = True) -> Dict[str, object]:
        return {}

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()
