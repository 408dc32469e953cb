"""Unit tests for virtual-time spans."""

import weakref

from repro.obs.metrics import MetricRegistry
from repro.obs.spans import NULL_SPAN, Span


def test_span_duration_and_attrs():
    span = Span("commit", 100, tid=7)
    assert not span.ended
    assert span.duration_ns == 0
    span.annotate(inodes=3)
    span.end(400)
    assert span.ended
    assert span.duration_ns == 300
    assert span.attrs == {"tid": 7, "inodes": 3}


def test_span_end_is_idempotent():
    span = Span("op", 0)
    assert span.end(50) == 50
    assert span.end(999) == 999  # returns at, but keeps first end time
    assert span.end_ns == 50


def test_span_end_never_before_start():
    span = Span("op", 100)
    span.end(40)
    assert span.end_ns == 100
    assert span.duration_ns == 0


def test_child_spans_nest_and_serialize():
    root = Span("parent", 0)
    child = root.child("inner", 10, step=1)
    child.end(20)
    root.end(30)
    assert child.parent is root
    assert root.children == [child]
    doc = root.to_dict()
    assert doc["name"] == "parent"
    assert doc["duration_ns"] == 30
    assert doc["children"][0]["name"] == "inner"
    assert doc["children"][0]["attrs"] == {"step": 1}


def test_registry_streams_every_span_and_times_all():
    reg = MetricRegistry()
    seen = []
    reg.add_span_listener(seen.append)
    root = reg.start_span("outer", at=0)
    child = reg.start_span("inner", at=5, parent=root)
    child.end(15)
    root.end(40)
    assert seen == [child, root]
    assert [s for s in seen if s.parent is None] == [root]
    assert reg.find_histogram("span.inner_ns").count == 1
    assert reg.find_histogram("span.outer_ns").sum == 40


def test_unfinished_spans_are_not_collected():
    reg = MetricRegistry()
    seen = []
    reg.add_span_listener(seen.append)
    reg.start_span("open", at=0)
    assert seen == []
    assert reg.find_histogram("span.open_ns") is None


class _WeakSpan(Span):
    """A span that can take a weak reference (``Span`` has slots)."""


def test_registry_keeps_no_finished_span():
    reg = MetricRegistry()
    span = _WeakSpan("op", 0, registry=reg)
    probe = weakref.ref(span)
    span.end(10)
    del span
    assert probe() is None
    assert reg.find_histogram("span.op_ns").count == 1


def test_null_span_absorbs_everything():
    assert NULL_SPAN.child("x", 5) is NULL_SPAN
    assert NULL_SPAN.annotate(a=1) is NULL_SPAN
    assert NULL_SPAN.end(123) == 123
    assert NULL_SPAN.to_dict() == {}
    assert NULL_SPAN.duration_ns == 0


def test_span_listeners_see_every_finished_span():
    reg = MetricRegistry()
    seen = []
    reg.add_span_listener(seen.append)
    root = reg.start_span("outer", at=0)
    child = root.child("inner", 10)
    child.end(20)
    root.end(30)
    # children fire too, in finish order — not just collected roots
    assert [s.name for s in seen] == ["inner", "outer"]


def test_removed_span_listener_stops_firing():
    reg = MetricRegistry()
    seen = []
    reg.add_span_listener(seen.append)
    reg.start_span("a", at=0).end(1)
    reg.remove_span_listener(seen.append)
    reg.start_span("b", at=2).end(3)
    assert [s.name for s in seen] == ["a"]
