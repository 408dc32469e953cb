"""The device I/O record: a Tracer's per-channel slices.

With a :class:`~repro.obs.trace.Tracer` on its registry, the SSD records
every read, write and flush as one bounded slice on its channel's track
(flushes on the barrier track), and the Chrome export renders them.
"""

from repro.fs.stack import StackConfig, StorageStack
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import Tracer, chrome_trace_document
from repro.sim.clock import VirtualClock
from repro.sim.latency import MIB, PM883
from repro.sim.ssd import SSD


def traced_ssd():
    registry = MetricRegistry()
    tracer = Tracer(registry)
    return SSD(VirtualClock(), PM883, obs=registry), tracer


def test_trace_records_operations():
    ssd, tracer = traced_ssd()
    ssd.write(MIB, at=0)
    ssd.read(2 * MIB, at=0)
    ssd.flush(at=0)
    assert [(s.kind, s.channel, s.nbytes) for s in tracer.io_slices] == [
        ("write", 0, MIB),
        ("read", 0, 2 * MIB),
        ("flush", -1, 0),
    ]
    # slices tile the one channel's timeline: each starts where the
    # previous one ended
    for before, after in zip(tracer.io_slices, tracer.io_slices[1:]):
        assert after.start_ns == before.end_ns


def test_trace_capacity_drops_overflow(monkeypatch):
    monkeypatch.setattr(Tracer, "max_io", 2)
    ssd, tracer = traced_ssd()
    for _ in range(5):
        ssd.write(1024, at=0)
    assert len(tracer.io_slices) == 2
    assert tracer.io_dropped == 3
    assert tracer.snapshot()["io_dropped"] == 3


def test_trace_queued_time():
    ssd, tracer = traced_ssd()
    big_done = ssd.write(10 * MIB, at=0)
    small_done = ssd.write(1024, at=0)  # queues behind the big write
    big, small = tracer.io_slices
    assert big.end_ns == big_done
    # the slice is the service interval: the wait behind the big write
    # is the gap between submission (0) and the slice's start
    assert small.start_ns == big.end_ns > 0
    assert small.end_ns == small_done


def test_trace_works_through_full_stack():
    registry = MetricRegistry()
    tracer = Tracer(registry)
    stack = StorageStack(StackConfig(obs=registry))
    handle, t = stack.fs.create("f", at=0)
    t = handle.append(b"x" * 8192, at=t)
    handle.fsync(at=t)
    kinds = {s.kind for s in tracer.io_slices}
    assert "write" in kinds
    assert "flush" in kinds


def test_format_timeline():
    ssd, tracer = traced_ssd()
    ssd.write(MIB, at=0)
    ssd.flush(at=0)
    doc = chrome_trace_document(tracer)
    device = [e for e in doc["traceEvents"] if e.get("cat") == "device"]
    assert [e["name"] for e in device] == ["write", "flush"]
    assert device[0]["args"]["bytes"] == MIB
