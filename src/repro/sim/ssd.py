"""The simulated solid-state drive.

A single shared device services every read, write and FLUSH in the
simulation. Each *channel* keeps its own busy timeline: an I/O submitted
at virtual time ``t`` starts at ``max(t, channel_busy)`` and occupies its
channel for its service time. The default profile has one channel — the
single serial timeline that makes syncs expensive in exactly the way the
paper describes (a FLUSH barrier must wait for all queued writes, then
stalls everything submitted after it) and reproduces the paper's SATA
PM883 setup bit-for-bit.

With ``DeviceProfile.num_channels > 1`` the device becomes an NVMe-style
multi-queue model:

- unhinted I/O goes to the *least-loaded* channel (earliest free,
  lowest index on ties — deterministic);
- a caller may pass a ``stream`` key; the first I/O of a stream is
  placed by the least-loaded rule and every later I/O of the same stream
  sticks to that channel, so one file's sequential writes stay ordered
  (sequential-stream affinity);
- FLUSH is a *cross-channel barrier*: it starts only after every channel
  drains and blocks all of them until it completes, matching how a cache
  flush drains the whole device, not one queue.

Observability: the device reports through an optional
:class:`~repro.obs.metrics.MetricRegistry` — per-op latency histograms
(``device.write_ns`` / ``device.read_ns`` / ``device.flush_ns``, each
measured submission→completion so queueing is included) and a
``device.queue_ns`` counter of time spent waiting behind earlier I/O.
Multi-channel devices additionally expose per-channel queue histograms
(``device.ch<i>.queue_ns``); per-channel busy time appears as
``channel_busy_ns`` in the device stats snapshot. A
:class:`~repro.obs.trace.Tracer` on the registry records every operation
as a slice on its channel's track.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.sim.clock import VirtualClock
from repro.sim.latency import DeviceProfile, PM883
from repro.sim.stats import DeviceStats

#: a stream-affinity key — any hashable value (inode number, "jbd2", ...)
StreamKey = object


class SSD:
    """A virtual-time block device with per-channel busy timelines.

    All methods take the submission time ``at`` and return the completion
    time. Callers that block on the I/O (direct writes, flushes) advance
    their thread clock to the returned value; callers that do not block
    (page-cache writeback) simply let the device timeline absorb the work,
    delaying whoever touches the same channel next.
    """

    def __init__(
        self,
        clock: VirtualClock,
        profile: DeviceProfile = PM883,
        stats: Optional[DeviceStats] = None,
        obs: Optional[MetricRegistry] = None,
    ) -> None:
        self.clock = clock
        self.profile = profile
        self.stats = stats if stats is not None else DeviceStats()
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._channels: List[int] = [0] * profile.num_channels
        if profile.num_channels > 1:
            self.stats.channel_busy_ns = [0] * profile.num_channels
        self._streams: Dict[StreamKey, int] = {}
        self._observe = self.obs.enabled
        if self._observe:
            self.obs.register_source("device", self.stats.snapshot)
            self._write_hist = self.obs.histogram("device.write_ns")
            self._read_hist = self.obs.histogram("device.read_ns")
            self._flush_hist = self.obs.histogram("device.flush_ns")
            self._queue_ns = self.obs.counter("device.queue_ns")
            if profile.num_channels > 1:
                self._channel_queue = [
                    self.obs.histogram(f"device.ch{i}.queue_ns")
                    for i in range(profile.num_channels)
                ]

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    @property
    def busy_until(self) -> int:
        """Virtual time at which all submitted work completes."""
        return max(self._channels)

    def channel_busy_until(self, channel: int) -> int:
        """Virtual time at which one channel's queued work completes."""
        return self._channels[channel]

    def idle_at(self, at: int) -> bool:
        """True if the device has no queued work at time ``at``."""
        return all(busy <= at for busy in self._channels)

    # ------------------------------------------------------------------
    # channel arbitration
    # ------------------------------------------------------------------

    def _pick_channel(self, stream: Optional[StreamKey]) -> int:
        """Channel for the next I/O: stream-sticky, else least-loaded."""
        if len(self._channels) == 1:
            return 0
        if stream is not None:
            channel = self._streams.get(stream)
            if channel is not None:
                return channel
        channel = min(
            range(len(self._channels)), key=self._channels.__getitem__
        )
        if stream is not None:
            self._streams[stream] = channel
        return channel

    def forget_stream(self, stream: StreamKey) -> None:
        """Drop a stream's channel affinity (e.g. the file was deleted)."""
        self._streams.pop(stream, None)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _service(self, at: int, duration: int, channel: int) -> int:
        start = max(int(at), self._channels[channel])
        completion = start + duration
        self._channels[channel] = completion
        self.stats.busy_ns += duration
        if self.stats.channel_busy_ns:
            self.stats.channel_busy_ns[channel] += duration
        return completion

    def write(
        self,
        nbytes: int,
        at: int,
        sequential: bool = True,
        stream: Optional[StreamKey] = None,
    ) -> int:
        """Submit a write; returns its completion time."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        if nbytes == 0:
            done = max(int(at), self.busy_until)
        else:
            channel = self._pick_channel(stream)
            self.stats.bytes_written += nbytes
            self.stats.write_ios += 1
            if self._observe:
                queued = max(self._channels[channel] - int(at), 0)
                self._queue_ns.inc(queued)
                if len(self._channels) > 1:
                    self._channel_queue[channel].record(queued)
            duration = self.profile.write_ns(nbytes, sequential)
            done = self._service(at, duration, channel)
            if self._observe:
                self._write_hist.record(done - int(at))
                tracer = self.obs.tracer
                if tracer is not None:
                    tracer.io_slice(
                        "write", channel, done - duration, done, nbytes, stream
                    )
        return done

    def read(
        self,
        nbytes: int,
        at: int,
        sequential: bool = True,
        stream: Optional[StreamKey] = None,
    ) -> int:
        """Submit a read; returns its completion time."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        if nbytes == 0:
            done = max(int(at), self.busy_until)
        else:
            channel = self._pick_channel(stream)
            self.stats.bytes_read += nbytes
            self.stats.read_ios += 1
            if self._observe:
                queued = max(self._channels[channel] - int(at), 0)
                self._queue_ns.inc(queued)
                if len(self._channels) > 1:
                    self._channel_queue[channel].record(queued)
            duration = self.profile.read_ns(nbytes, sequential)
            done = self._service(at, duration, channel)
            if self._observe:
                self._read_hist.record(done - int(at))
                tracer = self.obs.tracer
                if tracer is not None:
                    tracer.io_slice(
                        "read", channel, done - duration, done, nbytes, stream
                    )
        return done

    def flush(self, at: int) -> int:
        """Issue a FLUSH barrier.

        The barrier drains *every* channel (starts after the whole
        device's ``busy_until``), costs ``flush_ns``, and leaves all
        channels unavailable for a further ``barrier_extra_ns`` —
        modelling the ordering stall that blocks subsequent I/O
        (Section 2.2 of the paper). On a multi-queue device this is the
        cross-channel synchronisation point: no per-channel parallelism
        survives a cache flush.
        """
        self.stats.flushes += 1
        if self._observe:
            self._queue_ns.inc(max(self.busy_until - int(at), 0))
        duration = self.profile.flush_ns + self.profile.barrier_extra_ns
        start = max(int(at), self.busy_until)
        completion = start + duration
        for channel in range(len(self._channels)):
            self._channels[channel] = completion
            if self.stats.channel_busy_ns:
                self.stats.channel_busy_ns[channel] += duration
        self.stats.busy_ns += duration
        if self._observe:
            self._flush_hist.record(completion - int(at))
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.io_slice("flush", -1, start, completion, 0, None)
        return completion

    def reset(self) -> None:
        """Forget queued work and zero the statistics (new experiment)."""
        self._channels = [0] * len(self._channels)
        self._streams.clear()
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"SSD(profile={self.profile.name}, "
            f"channels={len(self._channels)}, busy_until={self.busy_until}, "
            f"written={self.stats.bytes_written}B)"
        )
