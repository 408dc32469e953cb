"""Virtual-time token-bucket rate limiting for major compactions.

"On Performance Stability in LSM-based Storage Systems" (Luo & Carey)
shows that throughput-optimal LSM-trees still exhibit large latency
spikes because compaction debt is paid in *bursts*: a deep major grabs
the device for a long contiguous window and every foreground WAL append
behind it queues. Pome-style scheduling treats compaction bandwidth as
a schedulable resource instead; this module is the simulator's version
of that idea.

:class:`CompactionRateLimiter` is a token bucket on the **virtual**
clock. Tokens are bytes of compaction input; they refill at
``bytes_per_sec`` of virtual time up to ``burst_bytes``. When the
store's scheduler picks a major compaction it asks :meth:`admit` for a
start time: if the bucket holds enough tokens the job starts at its
ready time, otherwise its start is pushed to the virtual instant the
bucket will have refilled — the compaction still runs, just spread out,
so the device sees a bounded compaction byte-rate per window instead of
an all-or-nothing burst.

**Fair mode** (the ``urgent`` flag, decided by
:meth:`repro.lsm.pressure.WritePressure.admit`) recognises that not all
compaction bytes are equal: L0->L1 work is what keeps live L0 below the
slowdown/stop triggers, i.e. what keeps *writers* unblocked. Once live
L0 reaches ``l0_compaction_trigger`` the L0 drain is urgent: urgent
admissions are never delayed; they still debit the bucket (the bytes
are real device traffic), driving it negative if needed, which pushes
future non-urgent work further out — exactly the "L0 first, deep
levels pay" priority the stability literature argues for.

Everything is integer arithmetic on virtual nanoseconds, so runs stay
bit-deterministic. A store runs one only when
``Options.stability_ingest_bytes_per_sec`` is set
(:func:`repro.lsm.pressure.stability_limiter` sizes it), so the default
options keep the seed's byte-identical behaviour.
"""

from __future__ import annotations

from typing import Dict

NS_PER_SEC = 1_000_000_000


class CompactionRateLimiter:
    """Token bucket over virtual time; tokens are compaction input bytes."""

    __slots__ = (
        "bytes_per_sec",
        "burst_bytes",
        "_tokens",
        "_last_refill_ns",
        "admitted_jobs",
        "admitted_bytes",
        "throttled_jobs",
        "throttle_ns",
        "bypassed_jobs",
        "bypassed_bytes",
        "held_jobs",
    )

    def __init__(
        self,
        bytes_per_sec: int,
        burst_bytes: int = 0,
    ) -> None:
        if bytes_per_sec <= 0:
            raise ValueError(
                f"bytes_per_sec must be positive, got {bytes_per_sec}"
            )
        if burst_bytes < 0:
            raise ValueError(f"burst_bytes must be >= 0, got {burst_bytes}")
        self.bytes_per_sec = bytes_per_sec
        #: bucket capacity; defaults to one virtual second of tokens
        self.burst_bytes = burst_bytes if burst_bytes > 0 else bytes_per_sec
        self._tokens = self.burst_bytes  # start full: no cold-start stall
        self._last_refill_ns = 0
        self.admitted_jobs = 0
        self.admitted_bytes = 0
        self.throttled_jobs = 0
        self.throttle_ns = 0
        self.bypassed_jobs = 0
        self.bypassed_bytes = 0
        self.held_jobs = 0

    def note_held(self) -> None:
        """Count one hold-back: a scheduler declined to dispatch a job
        because :meth:`peek` placed its start beyond the scheduling
        horizon. Held jobs are re-offered on a later poll, so the same
        compaction may be counted several times — this is a pressure
        signal, not a job count."""
        self.held_jobs += 1

    def _refill(self, at: int) -> None:
        if at <= self._last_refill_ns:
            return
        gained = (at - self._last_refill_ns) * self.bytes_per_sec // NS_PER_SEC
        if gained:
            self._tokens = min(self._tokens + gained, self.burst_bytes)
            # advance only by the time the integer division consumed, so
            # fractional refill is carried, not dropped
            self._last_refill_ns += gained * NS_PER_SEC // self.bytes_per_sec
        if self._last_refill_ns < at and self._tokens >= self.burst_bytes:
            self._last_refill_ns = at

    def tokens_at(self, at: int) -> int:
        """Bucket level at virtual time ``at`` (refills, no consumption)."""
        self._refill(at)
        return self._tokens

    def peek(self, ready: int, nbytes: int, urgent: bool = False) -> int:
        """The start :meth:`admit` would grant, without consuming tokens.

        Schedulers use this to *hold back* a throttled job instead of
        dispatching it with a far-future start (which would occupy a
        worker's timeline and block unthrottled work behind it).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        ready = int(ready)
        self._refill(ready)
        if urgent or self._tokens >= nbytes:
            return ready
        deficit = nbytes - self._tokens
        # ceil-divide so the bucket is never admitted short
        wait_ns = (deficit * NS_PER_SEC + self.bytes_per_sec - 1) // (
            self.bytes_per_sec
        )
        return ready + wait_ns

    def admit(self, ready: int, nbytes: int, urgent: bool = False) -> int:
        """Earliest start time for a job of ``nbytes``; consumes tokens.

        Non-urgent jobs wait for the bucket to cover them; urgent jobs
        (the fair-mode L0 drain) start at ``ready`` and may overdraw the
        bucket. Call with the job's ready time; the returned time is
        ``>= ready`` and the tokens are debited at that instant.
        """
        ready = int(ready)
        start = self.peek(ready, nbytes, urgent)
        if start > ready:
            self._refill(start)
            self.throttled_jobs += 1
            self.throttle_ns += start - ready
        elif self._tokens < nbytes:  # an urgent job overdrawing the bucket
            self.bypassed_jobs += 1
            self.bypassed_bytes += nbytes
        self._tokens -= nbytes
        self.admitted_jobs += 1
        self.admitted_bytes += nbytes
        return start

    def snapshot(self) -> Dict[str, object]:
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "bytes_per_sec": self.bytes_per_sec,
            "burst_bytes": self.burst_bytes,
            "admitted_jobs": self.admitted_jobs,
            "admitted_bytes": self.admitted_bytes,
            "throttled_jobs": self.throttled_jobs,
            "throttle_ns": self.throttle_ns,
            "bypassed_jobs": self.bypassed_jobs,
            "bypassed_bytes": self.bypassed_bytes,
            "held_jobs": self.held_jobs,
        }

    def __repr__(self) -> str:
        return (
            f"CompactionRateLimiter({self.bytes_per_sec} B/s, "
            f"burst={self.burst_bytes}, "
            f"throttled={self.throttled_jobs})"
        )
