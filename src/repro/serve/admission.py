"""Per-shard admission control: queue under pressure, shed past a bound.

An open-loop workload does not slow down when a shard does — requests
keep arriving while the store is mid-stall, and *something* has to
absorb the difference. Without admission control that something is the
writer mutex: every queued client parks on a stalled shard and the
tenant sees the full stall in its tail. The controller moves the
decision to the front door, using the store's own write-path triggers
(:meth:`repro.lsm.pressure.WritePressure.state`, the same decision
``_make_room`` stalls on, read without writing):

- a bounded **backpressure queue** models the requests already
  dispatched to the shard but not yet completed (their virtual
  completion time lies in the future). Depth is measured at each
  arrival by expiring completed entries;
- while the shard reports ``slowdown``/``stop`` pressure the queue
  *shrinks*: under ``stop`` a shard is one compaction away from
  blocking every queued client for milliseconds, so only
  ``stop_fraction`` of the bound may wait; under ``slowdown`` the
  admitted depth is ``slowdown_fraction`` of the bound;
- anything past the applicable bound is **shed**: counted, charged to
  no histogram (the tenant got an immediate pushback, not a latency),
  and reported per cause so a serve run shows *why* it refused work.

Decisions and counters are pure virtual-time bookkeeping — the
controller never advances any clock, so a cluster with admission
control disabled is byte-identical to one that was never wrapped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.lsm.pressure import PRESSURE_OK, PRESSURE_SLOWDOWN, PRESSURE_STOP

#: admission decisions
ADMIT = "admit"
QUEUE = "queue"
SHED = "shed"


@dataclass
class AdmissionStats:
    """Everything one shard's controller did, for the serve document."""

    admitted: int = 0
    queued: int = 0
    shed: int = 0
    #: time admitted requests spent waiting behind the shard's backlog
    queued_ns: int = 0
    #: shed counts by the pressure state that caused them
    shed_by_pressure: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "queued_ns": self.queued_ns,
            "shed_by_pressure": dict(sorted(self.shed_by_pressure.items())),
        }


class AdmissionController:
    """Bounded backpressure queue in front of one shard."""

    __slots__ = ("max_queue", "slowdown_fraction", "stop_fraction",
                 "stats", "_pending", "_busy_until")

    def __init__(
        self,
        max_queue: int,
        slowdown_fraction: float = 0.5,
        stop_fraction: float = 0.25,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if not 0.0 < stop_fraction <= slowdown_fraction <= 1.0:
            raise ValueError(
                "need 0 < stop_fraction <= slowdown_fraction <= 1, got "
                f"{stop_fraction}/{slowdown_fraction}"
            )
        self.max_queue = max_queue
        self.slowdown_fraction = slowdown_fraction
        self.stop_fraction = stop_fraction
        self.stats = AdmissionStats()
        #: completion times of in-flight requests, ascending
        self._pending: Deque[int] = deque()
        self._busy_until = 0

    def depth(self, at: int) -> int:
        """In-flight requests whose completion lies after ``at``."""
        pending = self._pending
        while pending and pending[0] <= at:
            pending.popleft()
        return len(pending)

    def peek_depth(self, at: int) -> int:
        """Read-only :meth:`depth`: count without expiring entries.

        Observability (the admission snapshot source, sampler probes)
        must use this one — ``depth`` pops expired completions, and a
        probe timestamped *after* the next arrival would expire entries
        that arrival's ``decide`` should still have counted, turning a
        shed into a queue and changing the run.
        """
        pending = self._pending
        count = len(pending)
        for done in pending:
            if done > at:
                break
            count -= 1
        return count

    def bound(self, pressure: str) -> int:
        """The admitted queue depth under the given pressure state."""
        if pressure == PRESSURE_STOP:
            return max(int(self.max_queue * self.stop_fraction), 1)
        if pressure == PRESSURE_SLOWDOWN:
            return max(int(self.max_queue * self.slowdown_fraction), 1)
        return self.max_queue

    def decide(self, at: int, pressure: str) -> str:
        """ADMIT (idle shard), QUEUE (waits behind backlog), or SHED."""
        depth = self.depth(at)
        if depth >= self.bound(pressure):
            self.stats.shed += 1
            by = self.stats.shed_by_pressure
            by[pressure] = by.get(pressure, 0) + 1
            return SHED
        if depth > 0 or pressure != PRESSURE_OK:
            self.stats.queued += 1
            if self._busy_until > at:
                self.stats.queued_ns += self._busy_until - at
            return QUEUE
        self.stats.admitted += 1
        return ADMIT

    def note_completion(self, at: int, done: int) -> None:
        """Record a served request's completion for later depth checks.

        Completions are appended in arrival order; a request that
        finishes *earlier* than the current backlog tail (a read
        overtaking queued writes) must not extend the deque out of
        order, so it is clamped into place — depth is a conservative
        (monotone) view of the backlog.
        """
        if self._pending and done < self._pending[-1]:
            done = self._pending[-1]
        self._pending.append(done)
        if done > self._busy_until:
            self._busy_until = done
