"""Background work execution on the virtual clock.

LevelDB runs compactions on one background thread; RocksDB-like stores
use several. Each thread is a *free-at watermark*: a job executes eagerly
in program order, but its virtual-time span is
``[max(ready, thread_free), completion]``.

Work is **pulled, not pushed**: the store keeps the pending-work state
(sealed memtable, compaction scores, seek requests) and the executor only
runs a job when the store decides the thread has virtual time for it.
That gives the scheduling semantics of the real system — the memtable
dump is always picked before size compactions, deep-level backlog only
consumes thread time as the clock actually passes, and work left over at
the end of a benchmark window stays unexecuted until someone waits for
it — which is exactly how db_bench's timed window sees a real LevelDB.

The executor attributes work per thread (``thread_jobs`` /
``thread_busy_ns``) and accounts *queue stalls*: whenever a job's start
is delayed past its ready time because every thread was busy, the wait
is added to ``stall_ns`` (and, when an observability registry is wired
in, to the ``bg.stall_ns`` counter and ``bg.queue_ns`` histogram). This
is the scheduling-delay signal Luo & Carey tie to write stalls — a
compaction backlog on too few threads shows up here before it shows up
in user-visible latency.
"""

from __future__ import annotations

from typing import Callable, List, Optional

WorkFn = Callable[[int], int]  # start_time -> completion_time


class LazyExecutor:
    """N virtual worker threads, each a serial free-at timeline."""

    def __init__(
        self,
        num_threads: int = 1,
        obs=None,
        name: str = "bg",
    ) -> None:
        if num_threads < 1:
            raise ValueError(f"need at least one thread, got {num_threads}")
        self._free_at: List[int] = [0] * num_threads
        self.jobs = 0
        self.busy_ns = 0
        self.stall_ns = 0
        #: virtual time jobs were pushed back by the compaction rate
        #: limiter (the store calls :meth:`note_throttle` at admit time)
        self.throttle_ns = 0
        self.thread_jobs: List[int] = [0] * num_threads
        self.thread_busy_ns: List[int] = [0] * num_threads
        self._name = name
        self._observe = obs is not None and obs.enabled
        self._obs = obs if self._observe else None
        if self._observe:
            obs.register_source(name, self.snapshot)
            self._stall_counter = obs.counter("bg.stall_ns")
            self._queue_hist = obs.histogram("bg.queue_ns")

    @property
    def num_threads(self) -> int:
        return len(self._free_at)

    def earliest_free(self) -> int:
        return min(self._free_at)

    def latest_free(self) -> int:
        return max(self._free_at)

    def free_at(self, thread: int) -> int:
        """When one specific thread's timeline becomes free."""
        return self._free_at[thread]

    def next_start(self, ready: int) -> int:
        """The start time a job submitted now with ``ready`` would get."""
        return max(int(ready), self.earliest_free())

    def execute(
        self, ready: int, work: WorkFn, thread: Optional[int] = None
    ) -> int:
        """Run ``work`` on the least-loaded thread; returns completion.

        The job starts no earlier than ``ready`` (when its trigger arose)
        and no earlier than the thread's free time. Passing ``thread``
        pins the job to a specific worker (schedulers that separate, say,
        memtable dumps from major compactions use this).
        """
        if thread is None:
            index = min(
                range(len(self._free_at)), key=self._free_at.__getitem__
            )
        else:
            index = thread
        start = max(int(ready), self._free_at[index])
        stall = start - int(ready)
        tracer = self._obs.tracer if self._obs is not None else None
        if tracer is not None:
            # spans opened inside the job land on this worker's track
            tracer.push_track(f"{self._name}.t{index}")
            try:
                done = work(start)
            finally:
                tracer.pop_track()
        else:
            done = work(start)
        if done < start:
            raise RuntimeError(
                f"background work went backwards in time ({done} < {start})"
            )
        # `work` may have executed nested follow-ups that advanced the
        # thread past `done`; never rewind.
        self._free_at[index] = max(self._free_at[index], done)
        self.jobs += 1
        self.busy_ns += done - start
        self.thread_jobs[index] += 1
        self.thread_busy_ns[index] += done - start
        self.stall_ns += stall
        if self._observe:
            self._stall_counter.inc(stall)
            self._queue_hist.record(stall)
        return done

    def idle_at(self, at: int) -> bool:
        return all(free <= at for free in self._free_at)

    def note_throttle(self, ns: int) -> None:
        """Attribute rate-limiter delay imposed on a job's ready time.

        Distinct from ``stall_ns`` (queueing behind busy threads): this
        is time the *scheduler chose* to defer work to shape compaction
        bandwidth; the executor keeps both so a report can tell "not
        enough threads" apart from "bandwidth budget".
        """
        self.throttle_ns += int(ns)
        if self._observe:
            self._obs.counter("bg.throttle_ns").inc(int(ns))

    def snapshot(self) -> "dict[str, object]":
        """Unified stats view (see :mod:`repro.sim.stats` contract)."""
        return {
            "threads": self.num_threads,
            "jobs": self.jobs,
            "busy_ns": self.busy_ns,
            "stall_ns": self.stall_ns,
            "throttle_ns": self.throttle_ns,
            "thread_jobs": list(self.thread_jobs),
            "thread_busy_ns": list(self.thread_busy_ns),
        }
