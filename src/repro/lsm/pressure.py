"""The write-pressure controller: LevelDB's L0/memtable triggers as one loop.

What still blocks a NobLSM writer is not a sync but LevelDB's L0
slowdown, sealed-memtable wait and L0 stop. Luo & Carey ("On
Performance Stability in LSM-based Storage Systems") treat these, the
compaction shaping that feeds them and the health signals read off them
as one control loop: :class:`WritePressure`, the only code that compares
L0/memtable state against the triggers. Its tuning is one setting,
``Options.stability_ingest_bytes_per_sec`` (0 = stock LevelDB).
"""

from __future__ import annotations

from typing import Optional

from repro.lsm.ratelimit import CompactionRateLimiter

#: :meth:`WritePressure.state` values, in increasing severity
PRESSURE_OK = "ok"
PRESSURE_SLOWDOWN = "slowdown"
PRESSURE_STOP = "stop"

#: the states as ``db.write_pressure`` gauge values (monotone in severity)
PRESSURE_CODES = {PRESSURE_OK: 0, PRESSURE_SLOWDOWN: 1, PRESSURE_STOP: 2}

#: LevelDB's fixed L0 slowdown
MILLISECOND = 1_000_000
#: dynamic slowdown at the first file over the slowdown trigger ...
SLOWDOWN_MIN_NS = 100_000
#: ... and just below the stop trigger
SLOWDOWN_MAX_NS = 4_000_000

#: ``lsm.write_stall`` cause labels
L0_SLOWDOWN = "l0_slowdown"
MEMTABLE_FULL = "memtable_full"
L0_STOP = "l0_stop"
MAJOR_DEFERRED = "major_deferred"

#: cause -> (``DBStats`` fields it adds into, ``db.stall.*`` counter), in
#: rendering order. The hard stalls also add into ``stall_ns``; a
#: ``major_deferred`` scheduler deferral blocks no writer: span only.
STALL_CAUSES = {
    L0_SLOWDOWN: (("slowdown_ns",), "db.stall.l0_slowdown_ns"),
    MEMTABLE_FULL: (
        ("stall_ns", "stall_memtable_ns"), "db.stall.memtable_wait_ns"
    ),
    L0_STOP: (("stall_ns", "stall_l0_stop_ns"), "db.stall.l0_stop_ns"),
    MAJOR_DEFERRED: ((), None),
}


def stability_limiter(ingest_bytes_per_sec: int) -> CompactionRateLimiter:
    """The major-compaction limiter for a store ingesting this many B/s.

    Leveling write amplification multiplies ingest ~10x at the bench
    tree shapes, so a 14x cap keeps up with steady-state demand while
    holding back the deep-major bursts behind spike windows; the shallow
    bucket (~100 ms of ingest) spreads those bursts even though the
    average rate never binds.
    """
    return CompactionRateLimiter(
        14 * ingest_bytes_per_sec, ingest_bytes_per_sec // 10
    )


class WritePressure:
    """One store's write-pressure decisions, stall charging and telemetry.

    ``versions`` supplies the live L0; the store reports memtable seals
    and dump ends through :meth:`note_sealed`.
    """

    def __init__(self, options, versions, stats, bg, obs, name: str) -> None:
        self.options = options
        self._versions = versions
        self._stats = stats
        self._bg = bg
        self._obs = obs
        self._observe = obs.enabled
        #: a sealed memtable awaits its dump
        self.sealed = False
        #: ``None`` without stability tuning: stock unthrottled picks
        self.limiter: Optional[CompactionRateLimiter] = None
        if options.stability_ingest_bytes_per_sec > 0:
            self.limiter = stability_limiter(
                options.stability_ingest_bytes_per_sec
            )
        self._last = PRESSURE_OK
        if self._observe:
            self._counters = {
                cause: obs.counter(counter)
                for cause, (_, counter) in STALL_CAUSES.items()
                if counter is not None
            }
            self._gauge = obs.gauge("db.write_pressure")
            self._transitions = obs.counter("db.write_pressure.transitions")
            versions.on_install = self.refresh
            if self.limiter is not None:
                obs.register_source(
                    f"db.{name}.ratelimit", self.limiter.snapshot
                )

    def l0_live(self) -> int:
        """Level-0 tables reads still see (NobLSM shadows excluded)."""
        return sum(1 for f in self._versions.current.files[0] if not f.shadow)

    def state(self) -> str:
        """The state ``_make_room`` would put the next writer into.

        ``stop`` at the L0 stop trigger; ``slowdown`` at the slowdown
        trigger or while a sealed memtable awaits its dump; else ``ok``.
        Side-effect free, so a serving layer may poll it per request: a
        *stop* blocks a writer for a compaction's worth of virtual time,
        a *slowdown* only delays it.
        """
        l0 = self.l0_live()
        if l0 >= self.options.l0_stop_writes_trigger:
            return PRESSURE_STOP
        if l0 >= self.options.l0_slowdown_writes_trigger or self.sealed:
            return PRESSURE_SLOWDOWN
        return PRESSURE_OK

    def urgent(self) -> bool:
        """Live L0 has reached the compaction trigger: drain it first."""
        return self.l0_live() >= self.options.l0_compaction_trigger

    def slowdown_ns(self) -> int:
        """The delay the next writer owes; 0 outside the slowdown band.

        Stock LevelDB sleeps 1 ms. With stability tuning the delay ramps
        quadratically from :data:`SLOWDOWN_MIN_NS` at the first file
        over the trigger to :data:`SLOWDOWN_MAX_NS` just below the stop
        trigger: gentle early so cheap writes keep flowing, steep late
        so background work gets virtual time before the hard stop.
        """
        slowdown = self.options.l0_slowdown_writes_trigger
        stop = self.options.l0_stop_writes_trigger
        l0 = self.l0_live()
        if not slowdown <= l0 < stop:
            return 0
        if self.limiter is None:
            return MILLISECOND
        width = stop - slowdown
        debt = l0 - slowdown + 1  # 1..width
        ramp = SLOWDOWN_MAX_NS - SLOWDOWN_MIN_NS
        return SLOWDOWN_MIN_NS + ramp * debt * debt // (width * width)

    def debt_bytes(self) -> int:
        """Bytes of compaction work the tree owes.

        The whole live L0 once it is :meth:`urgent`, plus whatever each
        deeper level holds beyond its target: the quantities
        ``level_score`` scores, in bytes so levels compare.
        """
        version = self._versions.current
        debt = 0
        if self.urgent():
            debt += sum(f.file_size for f in version.files[0] if not f.shadow)
        for level in range(1, self.options.num_levels - 1):
            over = version.level_bytes(level) - int(
                self.options.max_bytes_for_level(level)
            )
            if over > 0:
                debt += over
        return debt

    def admit(self, compaction, ready, horizon=None) -> Optional[int]:
        """A major's start time under the limiter (identity without one).

        The start waits until the bucket covers the input bytes, except
        an L0->L1 compaction while L0 is :meth:`urgent`: shaping must
        never starve the work that unblocks writers (it still debits the
        bucket, so deep levels pay). A start beyond ``horizon`` returns
        ``None`` with no tokens taken (*held back*), so a throttled major
        never parks on a worker's timeline ahead of unthrottled work.
        """
        limiter = self.limiter
        if limiter is None:
            return ready
        urgent = compaction.level == 0 and self.urgent()
        if horizon is not None:
            start = limiter.peek(ready, compaction.input_bytes, urgent=urgent)
            if start > horizon:
                limiter.note_held()
                return None
        admitted = limiter.admit(ready, compaction.input_bytes, urgent=urgent)
        if admitted > ready:
            self._bg.note_throttle(admitted - ready)
            if self._observe:
                self._obs.counter("db.compaction.throttle_ns").inc(
                    admitted - ready
                )
        return admitted

    def charge(self, cause, start, end, span=None, **attrs) -> None:
        """Book the stall ``[start, end)`` against ``cause``.

        Every run adds into the cause's ``DBStats`` fields. Observed runs
        also bump its ``db.stall.*`` counter and emit an ``lsm.write_stall``
        span; the ``stall.<cause>`` child of a ``db.write`` ``span``
        exists only when tracing. Empty intervals book nothing.
        """
        if end <= start:
            return
        fields, _ = STALL_CAUSES[cause]
        for name in fields:
            setattr(self._stats, name, getattr(self._stats, name) + end - start)
        if not self._observe:
            return
        if cause in self._counters:
            self._counters[cause].inc(end - start)
        self._obs.start_span(
            "lsm.write_stall", start, cause=cause, **attrs
        ).end(end)
        if span is not None:
            span.child("stall." + cause, start).end(end)

    def note_sealed(self, sealed: bool) -> None:
        """The store sealed a memtable (True) or finished its dump (False)."""
        self.sealed = sealed
        if self._observe:
            self.refresh()

    def refresh(self) -> None:
        """Publish :meth:`state` to the gauge and transition counters.

        Observed stores call this whenever an input changes (version
        install, memtable seal, dump end), so the telemetry follows the
        store and not whoever polls :meth:`state`.
        """
        state = self.state()
        self._gauge.set(PRESSURE_CODES[state])
        if state != self._last:
            self._transitions.inc()
            self._obs.counter(f"db.write_pressure.enter_{state}").inc()
            self._last = state
