"""Discrete-event simulation substrate.

This package provides the virtual-time machinery the reproduction runs on:

- :class:`repro.sim.clock.VirtualClock` — monotonic virtual nanoseconds.
- :class:`repro.sim.events.EventQueue` — heap-ordered timed callbacks used
  for journal-commit timers, writeback and reclamation polls.
- :class:`repro.sim.ssd.SSD` — the simulated solid-state drive with a shared
  busy timeline, bandwidth/latency parameters and FLUSH-barrier costs.
- :class:`repro.sim.latency.DeviceProfile` — calibrated device parameters
  (the default profile approximates the Samsung PM883 used by the paper).
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue
from repro.sim.latency import CpuProfile, DeviceProfile, PM883, SLOW_HDD_LIKE
from repro.sim.ssd import SSD
from repro.sim.stats import DeviceStats, SyncStats

__all__ = [
    "VirtualClock",
    "EventQueue",
    "CpuProfile",
    "DeviceProfile",
    "PM883",
    "SLOW_HDD_LIKE",
    "SSD",
    "DeviceStats",
    "SyncStats",
]
