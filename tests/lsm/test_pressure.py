"""The write-pressure controller: its decisions and its telemetry.

Serve admission decides on :meth:`WritePressure.state`, fair scheduling
on :meth:`WritePressure.urgent`, the SLO rig samples
:meth:`WritePressure.debt_bytes`; each is pinned here on hand-built
versions. The telemetry test guards the bug where the
``db.write_pressure`` gauge and transition counters only moved when
someone polled the state: an observed run without a poller reported no
pressure at all, and a poller changed the counters it sampled.
"""

import random
from types import SimpleNamespace

import pytest

from repro.baselines.registry import make_store
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.db import DBStats
from repro.lsm.options import KIB, Options
from repro.lsm.pressure import (
    PRESSURE_OK,
    PRESSURE_SLOWDOWN,
    PRESSURE_STOP,
    WritePressure,
)
from repro.lsm.version import FileMetaData, Version
from repro.obs.metrics import NULL_REGISTRY, MetricRegistry

OPTIONS = Options(max_bytes_for_level_base=1000, level_multiplier=10)


def table(number, size=100, shadow=False):
    key = b"k%04d" % number + bytes(8)
    return FileMetaData(number, size, key, key, shadow=shadow)


def controller(l0_live, shadows=0, sealed=False, deeper=None):
    """A controller over a hand-built version (no store behind it)."""
    version = Version(OPTIONS.num_levels)
    version.files[0] = [table(n) for n in range(l0_live)] + [
        table(100 + n, shadow=True) for n in range(shadows)
    ]
    for level, files in (deeper or {}).items():
        version.files[level] = files
    pressure = WritePressure(
        OPTIONS,
        SimpleNamespace(current=version),
        DBStats(),
        bg=None,
        obs=NULL_REGISTRY,
        name="db",
    )
    pressure.sealed = sealed
    return pressure


SLOWDOWN = OPTIONS.l0_slowdown_writes_trigger
STOP = OPTIONS.l0_stop_writes_trigger


@pytest.mark.parametrize(
    "l0,sealed,expected",
    [
        (SLOWDOWN - 1, False, PRESSURE_OK),
        (SLOWDOWN - 1, True, PRESSURE_SLOWDOWN),  # the pending dump alone
        (SLOWDOWN, False, PRESSURE_SLOWDOWN),
        (SLOWDOWN, True, PRESSURE_SLOWDOWN),
        (STOP - 1, False, PRESSURE_SLOWDOWN),
        (STOP - 1, True, PRESSURE_SLOWDOWN),
        (STOP, False, PRESSURE_STOP),
        (STOP, True, PRESSURE_STOP),
        (STOP + 1, False, PRESSURE_STOP),
        (STOP + 1, True, PRESSURE_STOP),
    ],
)
def test_state_table(l0, sealed, expected):
    assert controller(l0, sealed=sealed).state() == expected


def test_state_counts_live_tables_only():
    # NobLSM shadows are retained on disk but never read: no pressure
    assert controller(SLOWDOWN - 1, shadows=5).state() == PRESSURE_OK
    assert controller(STOP - 1, shadows=5).state() == PRESSURE_SLOWDOWN


def test_urgent_boundary_is_the_compaction_trigger():
    trigger = OPTIONS.l0_compaction_trigger
    assert not controller(trigger - 1).urgent()
    assert controller(trigger).urgent()
    assert not controller(trigger - 1, shadows=3).urgent()


def test_debt_bytes_on_a_hand_built_version():
    trigger = OPTIONS.l0_compaction_trigger
    deeper = {
        # L1 target 1000 B: 1500 held, 500 owed
        1: [table(200, size=700), table(201, size=800)],
        # L2 target 10 000 B: under target, nothing owed
        2: [table(300, size=5000)],
        # the last level has no target and never owes
        OPTIONS.num_levels - 1: [table(400, size=10**9)],
    }
    # below the trigger L0 owes nothing; shadows never count
    below = controller(trigger - 1, shadows=2, deeper=deeper)
    assert below.debt_bytes() == 500
    # at the trigger the whole live L0 pile is owed
    at = controller(trigger, shadows=2, deeper=deeper)
    assert at.debt_bytes() == trigger * 100 + 500


# ---------------------------------------------------------------------------
# telemetry follows the store, not the poller
# ---------------------------------------------------------------------------


def pressure_counters(store, every):
    """300 small puts, polling ``state()`` after every ``every``-th put."""
    stack = StorageStack(StackConfig(obs=MetricRegistry()))
    options = Options(
        write_buffer_size=8 * KIB,
        max_file_size=8 * KIB,
        block_size=1 * KIB,
        max_bytes_for_level_base=16 * KIB,
    )
    db = make_store(store, stack, "db", options=options)
    rng = random.Random(7)
    t = 0
    for i in range(300):
        t = db.put(b"k%012d" % rng.randrange(300), bytes(512), at=t)
        if every and i % every == 0:
            db.pressure.state()
    snap = stack.obs.snapshot()
    counters = {
        name: value
        for name, value in snap["counters"].items()
        if name.startswith("db.write_pressure")
    }
    return counters, snap["gauges"]["db.write_pressure"], db.stats.blocked_ns


@pytest.mark.parametrize("store", ["leveldb", "noblsm", "pebblesdb"])
def test_pressure_telemetry_ignores_poll_cadence(store):
    unpolled = pressure_counters(store, every=0)
    counters, _, blocked = unpolled
    assert blocked > 0, "workload too light to build pressure; fix the test"
    assert counters["db.write_pressure.transitions"] > 0
    assert counters["db.write_pressure.enter_slowdown"] > 0
    assert pressure_counters(store, every=1) == unpolled
    assert pressure_counters(store, every=10) == unpolled
