"""Ablations and extensions of NobLSM's design (DESIGN.md section 5).

Each test isolates one mechanism behind NobLSM's fillrandom gain: which
sync class matters, how Ext4's commit interval and the reclamation poll
trade shadow-table residency against syscalls without touching
foreground throughput, and how the gain grows with the device's FLUSH
cost. All run at scale 8000; at 20000 the major-sync step of the
sync-policy spectrum no longer beats the manifest step.
"""

from dataclasses import replace

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig
from repro.bench.workloads import ValueGenerator, fillrandom_indices, make_key
from repro.core.noblsm import NobLSM
from repro.fs.jbd2 import JournalConfig
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.db import DB
from repro.sim.clock import micros, seconds
from repro.sim.latency import GIB, PM883

SCALE = 8000.0


def paper_ns(paper_s: float) -> int:
    """A paper-time interval in scaled virtual ns."""
    return max(int(seconds(paper_s) / SCALE), 1000)


def paper_stack(config, device=PM883, commit_s=5.0) -> StorageStack:
    """A stack on ``device`` whose journal commits every ``commit_s``
    paper seconds."""
    return StorageStack(
        StackConfig(
            device=device.time_compressed(SCALE),
            pagecache_bytes=max(
                int(16 * GIB / SCALE), 30 * config.dataset_bytes()
            ),
            writeback_interval_ns=paper_ns(1.0),
            journal=JournalConfig(commit_interval_ns=paper_ns(commit_s)),
        )
    )


def fill(db, config, at=0):
    """Run fillrandom from ``at``: us/op and, on NobLSM, the peak shadow
    table count sampled every 500 puts."""
    values = ValueGenerator(config.value_size, seed=config.seed)
    t, peak = at, 0
    for index in fillrandom_indices(config.num_ops, config.seed):
        t = db.put(make_key(index), values.next(), at=t)
        if isinstance(db, NobLSM) and db.stats.puts % 500 == 0:
            peak = max(peak, db.shadow_count)
    return (t - at) / 1000 / config.num_ops, peak


def test_major_output_syncs_dominate_the_sync_policy_spectrum():
    """From stock LevelDB drop the manifest sync, then the major-output
    syncs (NobLSM), then the minor sync (volatile): every step helps
    and dropping the major-output syncs helps most."""
    config = ScaledConfig(scale=SCALE)

    def us_per_op(minor, major, manifest):
        stack = config.build_stack()
        options = config.build_options()
        options.sync.sync_minor = minor
        options.sync.sync_major = major
        options.sync.sync_manifest = manifest
        return fill(DB(stack, options=options), config, at=stack.now)[0]

    ordered = [
        us_per_op(*flags)
        for flags in (
            (True, True, True),
            (True, True, False),
            (True, False, False),
            (False, False, False),
        )
    ]
    for earlier, later in zip(ordered, ordered[1:]):
        assert later <= earlier * 1.05, ordered
    leveldb, no_manifest, noblsm, volatile = ordered
    major_gain = no_manifest - noblsm
    assert major_gain >= leveldb - no_manifest, ordered
    assert major_gain >= noblsm - volatile, ordered


def test_commit_interval_sets_shadow_residency_not_throughput():
    """NobLSM never blocks on a commit, so a 1 s / 5 s / 30 s commit
    period moves how long shadow tables linger, not us/op."""
    runs = []
    for interval_s in (1.0, 5.0, 30.0):
        config = ScaledConfig(scale=SCALE)
        options = config.build_options()
        options.reclaim_interval_ns = paper_ns(interval_s)
        stack = paper_stack(config, commit_s=interval_s)
        runs.append(fill(NobLSM(stack, options=options), config))
    times = [us for us, _ in runs]
    assert max(times) < 1.35 * min(times), runs
    assert runs[-1][1] >= runs[0][1], runs


def test_reclaim_poll_trades_syscalls_for_shadow_residency():
    """Polling faster than the 5 s commit only burns is_committed calls;
    polling slower only retains shadows; neither moves us/op."""
    runs = []
    for poll_s in (1.0, 5.0, 25.0):
        config = ScaledConfig(scale=SCALE)
        stack = config.build_stack()
        options = config.build_options()
        options.reclaim_interval_ns = paper_ns(poll_s)
        us, peak = fill(NobLSM(stack, options=options), config)
        runs.append((us, stack.syscalls.is_committed_calls, peak))
    fast, paper, slow = runs
    assert fast[1] >= paper[1], runs
    assert slow[2] >= paper[2], runs
    times = [us for us, _, _ in runs]
    assert max(times) < 1.35 * min(times), runs


def test_noblsm_gain_grows_with_the_flush_cost():
    """NobLSM takes FLUSH barriers off the write path, so its fillrandom
    gain over LevelDB is positive from a 300 us to a 15 ms FLUSH (the
    paper's device is ~900 us) and grows with it."""
    cuts = []
    for flush_us in (300, 900, 4000, 15000):
        device = replace(
            PM883,
            name=f"flush-{flush_us}us",
            flush_ns=micros(flush_us),
            barrier_extra_ns=micros(flush_us) // 10,
        )
        us = {}
        for store in ("leveldb", "noblsm"):
            config = ScaledConfig(scale=SCALE)
            stack = paper_stack(config, device=device)
            db = make_store(store, stack, options=config.build_options())
            us[store] = fill(db, config)[0]
        cuts.append(1 - us["noblsm"] / us["leveldb"])
    assert all(cut > 0 for cut in cuts), cuts
    assert cuts[-1] > cuts[0], cuts
