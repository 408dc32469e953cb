"""noblsm-kv behaviour: separation, GC, commit-gated segment reclaim."""

import pytest

from repro.core.noblsm import NobLSM
from repro.core.noblsm_kv import NobLSMKV
from repro.fs.jbd2 import JournalConfig
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.filenames import vlog_file_name
from repro.lsm.options import KIB, Options
from repro.sim.clock import millis


def fast_stack():
    return StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(20)))
    )


def kv_options(**overrides):
    options = Options(
        write_buffer_size=1 * KIB,
        max_file_size=1 * KIB,
        block_size=256,
        max_bytes_for_level_base=2 * KIB,
        l0_compaction_trigger=2,
    )
    options.reclaim_interval_ns = millis(20)
    options.value_threshold = 16
    options.vlog_segment_bytes = 512
    options.vlog_gc_garbage_ratio = 0.3
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


def fill(db, n, t=0, value_size=27, seed=3):
    import random

    rng = random.Random(seed)
    keys = []
    for _ in range(n):
        key = f"key{rng.randrange(64):04d}".encode()
        t = db.put(key, f"v{rng.randrange(10**8):08d}".encode() * (value_size // 9), at=t)
        keys.append(key)
    return keys, t


def settle(db, stack, t):
    t = db.wait_for_background(t)
    t = max(t, stack.settle())
    return db.reclaim(t)


def test_threshold_none_is_rejected():
    """Without value_threshold there is no kv store: noblsm is that store."""
    stack = fast_stack()
    with pytest.raises(ValueError, match="value_threshold"):
        NobLSMKV(stack, options=kv_options(value_threshold=None))
    assert not stack.fs.list_dir("db/")


def test_separated_values_read_back():
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options())
    keys, t = fill(db, 240)
    t = settle(db, stack, t)
    assert db.vlog.appends > 0
    # every key readable, values intact through pointer resolution
    import random

    rng = random.Random(3)
    model = {}
    for _ in range(240):
        key = f"key{rng.randrange(64):04d}".encode()
        model[key] = f"v{rng.randrange(10**8):08d}".encode() * 3
    for key, expect in model.items():
        value, t = db.get(key, at=t)
        assert value == expect, key


def test_small_values_stay_inline():
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options(value_threshold=4096))
    _, t = fill(db, 240)
    t = settle(db, stack, t)
    assert db.vlog.appends == 0
    assert not [p for p in stack.fs.list_dir("db/") if p.endswith(".vlg")]


def test_scan_resolves_pointers():
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options())
    _, t = fill(db, 240)
    t = settle(db, stack, t)
    pairs, _ = db.scan(b"", 100, t)
    assert pairs
    for key, value in pairs:
        assert value.startswith(b"v")
        assert len(value) == 27


def test_gc_reclaims_segments_and_disk_matches():
    """Overwrite-heavy fill: garbage segments are GC'd and unlinked,
    and the on-disk .vlg set matches the vLog's own tracking."""
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options())
    _, t = fill(db, 480)
    t = settle(db, stack, t)
    t = db.close(t)
    assert db.vlog.reclaimed_segments > 0
    assert db.pending_segment_retirements == []
    on_disk = sorted(
        p for p in stack.fs.list_dir("db/") if p.endswith(".vlg")
    )
    tracked = sorted(vlog_file_name("db", s) for s in db.vlog.segments())
    assert on_disk == tracked


def test_retirement_waits_for_commit_gate():
    """Dead segments wait at the gate: some reclaim poll must find a
    retirement still blocked on its barrier with the segment intact on
    disk, and by close every retirement has drained. (Breaking the gate
    outright deadlocks by design — suppressed polls never prune barrier
    inos whose commit records later shadow-unlinks erase — so the gate
    is observed in vivo rather than forced.)"""
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options())
    deferred = []
    original = NobLSMKV.reclaim

    def spying(self, at):
        for segment, barrier in self.pending_segment_retirements:
            if barrier:
                assert stack.fs.exists(vlog_file_name("db", segment)), (
                    f"segment {segment} unlinked while barrier {barrier} "
                    f"uncommitted"
                )
                deferred.append(segment)
        return original(self, at)

    NobLSMKV.reclaim = spying
    try:
        _, t = fill(db, 480)
        t = db.wait_for_background(t)
        t = max(t, stack.settle())
        t = db.close(t)
    finally:
        NobLSMKV.reclaim = original
    assert deferred, "no retirement was ever observed waiting at the gate"
    assert db.pending_segment_retirements == []


def test_reopen_rebuilds_accounting_and_reads():
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options())
    keys, t = fill(db, 240)
    t = settle(db, stack, t)
    t = db.close(t)
    reopened = NobLSMKV(stack, options=kv_options())
    live = {s: reopened.vlog.live_bytes(s) for s in reopened.vlog.segments()}
    assert any(v > 0 for v in live.values())
    import random

    rng = random.Random(3)
    model = {}
    for _ in range(240):
        key = f"key{rng.randrange(64):04d}".encode()
        model[key] = f"v{rng.randrange(10**8):08d}".encode() * 3
    t2 = stack.now
    for key, expect in model.items():
        value, t2 = reopened.get(key, at=t2)
        assert value == expect, key


def test_describe_exposes_vlog_snapshot():
    stack = fast_stack()
    db = NobLSMKV(stack, options=kv_options())
    _, t = fill(db, 120)
    settle(db, stack, t)
    doc = db.describe()
    assert "vlog" in doc
    assert doc["vlog"]["appends"] == db.vlog.appends


def test_kv_registry_entry():
    from repro.baselines.registry import STORE_CLASSES, make_store

    assert STORE_CLASSES["noblsm-kv"] is NobLSMKV
    stack = fast_stack()
    db = make_store("noblsm-kv", stack, options=kv_options())
    assert isinstance(db, NobLSMKV)


def test_kv_store_matches_noblsm_final_state():
    """Same workload, kv on vs plain noblsm: identical final KV map."""
    stack_a = fast_stack()
    kv = NobLSMKV(stack_a, options=kv_options())
    _, t_a = fill(kv, 300)
    t_a = settle(kv, stack_a, t_a)
    stack_b = fast_stack()
    plain = NobLSM(stack_b, options=kv_options(value_threshold=None))
    _, t_b = fill(plain, 300)
    t_b = settle(plain, stack_b, t_b)
    pairs_a, _ = kv.scan(b"", 200, t_a)
    pairs_b, _ = plain.scan(b"", 200, t_b)
    assert pairs_a == pairs_b
