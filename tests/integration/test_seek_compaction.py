"""Seek compactions: the Figure 4d mechanism.

LevelDB sends an SSTable down a level after it serves too many fruitless
seeks; NobLSM performs the same compaction without syncs, which is where
its readrandom advantage comes from (paper Section 5.2).
"""

import random

import pytest

from repro.fs.jbd2 import JournalConfig
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.db import DB
from repro.lsm.options import KIB, Options
from repro.core.noblsm import NobLSM
from repro.sim.clock import millis


def small_options(**overrides):
    options = Options(
        write_buffer_size=8 * KIB,
        max_file_size=8 * KIB,
        block_size=1 * KIB,
        max_bytes_for_level_base=16 * KIB,
    )
    options.reclaim_interval_ns = millis(50)
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


def fast_stack():
    return StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(50)))
    )


def fill(db, n, seed=1):
    rng = random.Random(seed)
    t = 0
    for _ in range(n):
        key = f"key{rng.randrange(n):06d}".encode()
        t = db.put(key, b"v" * 200, at=t)
    return db.wait_for_background(t)


def hammer_reads(db, t, n=30_000, seed=2):
    rng = random.Random(seed)
    for _ in range(n):
        key = f"key{rng.randrange(4000):06d}".encode()
        _, t = db.get(key, at=t)
    return t


def test_seek_compactions_trigger_under_read_misses():
    stack = fast_stack()
    db = DB(stack, options=small_options())
    t = fill(db, 3000)
    t = hammer_reads(db, t)
    assert db.stats.seek_compactions > 0


def test_seek_compaction_disabled_by_option():
    stack = fast_stack()
    db = DB(stack, options=small_options(seek_compaction=False))
    t = fill(db, 3000)
    t = hammer_reads(db, t)
    assert db.stats.seek_compactions == 0


def test_seek_compactions_reduce_probes():
    """After seek compactions the same read mix touches fewer tables."""
    stack = fast_stack()
    db = DB(stack, options=small_options())
    t = fill(db, 3000)
    files_before = sum(
        len(files) for files in db.versions.current.files
    )
    t = hammer_reads(db, t, n=50_000)
    t = db.wait_for_background(t)
    l0_after = db.pressure.l0_live()
    assert l0_after <= db.options.l0_compaction_trigger


def test_noblsm_seek_compactions_without_syncs():
    stack = fast_stack()
    db = NobLSM(stack, options=small_options())
    t = fill(db, 3000)
    syncs_before = stack.sync_stats.by_reason.get("major", 0)
    t = hammer_reads(db, t)
    assert db.stats.seek_compactions > 0
    assert stack.sync_stats.by_reason.get("major", 0) == syncs_before == 0
