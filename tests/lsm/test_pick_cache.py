"""The compaction pick is computed once per version and stays exact.

``VersionSet.pick_compaction_level`` and ``level_score`` keep their
answer on the current ``Version``. That is exact only while nothing a
score reads changes under an installed version — in particular while
``FileMetaData.shadow`` never flips on a file of the current version
(the level-0 score counts non-shadow files). Every store is filled with
a checker on its background picker: at each pick, the cached answer
must equal one computed from scratch, and no current file is a shadow.
"""

import random

import pytest

from repro.baselines.registry import STORE_CLASSES, make_store
from repro.fs.jbd2 import JournalConfig
from repro.fs.stack import StackConfig, StorageStack
from repro.lsm.options import KIB, Options
from repro.sim.clock import millis


def fresh_pick(versions):
    """Scores and winner recomputed from the file lists, no cache."""
    options = versions.options
    current = versions.current
    scores = []
    for level in range(options.num_levels - 1):
        if level == 0:
            live = sum(1 for f in current.files[0] if not f.shadow)
            scores.append(live / float(options.l0_compaction_trigger))
        else:
            total = sum(f.file_size for f in current.files[level])
            scores.append(total / options.max_bytes_for_level(level))
    best = (None, 0.999999)
    for level, score in enumerate(scores):
        if score > best[1]:
            best = (level, score)
    return scores, best


def check_pick(versions):
    scores, best = fresh_pick(versions)
    assert versions.pick_compaction_level() == best
    assert [versions.level_score(level) for level in range(len(scores))] == scores
    assert not any(f.shadow for files in versions.current.files for f in files)


def build(name):
    stack = StorageStack(
        StackConfig(journal=JournalConfig(commit_interval_ns=millis(20)))
    )
    options = Options(
        write_buffer_size=2 * KIB,
        max_file_size=1 * KIB,
        block_size=256,
        max_bytes_for_level_base=2 * KIB,
        l0_compaction_trigger=2,
    )
    options.reclaim_interval_ns = millis(20)
    if name == "noblsm-kv":
        options.value_threshold = 16
        options.vlog_segment_bytes = 512
    return stack, make_store(name, stack, options=options)


def fill(name, before_check=None, num_ops=2000):
    """Random puts and deletes with the pick checked at every pick."""
    stack, db = build(name)
    picks = []
    pick_background_work = db._pick_background_work

    def checked(horizon=None):
        if before_check is not None:
            before_check(db.versions)
        check_pick(db.versions)
        picks.append(horizon)
        return pick_background_work(horizon)

    db._pick_background_work = checked
    rng = random.Random(7)
    t = stack.now
    for i in range(num_ops):
        key = b"key%04d" % rng.randrange(200)
        if rng.random() < 0.1:
            t = db.delete(key, t)
        else:
            t = db.put(key, b"value%d-" % i + b"x" * rng.randrange(40), t)
    db.wait_for_background(t)
    return db, picks


@pytest.mark.parametrize("name", sorted(STORE_CLASSES))
def test_cached_pick_equals_a_fresh_one_at_every_poll(name):
    db, picks = fill(name)
    assert len(picks) > 100
    assert db.stats.major_compactions > 0


def test_check_catches_a_shadow_flip_on_the_current_version():
    """Planted fault: a current level-0 file turns shadow after its
    version's pick was cached; the next pick check must fail."""
    planted = []

    def plant(versions):
        files = versions.current.files[0]
        if files and not planted:
            versions.pick_compaction_level()
            files[0].shadow = True
            planted.append(files[0])

    with pytest.raises(AssertionError):
        fill("noblsm", before_check=plant)
    assert planted
