"""Host memory follows live state: nothing retired stays referenced.

Every registered store runs two equal fill + drain phases. After each,
the file system holds only inodes some path can still reach, the
journal's inode map holds no committed transaction, and a NobLSM-family
tracker holds no reclaimed prefix of its dependency groups. A store
that keeps what unlink, commit or reclaim retired fails here long
before the growth shows in a benchmark's peak RSS.
"""

import pytest

from repro.baselines.registry import STORE_CLASSES, make_store
from repro.bench.harness import ScaledConfig
from repro.bench.workloads import ValueGenerator, fillrandom_indices, make_key
from repro.fs.jbd2 import TxnState

NUM_KEYS = 800


def assert_holds_only_live_state(db, stack):
    fs = stack.fs
    reachable = set(fs._namespace.values()) | set(fs.durable_namespace().values())
    assert set(fs._inodes) == reachable
    assert not any(
        txn.state is TxnState.COMMITTED for txn in stack.journal._ino_txn.values()
    )
    tracker = getattr(db, "tracker", None)
    if tracker is not None:
        groups = list(tracker._groups.values())
        assert not groups or not (groups[0].reclaimed and groups[0].resolved)
        held = {ref.number for g in groups for ref in g.predecessors}
        assert set(tracker._consumed_by) <= held


@pytest.mark.parametrize("store", sorted(STORE_CLASSES))
def test_two_phases_retain_only_live_state(store):
    config = ScaledConfig(
        scale=10000.0,
        num_ops=NUM_KEYS,
        value_size=100,
        seed=99,
        value_threshold=64 if store == "noblsm-kv" else None,
    )
    stack = config.build_stack()
    db = make_store(store, stack, "db", options=config.build_options())
    t = stack.now
    for phase in range(2):
        values = ValueGenerator(config.value_size, seed=phase)
        for index in fillrandom_indices(NUM_KEYS, config.seed + phase):
            t = db.put(make_key(index, config.key_size), values.next(), at=t)
        t = db.wait_for_background(t)
        t = max(t, stack.settle())
        assert_holds_only_live_state(db, stack)
    assert db.stats.major_compactions > 0
    if getattr(db, "tracker", None) is not None:
        assert db.shadows_deleted > 0  # the pruning path ran
