"""Unit tests for the predecessor/successor dependency tracker."""

import pytest

from repro.core.dependency import DependencyTracker, SSTableRef


def ref(number, ino=None):
    return SSTableRef(number=number, ino=ino or number + 1000, path=f"db/{number}.ldb")


@pytest.fixture()
def tracker():
    return DependencyTracker()


def test_register_requires_successors(tracker):
    with pytest.raises(ValueError):
        tracker.register([ref(1)], [])


def test_group_counts(tracker):
    group = tracker.register([ref(1), ref(2)], [ref(3)])
    assert group.p == 2
    assert group.q == 1
    assert tracker.groups_registered == 1


def test_resolve_when_all_successors_committed(tracker):
    tracker.register([ref(1)], [ref(3), ref(4)])
    committed = {1003}
    resolved = tracker.resolve(lambda ino: ino in committed)
    assert resolved == []
    committed.add(1004)
    resolved = tracker.resolve(lambda ino: ino in committed)
    assert len(resolved) == 1
    assert tracker.groups_resolved == 1


def test_reclaim_order_is_consecutive(tracker):
    g1 = tracker.register([ref(1)], [ref(10)])
    g2 = tracker.register([ref(2)], [ref(20)])
    g3 = tracker.register([ref(3)], [ref(30)])
    # only g2 and g3's successors committed: nothing reclaimable yet,
    # because g1 blocks the prefix
    committed = {1020, 1030}
    tracker.resolve(lambda ino: ino in committed)
    assert tracker.reclaimable() == []
    committed.add(1010)
    tracker.resolve(lambda ino: ino in committed)
    ready = tracker.reclaimable()
    assert [g.group_id for g in ready] == [g1.group_id, g2.group_id, g3.group_id]


def test_mark_reclaimed_removes_from_ready(tracker):
    g1 = tracker.register([ref(1)], [ref(10)])
    tracker.resolve(lambda ino: True)
    tracker.mark_reclaimed(g1)
    assert tracker.reclaimable() == []


def test_reclaimed_prefix_is_dropped_in_registration_order(tracker):
    g1 = tracker.register([ref(1)], [ref(10)])
    g2 = tracker.register([ref(2)], [ref(20)])
    committed = {1020}
    tracker.resolve(lambda ino: ino in committed)
    tracker.mark_reclaimed(g2)  # out of order: g1 still blocks it
    assert list(tracker._groups) == [g1.group_id, g2.group_id]
    committed.add(1010)
    tracker.resolve(lambda ino: ino in committed)
    tracker.mark_reclaimed(g1)
    assert tracker._groups == {} and tracker._consumed_by == {}


def test_unresolved_group_marked_reclaimed_is_kept(tracker):
    g1 = tracker.register([ref(1)], [ref(10)])
    tracker.mark_reclaimed(g1)
    assert list(tracker._groups) == [g1.group_id]
    assert tracker.resolve(lambda ino: True) == [g1]


def test_shadow_numbers_until_reclaimed(tracker):
    g1 = tracker.register([ref(1), ref(2)], [ref(10)])
    assert tracker.shadow_numbers() == {1, 2}
    tracker.resolve(lambda ino: True)
    tracker.mark_reclaimed(g1)
    assert tracker.shadow_numbers() == set()


def test_consumed_successor_settles_via_consumer(tracker):
    """A successor re-compacted before committing settles when its
    consuming group resolves (its ino was erased on unlink)."""
    g1 = tracker.register([ref(1)], [ref(10)])
    g2 = tracker.register([ref(10)], [ref(20)])  # 10 consumed by g2
    committed = {1020}  # only g2's successor ever commits
    tracker.resolve(lambda ino: ino in committed)
    assert g2.resolved
    assert g1.resolved  # settled transitively


def test_unresolved_consumer_keeps_producer_unresolved(tracker):
    g1 = tracker.register([ref(1)], [ref(10)])
    g2 = tracker.register([ref(10)], [ref(20)])
    tracker.resolve(lambda ino: False)
    assert not g1.resolved
    assert not g2.resolved


def test_barrier_inos_block_resolution(tracker):
    g1 = tracker.register([ref(1)], [ref(10)], barrier_inos=[555])
    committed = {1010}
    tracker.resolve(lambda ino: ino in committed)
    assert not g1.resolved  # barrier (the manifest inode) not committed
    committed.add(555)
    tracker.resolve(lambda ino: ino in committed)
    assert g1.resolved


def test_settled_cache_survives_table_erasure(tracker):
    """Once observed committed, a successor stays settled even if its
    kernel-table entry is later erased by unlink."""
    g1 = tracker.register([ref(1)], [ref(10)])
    committed = {1010}
    tracker.resolve(lambda ino: ino in committed)
    assert g1.resolved
    committed.clear()  # unlink erased the entry
    assert tracker.resolve(lambda ino: False) == []
    assert g1.resolved


def test_clear_wipes_everything(tracker):
    tracker.register([ref(1)], [ref(10)])
    tracker.clear()
    assert tracker.outstanding_groups() == []
    assert tracker.shadow_numbers() == set()


def test_out_of_order_successor_commits_keep_shadows(tracker):
    """Parallel compactions finish out of order: the later-registered
    group's successors commit first. Its predecessors must stay shadowed
    (reclaim is consecutive) and the earlier group's late commit must
    release both — deletion order never runs ahead of durability."""
    g1 = tracker.register([ref(1)], [ref(10)])
    g2 = tracker.register([ref(2)], [ref(20)])
    committed = {1020}  # g2's successor commits before g1's
    tracker.resolve(lambda ino: ino in committed)
    assert g2.resolved and not g1.resolved
    assert tracker.reclaimable() == []  # g1 blocks the prefix
    assert tracker.shadow_numbers() == {1, 2}
    committed.add(1010)
    tracker.resolve(lambda ino: ino in committed)
    assert [g.group_id for g in tracker.reclaimable()] == [
        g1.group_id,
        g2.group_id,
    ]


def test_out_of_order_consumption_settles_transitively(tracker):
    """A successor consumed by a host-later group that resolves first
    still settles its producer once the consumer resolves — even though
    the file itself never commits (it was compacted away)."""
    g1 = tracker.register([ref(1)], [ref(10)])
    g2 = tracker.register([ref(10)], [ref(20)])  # consumes g1's output
    committed = {1020}
    tracker.resolve(lambda ino: ino in committed)
    # g2 resolved via its committed successor; that settles ref(10) for
    # g1 despite ino 1010 never committing
    assert g2.resolved and g1.resolved
    ready = tracker.reclaimable()
    assert [g.group_id for g in ready] == [g1.group_id, g2.group_id]
