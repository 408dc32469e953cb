"""Property tests for the dependency tracker's invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependency import DependencyTracker, SSTableRef


def ref(number):
    return SSTableRef(number=number, ino=number + 10_000, path=f"db/{number}.ldb")


chains = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),  # p
        st.integers(min_value=1, max_value=4),  # q
    ),
    min_size=1,
    max_size=12,
)


def build_chain(tracker, shape):
    """Register groups where each group consumes the previous one's
    successors (plus fresh files), mimicking compaction lineages."""
    groups = []
    next_number = 1
    available = []
    for p, q in shape:
        predecessors = []
        for _ in range(p):
            if available:
                predecessors.append(available.pop())
            else:
                predecessors.append(ref(next_number))
                next_number += 1
        successors = []
        for _ in range(q):
            successors.append(ref(next_number))
            next_number += 1
        groups.append(tracker.register(predecessors, successors))
        available.extend(successors)
    return groups


@settings(max_examples=100, deadline=None)
@given(shape=chains, committed_fraction=st.floats(min_value=0, max_value=1))
def test_reclaimable_is_always_a_resolved_prefix(shape, committed_fraction):
    tracker = DependencyTracker()
    groups = build_chain(tracker, shape)
    # commit an arbitrary subset of inos
    all_inos = {
        r.ino for g in groups for r in g.successors
    }
    committed = {
        ino for ino in all_inos if (ino * 2654435761) % 1000 < committed_fraction * 1000
    }
    tracker.resolve(lambda ino: ino in committed)
    ready = tracker.reclaimable()
    # invariant 1: everything reclaimable is resolved
    assert all(g.resolved for g in ready)
    # invariant 2: reclaimable groups form a prefix in registration order
    ready_ids = [g.group_id for g in ready]
    all_ids = sorted(g.group_id for g in groups)
    assert ready_ids == all_ids[: len(ready_ids)]
    # invariant 3: any group after an unresolved one is not reclaimable
    unresolved = [g.group_id for g in groups if not g.resolved]
    if unresolved:
        first_unresolved = min(unresolved)
        assert all(gid < first_unresolved for gid in ready_ids)


@settings(max_examples=100, deadline=None)
@given(shape=chains)
def test_resolution_is_monotone(shape):
    """Once resolved, a group stays resolved even if entries vanish."""
    tracker = DependencyTracker()
    groups = build_chain(tracker, shape)
    all_inos = [r.ino for g in groups for r in g.successors]
    committed = set()
    resolved_so_far = set()
    for ino in all_inos:
        committed.add(ino)
        tracker.resolve(lambda i: i in committed)
        now_resolved = {g.group_id for g in groups if g.resolved}
        assert resolved_so_far <= now_resolved  # never un-resolves
        resolved_so_far = now_resolved
    # everything commits eventually -> everything resolves
    assert resolved_so_far == {g.group_id for g in groups}


@settings(max_examples=50, deadline=None)
@given(shape=chains)
def test_shadow_numbers_shrink_only_by_reclaim(shape):
    tracker = DependencyTracker()
    groups = build_chain(tracker, shape)
    before = tracker.shadow_numbers()
    tracker.resolve(lambda ino: True)
    assert tracker.shadow_numbers() == before  # resolve alone frees nothing
    for group in tracker.reclaimable():
        tracker.mark_reclaimed(group)
    after = tracker.shadow_numbers()
    assert after <= before
    assert after == set()  # all resolved -> all reclaimed


class KeepAllTracker(DependencyTracker):
    """Reference: reclaimed groups stay in the map forever."""

    def mark_reclaimed(self, group):
        group.reclaimed = True


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("register"),
            st.integers(min_value=0, max_value=3),  # p
            st.integers(min_value=1, max_value=3),  # q
            st.booleans(),  # with a barrier ino
        ),
        st.tuples(st.just("commit"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("resolve")),
        st.tuples(st.just("reclaim_ready")),
        st.tuples(st.just("reclaim_any"), st.integers(min_value=0, max_value=999)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(steps=ops)
def test_pruning_tracker_answers_like_one_that_never_prunes(steps):
    """Dropping the reclaimed prefix changes no answer and no oracle call.

    Files are consumed only after they were produced, as compactions
    do; resolved groups are reclaimed both as NobLSM does it (the ready
    prefix) and out of order. ``resolve`` must also ask the oracle the same
    questions in the same order: every call is an ``is_committed``
    syscall whose cost lands on the virtual clock.
    """
    pruning, reference = DependencyTracker(), KeepAllTracker()
    numbers = itertools.count(1)
    available = []  # produced, not yet consumed
    inos = []  # every successor / barrier ino, for commits to pick from
    committed = set()
    for step in steps:
        kind = step[0]
        if kind == "register":
            _, p, q, barrier = step
            predecessors = [available.pop(0) for _ in range(min(p, len(available)))]
            successors = [ref(next(numbers)) for _ in range(q)]
            barrier_inos = [90_000 + len(inos)] if barrier else []
            for tracker in (pruning, reference):
                tracker.register(predecessors, successors, barrier_inos)
            available.extend(successors)
            inos.extend(r.ino for r in successors)
            inos.extend(barrier_inos)
        elif kind == "commit" and inos:
            committed.add(inos[step[1] % len(inos)])
        elif kind == "resolve":
            answers, asked = [], []
            for tracker in (pruning, reference):
                log = []

                def oracle(ino, log=log):
                    log.append(ino)
                    return ino in committed

                answers.append([g.group_id for g in tracker.resolve(oracle)])
                asked.append(log)
            assert answers[0] == answers[1]
            assert asked[0] == asked[1]
        elif kind == "reclaim_ready":
            ready = [g.group_id for g in pruning.reclaimable()]
            assert ready == [g.group_id for g in reference.reclaimable()]
            for tracker in (pruning, reference):
                for group in tracker.reclaimable():
                    tracker.mark_reclaimed(group)
        elif kind == "reclaim_any":
            candidates = [
                g.group_id
                for g in reference._groups.values()
                if g.resolved and not g.reclaimed
            ]
            if candidates:
                gid = candidates[step[1] % len(candidates)]
                pruning.mark_reclaimed(pruning._groups[gid])
                reference.mark_reclaimed(reference._groups[gid])
        assert [g.group_id for g in pruning.reclaimable()] == [
            g.group_id for g in reference.reclaimable()
        ]
        assert pruning.shadow_numbers() == reference.shadow_numbers()
        assert [g.group_id for g in pruning.unresolved_groups()] == [
            g.group_id for g in reference.unresolved_groups()
        ]
        # what is left is exactly the reference minus a reclaimed prefix
        kept = list(pruning._groups)
        all_ids = list(reference._groups)
        assert kept == all_ids[len(all_ids) - len(kept):]
        dropped = all_ids[: len(all_ids) - len(kept)]
        assert all(
            reference._groups[gid].reclaimed and reference._groups[gid].resolved
            for gid in dropped
        )
        assert not kept or not (
            pruning._groups[kept[0]].reclaimed and pruning._groups[kept[0]].resolved
        )
