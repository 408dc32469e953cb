"""The global predecessor/successor sets (Section 4.1).

Every major compaction that produced ``q`` new SSTables from ``p`` old
ones registers a *dependency group*: the ``p`` predecessors may be
deleted only once all ``q`` successors are durable. Because Ext4 commits
asynchronously, many groups can be outstanding at once; the tracker
accumulates them globally, exactly as the paper's pair of sets does.

One subtlety the paper leaves implicit: a successor can itself be
compacted again *before* its transaction commits. Its file will then be
unlinked once the newer group resolves — at which point its table entry
is erased and ``is_committed`` can never become true. The tracker
therefore treats a successor as *settled* when it is either committed or
consumed by a later group that has itself resolved; crash consistency is
preserved because the consuming group retains it until its own
successors are durable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set


@dataclass
class SSTableRef:
    """Identity of one SSTable file inside the tracker."""

    number: int
    ino: int
    path: str


@dataclass
class DependencyGroup:
    """One p-to-q mapping from a major compaction."""

    group_id: int
    predecessors: List[SSTableRef]
    successors: List[SSTableRef]
    #: non-file inodes that must also commit before the group resolves —
    #: NobLSM tracks the MANIFEST inode here so predecessors are never
    #: deleted before the version edit that removes them is durable
    barrier_inos: List[int] = field(default_factory=list)
    resolved: bool = False
    reclaimed: bool = False
    #: successor inos already observed committed
    settled_inos: Set[int] = field(default_factory=set)

    @property
    def p(self) -> int:
        return len(self.predecessors)

    @property
    def q(self) -> int:
        return len(self.successors)


class DependencyTracker:
    """Global pair of sets plus the p-to-q mappings between them."""

    def __init__(self) -> None:
        #: registration order; the reclaimed prefix is dropped (see
        #: :meth:`mark_reclaimed`)
        self._groups: Dict[int, DependencyGroup] = {}
        self._ids = itertools.count(1)
        #: file number -> group that *consumed* it (file is a predecessor)
        self._consumed_by: Dict[int, int] = {}
        self.groups_registered = 0
        self.groups_resolved = 0

    # ------------------------------------------------------------------

    def register(
        self,
        predecessors: List[SSTableRef],
        successors: List[SSTableRef],
        barrier_inos: Optional[List[int]] = None,
    ) -> DependencyGroup:
        """Record a new p-to-q dependency from a finished compaction."""
        if not successors:
            raise ValueError("a dependency group needs at least one successor")
        group = DependencyGroup(
            group_id=next(self._ids),
            predecessors=list(predecessors),
            successors=list(successors),
            barrier_inos=list(barrier_inos or []),
        )
        self._groups[group.group_id] = group
        for ref in predecessors:
            self._consumed_by[ref.number] = group.group_id
        self.groups_registered += 1
        return group

    def outstanding_groups(self) -> List[DependencyGroup]:
        return [g for g in self._groups.values() if not g.reclaimed]

    def unresolved_groups(self) -> List[DependencyGroup]:
        return [g for g in self._groups.values() if not g.resolved]

    def shadow_numbers(self) -> Set[int]:
        """File numbers of retained (not yet reclaimed) predecessors."""
        shadows: Set[int] = set()
        for group in self._groups.values():
            if not group.reclaimed:
                shadows.update(ref.number for ref in group.predecessors)
        return shadows

    # ------------------------------------------------------------------

    def _successor_settled(
        self,
        ref: SSTableRef,
        group: DependencyGroup,
        committed: Callable[[int], bool],
    ) -> bool:
        if ref.ino in group.settled_inos:
            return True
        if committed(ref.ino):
            group.settled_inos.add(ref.ino)
            return True
        consumer_id = self._consumed_by.get(ref.number)
        if consumer_id is not None:
            consumer = self._groups[consumer_id]
            if consumer.resolved:
                group.settled_inos.add(ref.ino)
                return True
        return False

    def resolve(
        self, committed: Callable[[int], bool]
    ) -> List[DependencyGroup]:
        """Mark groups whose successors are all settled; return them.

        ``committed`` is the ``is_committed`` syscall (or any oracle in
        tests). Resolution iterates to a fixed point because settling one
        group can transitively settle groups whose successors it consumed.
        """
        newly_resolved: List[DependencyGroup] = []
        progress = True
        while progress:
            progress = False
            for group in self._groups.values():
                if group.resolved:
                    continue
                if not all(committed(ino) for ino in group.barrier_inos):
                    continue
                if all(
                    self._successor_settled(ref, group, committed)
                    for ref in group.successors
                ):
                    group.resolved = True
                    self.groups_resolved += 1
                    newly_resolved.append(group)
                    progress = True
        return newly_resolved

    def reclaimable(self) -> List[DependencyGroup]:
        """Groups whose predecessors may be deleted now — *consecutively*.

        Deletion proceeds in registration order and stops at the first
        unresolved group (the paper: NobLSM "needs a structure to
        consecutively delete obsolete SSTables"). In-order deletion is
        what makes crash recovery sound: a durably deleted predecessor
        implies every earlier compaction's outputs were already durable,
        so the recovered MANIFEST can never be rolled back past a state
        that references a deleted file.
        """
        ready: List[DependencyGroup] = []
        for group in self._groups.values():
            if not group.resolved:
                break
            if not group.reclaimed:
                ready.append(group)
        return ready

    def mark_reclaimed(self, group: DependencyGroup) -> None:
        """A resolved group's predecessors are deleted; drop what nobody
        can consult any more.

        A group is consulted only by an *earlier* group whose successor it
        consumed (:meth:`_successor_settled` reads its ``resolved``). So
        the longest prefix of resolved, reclaimed groups is dropped, with
        its ``_consumed_by`` entries: every group that could consult one
        of them is in the prefix and already resolved. A group reclaimed
        out of order stays until every group before it is gone.
        """
        group.reclaimed = True
        groups = self._groups
        while groups:
            first = next(iter(groups.values()))
            if not (first.reclaimed and first.resolved):
                break
            del groups[first.group_id]
            for ref in first.predecessors:
                self._consumed_by.pop(ref.number, None)

    def clear(self) -> None:
        """Crash: the user-space sets are volatile."""
        self._groups.clear()
        self._consumed_by.clear()
