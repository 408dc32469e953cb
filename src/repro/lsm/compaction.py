"""Compaction picking and geometry (LevelDB's logic).

- *Size compaction*: the level whose score (bytes / limit, or L0 file
  count / trigger) is highest and >= 1.
- *Seek compaction*: a file that served too many fruitless seeks is sent
  down one level (Section 5.2 of the paper leans on these for the
  readrandom result).
- *Trivial move*: a single input file with no next-level overlap and
  bounded grandparent overlap is moved without rewriting.

Output files are cut at ``max_file_size`` or when they would overlap too
much of level+2 (the grandparent limit), as in LevelDB; that rule and
the snapshot drop rule run inline in the store's one compaction output
loop, ``DB._write_merged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet


@dataclass
class Compaction:
    """A planned compaction from ``level`` into ``level + 1``."""

    level: int
    inputs: List[FileMetaData]  # files at `level`
    overlaps: List[FileMetaData]  # files at `level + 1`
    grandparents: List[FileMetaData] = field(default_factory=list)
    is_seek: bool = False

    @property
    def output_level(self) -> int:
        return self.level + 1

    @property
    def all_inputs(self) -> List[FileMetaData]:
        return self.inputs + self.overlaps

    @property
    def input_bytes(self) -> int:
        return sum(f.file_size for f in self.all_inputs)

    def user_range(self) -> "tuple[Optional[bytes], Optional[bytes]]":
        """Smallest/largest user key across every input file."""
        return _range_of(self.all_inputs)

    def touched_levels(self) -> "frozenset[int]":
        """Levels this compaction reads from or writes to."""
        return frozenset((self.level, self.output_level))

    def is_trivial_move(self, options: Options) -> bool:
        """Move the single input down without rewriting it."""
        if len(self.inputs) != 1 or self.overlaps:
            return False
        grandparent_bytes = sum(f.file_size for f in self.grandparents)
        return grandparent_bytes <= options.grandparent_overlap_limit()

    def make_delete_edit(self) -> VersionEdit:
        edit = VersionEdit()
        for meta in self.inputs:
            edit.delete_file(self.level, meta.number)
        for meta in self.overlaps:
            edit.delete_file(self.output_level, meta.number)
        return edit

    def span_attrs(self) -> "dict[str, object]":
        """Structured attributes for this compaction's observability span."""
        return {
            "level": self.level,
            "output_level": self.output_level,
            "inputs": len(self.inputs),
            "overlaps": len(self.overlaps),
            "input_bytes": self.input_bytes,
            "seek": self.is_seek,
        }


def _range_of(files: List[FileMetaData]) -> "tuple[Optional[bytes], Optional[bytes]]":
    if not files:
        return None, None
    smallest = min(f.smallest for f in files)
    largest = max(f.largest for f in files)
    return smallest[:-8], largest[:-8]


def pick_size_compaction(
    versions: VersionSet, options: Options, level: Optional[int] = None
) -> Optional[Compaction]:
    """LevelDB's PickCompaction for the highest-scoring level.

    Passing ``level`` picks at that specific level instead of the score
    winner — the parallel scheduler uses this to try the second-best
    level when the best one conflicts with an in-flight compaction.
    """
    if level is None:
        level, score = versions.pick_compaction_level()
    if level is None:
        return None
    version = versions.current
    pointer = versions.compact_pointer.get(level)
    inputs: List[FileMetaData] = []
    for meta in version.files[level]:
        if pointer is None or meta.largest[:-8] > pointer:
            inputs.append(meta)
            break
    if not inputs:
        files = version.files[level]
        if not files:
            return None
        inputs = [files[0]]
    if level == 0:
        begin, end = _range_of(inputs)
        inputs = version.overlapping_inputs(0, begin, end)
    return _setup_other_inputs(versions, options, level, inputs)


def pick_seek_compaction(
    versions: VersionSet,
    options: Options,
    level: int,
    meta: FileMetaData,
) -> Optional[Compaction]:
    """Compact one over-seeked file into the next level."""
    if level >= options.num_levels - 1:
        return None
    if meta.number not in {f.number for f in versions.current.files[level]}:
        return None  # the file was compacted away in the meantime
    inputs = [meta]
    if level == 0:
        # level-0 files overlap: every overlapping sibling must move
        # together or an older version could end up above a newer one
        begin, end = meta.user_range()
        inputs = versions.current.overlapping_inputs(0, begin, end)
    compaction = _setup_other_inputs(versions, options, level, inputs)
    if compaction is not None:
        compaction.is_seek = True
    return compaction


def _setup_other_inputs(
    versions: VersionSet,
    options: Options,
    level: int,
    inputs: List[FileMetaData],
) -> Optional[Compaction]:
    version = versions.current
    begin, end = _range_of(inputs)
    overlaps = version.overlapping_inputs(level + 1, begin, end)

    # Try to grow the level-`level` input set without changing the
    # level+1 inputs (LevelDB's expansion rule), bounded in size.
    all_begin, all_end = _range_of(inputs + overlaps)
    expanded = version.overlapping_inputs(level, all_begin, all_end)
    if len(expanded) > len(inputs):
        inputs_size = sum(f.file_size for f in inputs)
        expanded_size = sum(f.file_size for f in expanded)
        overlap_size = sum(f.file_size for f in overlaps)
        if (
            expanded_size + overlap_size
            < options.expanded_compaction_limit()
        ):
            new_begin, new_end = _range_of(expanded)
            new_overlaps = version.overlapping_inputs(
                level + 1, new_begin, new_end
            )
            if len(new_overlaps) == len(overlaps):
                inputs = expanded
                begin, end = new_begin, new_end

    grandparents: List[FileMetaData] = []
    if level + 2 < options.num_levels:
        gp_begin, gp_end = _range_of(inputs + overlaps)
        grandparents = version.overlapping_inputs(level + 2, gp_begin, gp_end)

    compaction = Compaction(
        level=level,
        inputs=inputs,
        overlaps=overlaps,
        grandparents=grandparents,
    )
    # Remember where to start next time at this level (round-robin).
    if inputs:
        versions.compact_pointer[level] = max(
            f.largest[:-8] for f in inputs
        )
    return compaction


def ranges_overlap(
    a_begin: Optional[bytes],
    a_end: Optional[bytes],
    b_begin: Optional[bytes],
    b_end: Optional[bytes],
) -> bool:
    """Do two inclusive user-key ranges intersect? ``None`` = unbounded."""
    if a_end is not None and b_begin is not None and a_end < b_begin:
        return False
    if b_end is not None and a_begin is not None and b_end < a_begin:
        return False
    return True


@dataclass
class InflightJob:
    """One background job whose virtual-time span is still open."""

    levels: "frozenset[int]"
    begin: Optional[bytes]
    end: Optional[bytes]
    done: int


class CompactionSchedule:
    """In-flight spans of concurrent background compactions.

    With several background threads, jobs execute host-sequentially but
    their *virtual* spans overlap. Two compactions may overlap in
    virtual time only when they are disjoint — different levels or
    non-intersecting key ranges — because an overlapping pair would have
    one job consuming (or deleting) SSTables the other is still writing
    at that virtual moment. A major compaction's outputs always fall
    inside its input key range, so "shared level AND intersecting range"
    is exactly the hazard predicate.

    The schedule answers one question at pick time: *may this compaction
    start at time* ``at``? If not, :meth:`clearance` returns the virtual
    time at which every conflicting in-flight job has completed — the
    scheduler re-submits the job as ready at that time instead of
    dropping it.
    """

    def __init__(self) -> None:
        self._jobs: List[InflightJob] = []
        #: jobs whose dispatch was pushed past a conflicting in-flight
        #: span (the stall detector labels these ``major_deferred``)
        self.deferrals = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def note_deferral(self) -> None:
        self.deferrals += 1

    def prune(self, at: int) -> None:
        """Forget jobs whose spans closed at or before ``at``."""
        self._jobs = [job for job in self._jobs if job.done > at]

    def add(
        self,
        levels: "frozenset[int]",
        begin: Optional[bytes],
        end: Optional[bytes],
        done: int,
    ) -> None:
        """Record one executed job's span (call with its completion)."""
        self._jobs.append(InflightJob(levels, begin, end, done))

    def clearance(
        self,
        levels: "frozenset[int]",
        begin: Optional[bytes],
        end: Optional[bytes],
        at: int,
    ) -> Optional[int]:
        """Earliest conflict-free start for a job, or ``None`` if ``at`` is.

        A conflict is an in-flight job, still open at ``at``, that shares
        a level and intersects the key range. The returned time is the
        max completion over all conflicting jobs — starting there, the
        job observes every conflicting predecessor as finished.
        """
        clearance = None
        for job in self._jobs:
            if job.done <= at:
                continue
            if not (job.levels & levels):
                continue
            if not ranges_overlap(job.begin, job.end, begin, end):
                continue
            clearance = job.done if clearance is None else max(clearance, job.done)
        return clearance
