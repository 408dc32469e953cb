"""Versions, version edits and the MANIFEST.

A :class:`Version` is an immutable snapshot of which SSTable files make
up each level. Compactions produce :class:`VersionEdit` deltas which the
:class:`VersionSet` logs to the MANIFEST file and applies to produce the
next current version — exactly LevelDB's scheme. The MANIFEST append is
what makes a compaction's outcome durable; whether it is *synced* or left
to Ext4's asynchronous commit is the difference between LevelDB and
NobLSM.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.fs.ext4 import Ext4, File
from repro.lsm.filenames import current_file_name, manifest_file_name
from repro.lsm.format import (
    CorruptionError,
    crc32,
    get_fixed32,
    get_length_prefixed,
    get_varint,
    put_fixed32,
    put_length_prefixed,
    put_varint,
)
from repro.lsm.options import Options

# VersionEdit field tags (subset of LevelDB's)
_TAG_LOG_NUMBER = 2
_TAG_NEXT_FILE = 3
_TAG_LAST_SEQ = 4
_TAG_COMPACT_POINTER = 5
_TAG_DELETED_FILE = 6
_TAG_NEW_FILE = 7


@dataclass
class FileMetaData:
    """One SSTable file in some level."""

    number: int
    file_size: int
    smallest: bytes  # internal key
    largest: bytes  # internal key
    ino: int = -1  # simulated inode, used by NobLSM's check_commit
    allowed_seeks: int = 100
    shadow: bool = False  # NobLSM: compacted, retained as backup only

    def user_range(self) -> Tuple[bytes, bytes]:
        return self.smallest[:-8], self.largest[:-8]


@dataclass
class VersionEdit:
    """A delta between two versions."""

    log_number: Optional[int] = None
    next_file_number: Optional[int] = None
    last_sequence: Optional[int] = None
    compact_pointers: List[Tuple[int, bytes]] = field(default_factory=list)
    deleted_files: List[Tuple[int, int]] = field(default_factory=list)
    new_files: List[Tuple[int, FileMetaData]] = field(default_factory=list)

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self.new_files.append((level, meta))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted_files.append((level, number))

    def encode(self) -> bytes:
        parts: List[bytes] = []
        if self.log_number is not None:
            parts.append(put_varint(_TAG_LOG_NUMBER))
            parts.append(put_varint(self.log_number))
        if self.next_file_number is not None:
            parts.append(put_varint(_TAG_NEXT_FILE))
            parts.append(put_varint(self.next_file_number))
        if self.last_sequence is not None:
            parts.append(put_varint(_TAG_LAST_SEQ))
            parts.append(put_varint(self.last_sequence))
        for level, key in self.compact_pointers:
            parts.append(put_varint(_TAG_COMPACT_POINTER))
            parts.append(put_varint(level))
            parts.append(put_length_prefixed(key))
        for level, number in self.deleted_files:
            parts.append(put_varint(_TAG_DELETED_FILE))
            parts.append(put_varint(level))
            parts.append(put_varint(number))
        for level, meta in self.new_files:
            parts.append(put_varint(_TAG_NEW_FILE))
            parts.append(put_varint(level))
            parts.append(put_varint(meta.number))
            parts.append(put_varint(meta.file_size))
            parts.append(put_length_prefixed(meta.smallest))
            parts.append(put_length_prefixed(meta.largest))
            parts.append(put_varint(max(meta.ino, 0)))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "VersionEdit":
        edit = cls()
        pos = 0
        while pos < len(data):
            tag, pos = get_varint(data, pos)
            if tag == _TAG_LOG_NUMBER:
                edit.log_number, pos = get_varint(data, pos)
            elif tag == _TAG_NEXT_FILE:
                edit.next_file_number, pos = get_varint(data, pos)
            elif tag == _TAG_LAST_SEQ:
                edit.last_sequence, pos = get_varint(data, pos)
            elif tag == _TAG_COMPACT_POINTER:
                level, pos = get_varint(data, pos)
                key, pos = get_length_prefixed(data, pos)
                edit.compact_pointers.append((level, key))
            elif tag == _TAG_DELETED_FILE:
                level, pos = get_varint(data, pos)
                number, pos = get_varint(data, pos)
                edit.deleted_files.append((level, number))
            elif tag == _TAG_NEW_FILE:
                level, pos = get_varint(data, pos)
                number, pos = get_varint(data, pos)
                size, pos = get_varint(data, pos)
                smallest, pos = get_length_prefixed(data, pos)
                largest, pos = get_length_prefixed(data, pos)
                ino, pos = get_varint(data, pos)
                edit.new_files.append(
                    (level, FileMetaData(number, size, smallest, largest, ino))
                )
            else:
                raise CorruptionError(f"unknown version-edit tag {tag}")
        return edit


class Version:
    """Immutable per-level file lists. Levels >= 1 are sorted, disjoint.

    A version is filled in once (``VersionSet._apply``, or a test
    assigning ``files``) and never changed after it is installed, so what
    every ``get`` and background poll derives from the file lists —
    per-level byte totals, per-level arrays of largest user keys, the
    compaction scores with their winner (LevelDB's ``Finalize``) — is
    computed on first use and kept. The level-0 score counts non-shadow
    files, so it relies on ``FileMetaData.shadow`` never flipping on a
    file of the current version: NobLSM's ``_dispose_inputs`` marks a
    compaction's inputs only after ``log_and_apply`` removed them.
    """

    def __init__(self, num_levels: int) -> None:
        self.files: List[List[FileMetaData]] = [[] for _ in range(num_levels)]
        self._level_bytes: Optional[List[int]] = None
        self._largest_users: Optional[List[List[bytes]]] = None
        #: (scores per level, (best level or None, its score)), VersionSet's
        self._pick: Optional[Tuple[List[float], Tuple[Optional[int], float]]] = None

    def level_bytes(self, level: int) -> int:
        totals = self._level_bytes
        if totals is None:
            totals = self._level_bytes = [
                sum(f.file_size for f in files) for files in self.files
            ]
        return totals[level]

    def num_files(self, level: int) -> int:
        return len(self.files[level])

    def all_file_numbers(self) -> List[int]:
        return [f.number for level in self.files for f in level]

    def overlapping_inputs(
        self, level: int, begin: Optional[bytes], end: Optional[bytes]
    ) -> List[FileMetaData]:
        """Files in ``level`` whose user-key range intersects [begin, end].

        For level 0 (overlapping files), the range is expanded until it is
        stable, as LevelDB does.
        """
        inputs: List[FileMetaData] = []
        user_begin, user_end = begin, end
        i = 0
        files = self.files[level]
        while i < len(files):
            f = files[i]
            f_begin, f_end = f.user_range()
            i += 1
            if user_end is not None and f_begin > user_end:
                continue
            if user_begin is not None and f_end < user_begin:
                continue
            inputs.append(f)
            if level == 0:
                if user_begin is not None and f_begin < user_begin:
                    user_begin = f_begin
                    inputs = []
                    i = 0
                elif user_end is not None and f_end > user_end:
                    user_end = f_end
                    inputs = []
                    i = 0
        return inputs

    def pick_level_for_memtable_output(
        self, smallest_user: bytes, largest_user: bytes, options: Options
    ) -> int:
        """Push a new L0 table deeper when nothing overlaps (LevelDB)."""
        level = 0
        if not self._overlaps(0, smallest_user, largest_user):
            max_level = min(2, options.num_levels - 2)
            while level < max_level:
                if self._overlaps(level + 1, smallest_user, largest_user):
                    break
                overlaps = self.overlapping_inputs(
                    level + 2, smallest_user, largest_user
                ) if level + 2 < len(self.files) else []
                if sum(f.file_size for f in overlaps) > (
                    options.grandparent_overlap_limit()
                ):
                    break
                level += 1
        return level

    def _overlaps(self, level: int, begin: bytes, end: bytes) -> bool:
        return bool(self.overlapping_inputs(level, begin, end))

    def files_for_get(self, user_key: bytes) -> List[Tuple[int, FileMetaData]]:
        """Files that may hold ``user_key``, in LevelDB search order.

        Level-0 files newest-first, then one candidate per deeper level.
        Shadow files are skipped — they no longer serve reads
        (Section 4.3 of the paper).
        """
        candidates: List[Tuple[int, FileMetaData]] = []
        level0 = [
            f
            for f in self.files[0]
            if not f.shadow
            and f.smallest[:-8] <= user_key <= f.largest[:-8]
        ]
        level0.sort(key=lambda f: f.number, reverse=True)
        candidates.extend((0, f) for f in level0)
        largest_users = self._largest_users
        if largest_users is None:
            largest_users = self._largest_users = [
                [f.largest[:-8] for f in files] for files in self.files
            ]
        for level in range(1, len(self.files)):
            files = self.files[level]
            if not files:
                continue
            pos = bisect.bisect_left(largest_users[level], user_key)
            if pos < len(files):
                f = files[pos]
                if not f.shadow and f.smallest[:-8] <= user_key:
                    candidates.append((level, f))
        return candidates

    def clone(self) -> "Version":
        copy = Version(len(self.files))
        for level, files in enumerate(self.files):
            copy.files[level] = list(files)
        return copy


class VersionSet:
    """Tracks the current version and logs edits to the MANIFEST."""

    def __init__(self, fs: Ext4, dbname: str, options: Options) -> None:
        self.fs = fs
        self.dbname = dbname
        self.options = options
        self.current = Version(options.num_levels)
        self.next_file_number = 2
        self.last_sequence = 0
        self.log_number = 0
        self.manifest_file_number = 1
        self.compact_pointer: Dict[int, bytes] = {}
        self._manifest: Optional[File] = None
        self.manifest_writes = 0
        #: recovery hook: returns False for a referenced file that did not
        #: survive the crash (NobLSM's async-committed successors)
        self.validate_new_file: Optional[Callable[[FileMetaData], bool]] = None
        self.skipped_edits = 0
        #: called after every LogAndApply install (the store's pressure
        #: telemetry, when observing)
        self.on_install: Optional[Callable[[], None]] = None
        #: byte limit per level (L0 scores by file count)
        self._level_limits = [0.0] + [
            options.max_bytes_for_level(level)
            for level in range(1, options.num_levels)
        ]

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    def reuse_file_number(self, number: int) -> None:
        if number == self.next_file_number - 1:
            self.next_file_number = number

    # ------------------------------------------------------------------
    # manifest persistence
    # ------------------------------------------------------------------

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return put_fixed32(crc32(payload)) + put_fixed32(len(payload)) + payload

    def create_manifest(self, at: int) -> int:
        """Write a fresh MANIFEST holding a full snapshot, point CURRENT."""
        number = self.new_file_number()
        self.manifest_file_number = number
        path = manifest_file_name(self.dbname, number)
        handle, t = self.fs.create(path, at=at)
        self._manifest = handle
        snapshot = VersionEdit(
            log_number=self.log_number,
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
        )
        for level, files in enumerate(self.current.files):
            for meta in files:
                snapshot.add_file(level, meta)
        for level, key in self.compact_pointer.items():
            snapshot.compact_pointers.append((level, key))
        t = handle.append(self._frame(snapshot.encode()), at=t)
        t = self._set_current(number, t)
        return t

    def _set_current(self, manifest_number: int, at: int) -> int:
        tmp_path = f"{self.dbname}/CURRENT.dbtmp"
        if self.fs.exists(tmp_path):
            self.fs.unlink(tmp_path, at=at)
        tmp, t = self.fs.create(tmp_path, at=at)
        t = tmp.append(
            f"MANIFEST-{manifest_number:06d}\n".encode(), at=t
        )
        if self.options.sync.sync_manifest:
            t = tmp.fsync(at=t, reason="current")
        current = current_file_name(self.dbname)
        if self.fs.exists(current):
            self.fs.unlink(current, at=t)
        return self.fs.rename(tmp_path, current, at=t)

    def log_and_apply(self, edit: VersionEdit, at: int) -> int:
        """LevelDB's LogAndApply: persist the edit, install the version."""
        if edit.log_number is None:
            edit.log_number = self.log_number
        else:
            self.log_number = edit.log_number
        edit.next_file_number = self.next_file_number
        edit.last_sequence = self.last_sequence
        t = at
        if self._manifest is None:
            t = self.create_manifest(t)
        for level, key in edit.compact_pointers:
            self.compact_pointer[level] = key
        t = self._manifest.append(self._frame(edit.encode()), at=t)
        if self.options.sync.sync_manifest:
            t = self._manifest.fsync(at=t, reason="manifest")
        self.manifest_writes += 1
        self.current = self._apply(self.current, edit)
        if self.on_install is not None:
            self.on_install()
        return t

    def _apply(self, base: Version, edit: VersionEdit) -> Version:
        version = base.clone()
        for level, number in edit.deleted_files:
            version.files[level] = [
                f for f in version.files[level] if f.number != number
            ]
        for level, meta in edit.new_files:
            version.files[level].append(meta)
            if level > 0:
                version.files[level].sort(key=lambda f: f.smallest)
            else:
                version.files[level].sort(key=lambda f: f.number)
        return version

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self, at: int) -> int:
        """Rebuild state from CURRENT + MANIFEST after open/crash."""
        current_path = current_file_name(self.dbname)
        handle, t = self.fs.open(current_path, at=at)
        name, t2 = handle.read(0, handle.size, at=t)
        t = t2
        manifest_name = name.decode().strip()
        manifest_path = f"{self.dbname}/{manifest_name}"
        manifest, t = self.fs.open(manifest_path, at=t)
        self.manifest_file_number = int(manifest_name.split("-")[1])
        # First pass: decode every intact record.
        edits: List[VersionEdit] = []
        offset = 0
        size = manifest.size
        while offset + 8 <= size:
            header, t = manifest.read(offset, 8, at=t)
            expected = get_fixed32(header, 0)
            length = get_fixed32(header, 4)
            if offset + 8 + length > size:
                break  # torn tail: ignore, like LevelDB's reader
            payload, t = manifest.read(offset + 8, length, at=t)
            if crc32(payload) != expected:
                break
            edits.append(VersionEdit.decode(payload))
            offset += 8 + length

        # A file deleted by some later edit was *consumed* by a further
        # compaction; NobLSM only deletes consumed files after their
        # successors committed, so absence from disk is expected and not
        # a sign of a lost compaction.
        deleted_later: "set[int]" = set()
        for edit in edits:
            deleted_later.update(number for _, number in edit.deleted_files)

        # Second pass: apply, rolling back edits whose outputs were lost.
        version = Version(self.options.num_levels)
        invalid_numbers: "set[int]" = set()
        for edit in edits:
            # scalar metadata is always safe to absorb
            if edit.log_number is not None:
                self.log_number = edit.log_number
            if edit.next_file_number is not None:
                self.next_file_number = edit.next_file_number
            if edit.last_sequence is not None:
                self.last_sequence = edit.last_sequence
            for level, key in edit.compact_pointers:
                self.compact_pointer[level] = key
            if self._edit_invalid(edit, invalid_numbers, deleted_later):
                # This compaction's outputs did not survive the crash (or
                # it consumed outputs that didn't): skip it, keeping its
                # inputs live — they were retained on disk exactly for
                # this fallback (NobLSM Section 4.4).
                invalid_numbers.update(
                    meta.number for _, meta in edit.new_files
                )
                self.skipped_edits += 1
                continue
            version = self._apply(version, edit)
        self.current = version
        # the recovered manifest's own number was allocated before some
        # of the edits recorded next_file_number (MarkFileNumberUsed)
        self.next_file_number = max(
            self.next_file_number, self.manifest_file_number + 1, self.log_number + 1
        )
        # LevelDB starts a fresh MANIFEST (full snapshot) on open rather
        # than appending to the recovered one; the old manifest becomes
        # obsolete once CURRENT points at the new file.
        self._manifest = None
        t = self.create_manifest(t)
        return t

    def _edit_invalid(
        self,
        edit: VersionEdit,
        invalid_numbers: "set[int]",
        deleted_later: "set[int]",
    ) -> bool:
        """True when a recovered edit must be rolled back.

        An edit is invalid if any SSTable it adds fails validation (and
        was not legitimately consumed by a later edit), or — cascading —
        if it consumed a file added by an earlier invalid edit: its
        outputs were derived from data that never became durable, and
        applying it would let the restored inputs of the earlier edit
        shadow newer versions.
        """
        if self.validate_new_file is None:
            return False
        if any(number in invalid_numbers for _, number in edit.deleted_files):
            return True
        return any(
            meta.number not in deleted_later
            and not self.validate_new_file(meta)
            for _, meta in edit.new_files
        )

    def _finalize(self) -> Tuple[List[float], Tuple[Optional[int], float]]:
        """The current version's scores and pick, computed once."""
        version = self.current
        if version._pick is None:
            live_l0 = sum(1 for f in version.files[0] if not f.shadow)
            scores = [live_l0 / float(self.options.l0_compaction_trigger)]
            for level in range(1, self.options.num_levels):
                scores.append(version.level_bytes(level) / self._level_limits[level])
            best_level, best_score = None, 0.999999
            for level in range(0, self.options.num_levels - 1):
                if scores[level] > best_score:
                    best_level, best_score = level, scores[level]
            version._pick = (scores, (best_level, best_score))
        return version._pick

    def level_score(self, level: int) -> float:
        """LevelDB's compaction score (>= 1.0 means 'needs compaction')."""
        return self._finalize()[0][level]

    def pick_compaction_level(self) -> Tuple[Optional[int], float]:
        """The level with the highest score, if any reaches 1.0."""
        return self._finalize()[1]
