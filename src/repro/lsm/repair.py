"""RepairDB: rebuild a database from whatever files survive.

LevelDB ships a repairer for the worst case — CURRENT or MANIFEST lost
or corrupt. It scans the directory, salvages every intact SSTable,
converts leftover WALs into tables, and writes a fresh MANIFEST placing
all tables at level 0 (point lookups there go newest-file-first, which
preserves LevelDB's best-effort semantics). This module reproduces that
tool on the simulated stack; ``examples``/tests use it to demonstrate
recovery beyond what the store's normal open path handles.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.fs.ext4 import Ext4
from repro.lsm.filenames import (
    log_file_name,
    parse_file_name,
    table_file_name,
)
from repro.lsm.format import CorruptionError, make_internal_key
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.sstable import Table, TableBuilder
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet
from repro.lsm.wal import LogReader


class RepairResult:
    """What the repairer salvaged."""

    def __init__(self) -> None:
        self.tables_salvaged = 0
        self.tables_dropped = 0
        self.logs_converted = 0
        self.records_recovered = 0
        self.last_sequence = 0
        #: WALs whose corrupt/truncated tail was discarded while salvaging
        self.tail_drops = 0

    def __repr__(self) -> str:
        return (
            f"RepairResult(tables={self.tables_salvaged}, "
            f"dropped={self.tables_dropped}, logs={self.logs_converted}, "
            f"records={self.records_recovered}, "
            f"tail_drops={self.tail_drops})"
        )


def repair_db(
    fs: Ext4, dbname: str, options: Optional[Options] = None, at: int = 0
) -> Tuple[RepairResult, int]:
    """Rebuild ``dbname`` from its surviving files; returns (result, t).

    After repair the directory holds a fresh MANIFEST + CURRENT that
    reference every salvaged table at level 0; a normal
    :class:`~repro.lsm.db.DB` open then succeeds.
    """
    options = options if options is not None else Options()
    result = RepairResult()
    t = at

    tables: List[Tuple[int, FileMetaData]] = []
    logs: List[int] = []
    max_number = 1
    for path in list(fs.list_dir(dbname + "/")):
        kind, number = parse_file_name(dbname, path)
        if number is not None:
            max_number = max(max_number, number)
        if kind == "log":
            logs.append(number)
        elif kind == "table":
            # single pass per table: one open yields the metadata *and*
            # the true max sequence (index keys are only a lower bound)
            meta, max_seq, t = _salvage_table(fs, dbname, number, t)
            if meta is None:
                result.tables_dropped += 1
                t = fs.unlink(path, at=t)
            else:
                tables.append((number, meta))
                result.tables_salvaged += 1
                result.last_sequence = max(result.last_sequence, max_seq)
        elif kind in ("manifest", "current", "temp"):
            t = fs.unlink(path, at=t)

    # convert surviving WALs into tables (one per log)
    for number in sorted(logs):
        memtable = MemTable()
        handle, t = fs.open(log_file_name(dbname, number), at=t)
        reader = LogReader(handle)
        for sequence, entries in reader.records(at=t):
            for offset, (value_type, key, value) in enumerate(entries):
                memtable.add(sequence + offset, value_type, key, value)
                result.records_recovered += 1
            result.last_sequence = max(
                result.last_sequence, sequence + len(entries) - 1
            )
        if reader.dropped_tail:
            result.tail_drops += 1
            fs.obs.counter("wal.tail_dropped").inc()
        if not memtable.empty:
            max_number += 1
            meta, t = _build_table_from_memtable(
                fs, dbname, max_number, memtable, options, t
            )
            tables.append((max_number, meta))
            result.logs_converted += 1
        t = fs.unlink(log_file_name(dbname, number), at=t)

    # a fresh manifest with everything at level 0
    versions = VersionSet(fs, dbname, options)
    versions.next_file_number = max_number + 1
    edit = VersionEdit()
    for number, meta in sorted(tables):
        edit.add_file(0, meta)
    versions.last_sequence = result.last_sequence
    t = versions.log_and_apply(edit, t)
    manifest = versions._manifest
    if manifest is not None:
        t = manifest.fsync(at=t, reason="repair")
    return result, t


def _salvage_table(
    fs: Ext4, dbname: str, number: int, at: int
) -> Tuple[Optional[FileMetaData], int, int]:
    """Open a table once; return (meta, max_sequence, t) or (None, 0, t)."""
    path = table_file_name(dbname, number)
    try:
        table, t = Table.open(fs, path, at=at)
        if not table.index_keys:
            return None, 0, t
        smallest, t = table.smallest_key(t)
        max_seq, t = table.max_sequence(t)
        handle, t = fs.open(path, at=t)
        return (
            FileMetaData(
                number=number,
                file_size=handle.size,
                smallest=smallest,
                largest=table.largest_key(),
                ino=handle.ino,
            ),
            max_seq,
            t,
        )
    except CorruptionError:
        return None, 0, at


def _build_table_from_memtable(
    fs: Ext4,
    dbname: str,
    number: int,
    memtable: MemTable,
    options: Options,
    at: int,
) -> Tuple[FileMetaData, int]:
    path = table_file_name(dbname, number)
    builder = TableBuilder(fs, path, options, at, number=number)
    for user_key, sequence, value_type, value in memtable.sorted_entries():
        builder.add(make_internal_key(user_key, sequence, value_type), value)
    size, t = builder.finish(at)
    handle = builder.handle
    t = handle.fdatasync(at=t, reason="repair")
    return (
        FileMetaData(
            number=number,
            file_size=size,
            smallest=builder.smallest,
            largest=builder.largest,
            ino=handle.ino,
        ),
        t,
    )
