"""Unit tests for compaction picking and output geometry."""

import pytest

from repro.fs.stack import StorageStack
from repro.lsm.compaction import (
    Compaction,
    pick_seek_compaction,
    pick_size_compaction,
)
from repro.lsm.db import DB
from repro.lsm.format import TYPE_VALUE, make_internal_key
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, Version, VersionSet


def ikey(user, seq=10):
    return make_internal_key(user, seq, TYPE_VALUE)


def meta(number, lo, hi, size=1000):
    return FileMetaData(
        number=number, file_size=size, smallest=ikey(lo), largest=ikey(hi)
    )


def make_versions(stack, options=None):
    return VersionSet(stack.fs, "db", options or Options())


@pytest.fixture()
def stack():
    return StorageStack()


def test_no_compaction_when_all_scores_low(stack):
    versions = make_versions(stack)
    assert pick_size_compaction(versions, versions.options) is None


def test_l0_compaction_picks_all_overlapping(stack):
    versions = make_versions(stack)
    version = Version(7)
    version.files[0] = [
        meta(1, b"a", b"m"),
        meta(2, b"g", b"z"),
        meta(3, b"a", b"c"),
        meta(4, b"x", b"z"),
    ]
    versions.current = version
    compaction = pick_size_compaction(versions, versions.options)
    assert compaction is not None
    assert compaction.level == 0
    assert sorted(f.number for f in compaction.inputs) == [1, 2, 3, 4]


def test_level1_compaction_includes_next_level_overlap(stack):
    options = Options(max_bytes_for_level_base=1000)
    versions = make_versions(stack, options)
    version = Version(7)
    version.files[1] = [meta(1, b"a", b"m", size=5000)]
    version.files[2] = [meta(2, b"a", b"f"), meta(3, b"g", b"p"), meta(4, b"q", b"z")]
    versions.current = version
    compaction = pick_size_compaction(versions, options)
    assert compaction.level == 1
    assert [f.number for f in compaction.inputs] == [1]
    assert sorted(f.number for f in compaction.overlaps) == [2, 3]


def test_compact_pointer_round_robins(stack):
    options = Options(max_bytes_for_level_base=100)
    versions = make_versions(stack, options)
    version = Version(7)
    version.files[1] = [meta(1, b"a", b"c", 400), meta(2, b"d", b"f", 400)]
    versions.current = version
    first = pick_size_compaction(versions, options)
    assert [f.number for f in first.inputs] == [1]
    # pointer advanced past file 1's range: next pick starts at file 2
    second = pick_size_compaction(versions, options)
    assert [f.number for f in second.inputs] == [2]
    # wraps around when the pointer passes the last file
    third = pick_size_compaction(versions, options)
    assert [f.number for f in third.inputs] == [1]


def test_trivial_move_detection(stack):
    options = Options()
    compaction = Compaction(level=1, inputs=[meta(1, b"a", b"c")], overlaps=[])
    assert compaction.is_trivial_move(options)
    with_overlap = Compaction(
        level=1, inputs=[meta(1, b"a", b"c")], overlaps=[meta(2, b"b", b"d")]
    )
    assert not with_overlap.is_trivial_move(options)
    two_inputs = Compaction(
        level=1, inputs=[meta(1, b"a", b"c"), meta(2, b"d", b"f")], overlaps=[]
    )
    assert not two_inputs.is_trivial_move(options)


def test_trivial_move_blocked_by_grandparents(stack):
    options = Options(max_file_size=1000)
    heavy_grandparents = [
        meta(i, b"a", b"c", size=5000) for i in range(10, 20)
    ]
    compaction = Compaction(
        level=1,
        inputs=[meta(1, b"a", b"c")],
        overlaps=[],
        grandparents=heavy_grandparents,
    )
    assert not compaction.is_trivial_move(options)


def test_seek_compaction_for_live_file(stack):
    versions = make_versions(stack)
    version = Version(7)
    target = meta(5, b"d", b"f")
    version.files[1] = [target]
    version.files[2] = [meta(6, b"a", b"z")]
    versions.current = version
    compaction = pick_seek_compaction(versions, versions.options, 1, target)
    assert compaction is not None
    assert compaction.is_seek
    assert [f.number for f in compaction.inputs] == [5]
    assert [f.number for f in compaction.overlaps] == [6]


def test_seek_compaction_skips_stale_file(stack):
    versions = make_versions(stack)
    versions.current = Version(7)
    ghost = meta(5, b"d", b"f")
    assert pick_seek_compaction(versions, versions.options, 1, ghost) is None


def test_seek_compaction_rejects_last_level(stack):
    options = Options(num_levels=3)
    versions = make_versions(stack, options)
    target = meta(5, b"d", b"f")
    versions.current = Version(3)
    versions.current.files[2] = [target]
    assert pick_seek_compaction(versions, options, 2, target) is None


def output_ranges(options, user_keys, grandparents=()):
    """Run the store's compaction output loop over fresh entries; the
    (first, last) user key of each table it writes."""
    db = DB(StorageStack(), options=options)
    entries = [
        (user, ~((10 << 8) | TYPE_VALUE), ikey(user), b"v" * 100)
        for user in user_keys
    ]
    outputs = []
    builder, t = db._write_merged(
        entries, False, outputs, 0, grandparents=list(grandparents)
    )
    if builder is not None:
        db._finish_output(builder, outputs, t)
    return [(m.smallest[:-8], m.largest[:-8]) for m in outputs]


def test_output_cutter_cuts_at_file_size():
    # 113 encoded bytes per entry: the open table reaches 1000 bytes
    # (with the 4-byte block trailer) after nine entries
    options = Options(max_file_size=1000)
    keys = [f"k{i:02d}".encode() for i in range(20)]
    assert output_ranges(options, keys) == [
        (b"k00", b"k08"), (b"k09", b"k17"), (b"k18", b"k19")
    ]


def test_output_cutter_cuts_on_grandparent_overlap():
    options = Options(max_file_size=10**9)  # size never triggers
    grandparents = [
        meta(i, f"k{i:02d}".encode(), f"k{i:02d}z".encode(),
             size=options.grandparent_overlap_limit() // 2)
        for i in range(10)
    ]
    # walking past three grandparents accumulates > the overlap limit
    assert output_ranges(options, [b"k00", b"k01", b"k05"], grandparents) == [
        (b"k00", b"k01"), (b"k05", b"k05")
    ]


def test_compaction_properties():
    inputs = [meta(1, b"a", b"c", 100)]
    overlaps = [meta(2, b"b", b"d", 200)]
    compaction = Compaction(level=3, inputs=inputs, overlaps=overlaps)
    assert compaction.output_level == 4
    assert compaction.input_bytes == 300
    assert compaction.all_inputs == inputs + overlaps
    edit = compaction.make_delete_edit()
    assert (3, 1) in edit.deleted_files
    assert (4, 2) in edit.deleted_files
