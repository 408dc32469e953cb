"""Property test: the one compaction output loop against the per-entry path.

``DB._write_merged`` applies the snapshot drop rule, the output cut rule
and the table builder's block accounting inline, in one loop over
locals. The reference below is the per-entry path it replaced, kept here
as the oracle: a ``VersionKeeper`` deciding each entry, an
``OutputCutter`` deciding each cut, and ``TableBuilder.add`` building
each table — driven by the old major-compaction loop and by PebblesDB's
old per-bucket loop (size-only cuts, a builder carried across buckets).
Both sides run on identical stores; every output table (boundaries,
entries, block spans, smallest/largest keys, file size), every vLog hook
call and every completion time must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.stack import StorageStack
from repro.lsm.db import DB
from repro.lsm.format import TYPE_DELETION, TYPE_VALUE, make_internal_key
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData


class VersionKeeper:
    """LevelDB's snapshot-aware drop rule, one call per entry."""

    def __init__(self, smallest_snapshot, drop_tombstones):
        self.smallest_snapshot = smallest_snapshot
        self.drop_tombstones = drop_tombstones
        self._last_user = None
        self._has_newer_visible_everywhere = False

    def keep(self, user_key, sequence, value_type):
        if user_key != self._last_user:
            self._last_user = user_key
            self._has_newer_visible_everywhere = False
        if self._has_newer_visible_everywhere:
            return False
        if sequence <= self.smallest_snapshot:
            self._has_newer_visible_everywhere = True
            if value_type == TYPE_DELETION and self.drop_tombstones:
                return False
        return True


class OutputCutter:
    """LevelDB's output cut rule, one call per kept entry."""

    def __init__(self, grandparents, options):
        self._max_file_size = options.max_file_size
        self._overlap_limit = options.grandparent_overlap_limit()
        self._gp_bounds = [(m.largest[:-8], m.file_size) for m in grandparents]
        self._gp_index = 0
        self._overlap_bytes = 0

    def should_stop_before(self, user_key, current_output_size):
        if current_output_size >= self._max_file_size:
            return True
        bounds = self._gp_bounds
        while self._gp_index < len(bounds) and user_key > bounds[self._gp_index][0]:
            self._overlap_bytes += bounds[self._gp_index][1]
            self._gp_index += 1
        if self._overlap_bytes > self._overlap_limit:
            self._overlap_bytes = 0
            return True
        return False

    def reset_for_new_output(self):
        self._overlap_bytes = 0


def oracle_major(db, entries, drop_tombstones, grandparents, at):
    keeper = VersionKeeper(db._smallest_snapshot(), drop_tombstones)
    cutter = OutputCutter(grandparents, db.options)
    outputs, builder, t = [], None, at
    for user_key, neg_tag, internal_key, value in entries:
        tag = ~neg_tag
        if not keeper.keep(user_key, tag >> 8, tag & 0xFF):
            if db._kv_drop is not None and tag & 0xFF == TYPE_VALUE:
                db._kv_drop(value)
            continue
        if db._kv_rewrite is not None and tag & 0xFF == TYPE_VALUE:
            value, t = db._kv_rewrite(value, t)
        if builder is not None and cutter.should_stop_before(
            user_key, builder.current_size
        ):
            builder, t = db._finish_output(builder, outputs, t)
            cutter.reset_for_new_output()
        if builder is None:
            builder = db._open_output(t)
        builder.add(internal_key, value)
    if builder is not None:
        builder, t = db._finish_output(builder, outputs, t)
    return outputs, t


def oracle_bucket(db, bucket, drop_tombstones, outputs, at, builder):
    keep = VersionKeeper(db._smallest_snapshot(), drop_tombstones).keep
    t = at
    for user_key, neg_tag, internal_key, value in bucket:
        tag = ~neg_tag
        if not keep(user_key, tag >> 8, tag & 0xFF):
            continue
        if builder is not None and builder.current_size >= db.options.max_file_size:
            builder, t = db._finish_output(builder, outputs, t)
        if builder is None:
            builder = db._open_output(t)
        builder.add(internal_key, value)
    return builder, t


def loop_major(db, entries, drop_tombstones, grandparents, at):
    outputs = []
    builder, t = db._write_merged(
        entries, drop_tombstones, outputs, at, grandparents=grandparents
    )
    if builder is not None:
        builder, t = db._finish_output(builder, outputs, t)
    return outputs, t


def run_buckets(db, write_bucket, buckets, at):
    """PebblesDB's guard walk: a builder carried across append buckets,
    cut at a boundary past half the file size, flushed around a merge."""
    outputs, builder, t = [], None, at
    for bucket, merge in buckets:
        if builder is not None and (
            merge or builder.current_size >= db.options.max_file_size // 2
        ):
            builder, t = db._finish_output(builder, outputs, t)
        builder, t = write_bucket(db, bucket, merge, outputs, t, builder)
        if merge and builder is not None:
            builder, t = db._finish_output(builder, outputs, t)
    if builder is not None:
        builder, t = db._finish_output(builder, outputs, t)
    return outputs, t


def loop_bucket(db, bucket, drop_tombstones, outputs, at, builder):
    return db._write_merged(bucket, drop_tombstones, outputs, at, builder)


def tables(db, outputs):
    """Everything a written table is: metadata, entries, layout."""
    shown = []
    for meta in outputs:
        built = db.table_cache._built[meta.number]
        shown.append(
            (
                meta.number, meta.file_size, meta.smallest, meta.largest,
                [block.entries() for block in built.blocks],
                built.spans, built.index_keys, built.index_size,
                built.encode(),
            )
        )
    return shown


@st.composite
def scenarios(draw):
    """Sorted decorated entries with many versions per key, a store set
    up with (or without) a live snapshot, and grandparent files."""
    nkeys = draw(st.integers(min_value=1, max_value=30))
    pads = st.sampled_from([0, 0, 12, 130])
    users = [b"%05d" % i + b"p" * draw(pads) for i in range(nkeys)]
    versions = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=nkeys,
                 max_size=nkeys)
    )
    total = sum(versions)
    sequences = draw(
        st.lists(st.integers(min_value=1, max_value=10_000), unique=True,
                 min_size=total, max_size=total)
    )
    sizes = st.sampled_from([0, 5, 100, 127, 128, 600, 16_384])
    entries = []
    for user, count in zip(users, versions):
        for _ in range(count):
            sequence = sequences.pop()
            value_type = draw(st.sampled_from([TYPE_VALUE, TYPE_VALUE,
                                               TYPE_DELETION]))
            value = b"" if value_type == TYPE_DELETION else b"v" * draw(sizes)
            key = make_internal_key(user, sequence, value_type)
            tag = (sequence << 8) | value_type
            entries.append((user, ~tag, key, value))
    entries.sort()
    max_seq = max(~neg >> 8 for _, neg, _, _ in entries)
    snapshot = draw(st.one_of(st.none(),
                              st.integers(min_value=0, max_value=max_seq)))
    options = Options(
        max_file_size=draw(st.sampled_from([600, 2048, 8192])),
        block_size=draw(st.sampled_from([64, 256, 1024])),
    )
    limit = options.grandparent_overlap_limit()
    bounds = sorted(set(draw(st.lists(st.sampled_from(users), max_size=8))))
    grandparents = [
        FileMetaData(
            number=1000 + i,
            file_size=draw(st.sampled_from([limit // 8, limit // 3,
                                            limit // 2, limit])),
            smallest=make_internal_key(bound, 1, TYPE_VALUE),
            largest=make_internal_key(bound + b"~", 1, TYPE_VALUE),
        )
        for i, bound in enumerate(bounds)
    ]
    return entries, snapshot, max_seq, options, grandparents


def make_store(options, snapshot, max_seq, kv_log=None):
    db = DB(StorageStack(), options=options)
    if snapshot is not None:
        db.versions.last_sequence = snapshot
        db.get_snapshot()
    db.versions.last_sequence = max_seq
    if kv_log is not None:
        def rewrite(value, t):
            kv_log.append(("rewrite", value, t))
            return value[::-1] + b"@", t + 7 * len(value) + 1

        db._kv_rewrite = rewrite
        db._kv_drop = lambda value: kv_log.append(("drop", value))
    return db


@settings(max_examples=45, deadline=None)
@given(scenarios(), st.booleans(), st.booleans())
def test_merge_loop_matches_the_per_entry_major_path(
    scenario, drop_tombstones, kv_hooks
):
    entries, snapshot, max_seq, options, grandparents = scenario
    logs = ([], []) if kv_hooks else (None, None)
    oracle_db = make_store(options, snapshot, max_seq, logs[0])
    loop_db = make_store(options, snapshot, max_seq, logs[1])
    want, want_t = oracle_major(
        oracle_db, entries, drop_tombstones, grandparents, 1000
    )
    got, got_t = loop_major(loop_db, entries, drop_tombstones, grandparents, 1000)
    assert tables(loop_db, got) == tables(oracle_db, want)
    assert got_t == want_t
    assert logs[1] == logs[0]


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.data())
def test_merge_loop_matches_the_per_entry_bucket_path(scenario, data):
    entries, snapshot, max_seq, options, _ = scenario
    # guard boundaries split the entries into buckets at user-key edges;
    # a merge bucket drops tombstones, an append bucket never does
    users = sorted({entry[0] for entry in entries})
    guards = sorted(set(data.draw(st.lists(st.sampled_from(users), max_size=5))))
    buckets, start = [], 0
    for guard in guards + [None]:
        end = len(entries) if guard is None else next(
            i for i, entry in enumerate(entries) if entry[0] >= guard
        )
        if end > start:
            buckets.append((entries[start:end], data.draw(st.booleans())))
        start = max(start, end)
    oracle_db = make_store(options, snapshot, max_seq)
    loop_db = make_store(options, snapshot, max_seq)
    want, want_t = run_buckets(oracle_db, oracle_bucket, buckets, 1000)
    got, got_t = run_buckets(loop_db, loop_bucket, buckets, 1000)
    assert tables(loop_db, got) == tables(oracle_db, want)
    assert got_t == want_t
