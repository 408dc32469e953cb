"""Property tests: the extent list behaves like a plain bytearray."""

from hypothesis import given
from hypothesis import strategies as st

from repro.fs.ext4 import _ExtentList

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.binary(max_size=64)),
        st.tuples(st.just("zeros"), st.integers(min_value=0, max_value=128)),
        st.tuples(st.just("deferred"), st.binary(max_size=64)),
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=400)),
    ),
    max_size=30,
)


@given(operations, st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=200))
def test_extent_list_matches_bytearray(ops, read_offset, read_len):
    extents = _ExtentList()
    model = bytearray()
    made = []  # one entry per deferred payload actually produced

    def deferred(data, tag):
        def make():
            made.append(tag)
            return data
        return make

    for tag, op in enumerate(ops):
        if op[0] == "append":
            extents.append(op[1])
            model.extend(op[1])
        elif op[0] == "deferred":
            extents.append_deferred(len(op[1]), deferred(op[1], tag))
            model.extend(op[1])
        elif op[0] == "zeros":
            extents.append_zeros(op[1])
            model.extend(b"\x00" * op[1])
        else:
            new_size = min(op[1], len(model))
            extents.truncate(new_size)
            del model[new_size:]
    assert extents.size == len(model)
    assert extents.read(read_offset, read_len) == bytes(
        model[read_offset : read_offset + read_len]
    )
    assert extents.read(0, extents.size) == bytes(model)
    assert len(made) == len(set(made)), "a deferred extent was made twice"


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=20))
def test_extent_full_read_roundtrip(chunks):
    extents = _ExtentList()
    for chunk in chunks:
        extents.append(chunk)
    assert extents.read(0, extents.size) == b"".join(chunks)


@given(
    st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=10),
    st.data(),
)
def test_extent_truncate_is_prefix(chunks, data):
    extents = _ExtentList()
    for chunk in chunks:
        extents.append(chunk)
    full = extents.read(0, extents.size)
    cut = data.draw(st.integers(min_value=0, max_value=extents.size))
    extents.truncate(cut)
    assert extents.size == cut
    assert extents.read(0, cut) == full[:cut]
