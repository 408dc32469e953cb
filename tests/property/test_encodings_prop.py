"""Property-based tests for the on-disk encodings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block
from repro.lsm.bloom import BloomFilter
from repro.lsm.format import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    get_length_prefixed,
    get_varint,
    internal_compare,
    make_internal_key,
    parse_internal_key,
    put_length_prefixed,
    put_varint,
)
from repro.lsm.wal import decode_batch, encode_batch

keys = st.binary(min_size=0, max_size=40)
values = st.binary(min_size=0, max_size=200)


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_varint_roundtrip(value):
    decoded, offset = get_varint(put_varint(value))
    assert decoded == value


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
def test_varint_stream_roundtrip(numbers):
    buf = b"".join(put_varint(n) for n in numbers)
    pos = 0
    out = []
    for _ in numbers:
        value, pos = get_varint(buf, pos)
        out.append(value)
    assert out == numbers
    assert pos == len(buf)


@given(st.lists(st.binary(max_size=100), max_size=20))
def test_length_prefixed_stream_roundtrip(chunks):
    buf = b"".join(put_length_prefixed(c) for c in chunks)
    pos = 0
    out = []
    for _ in chunks:
        chunk, pos = get_length_prefixed(buf, pos)
        out.append(chunk)
    assert out == chunks


@given(
    keys,
    st.integers(min_value=0, max_value=MAX_SEQUENCE),
    st.sampled_from([TYPE_VALUE, TYPE_DELETION]),
)
def test_internal_key_roundtrip(user_key, sequence, value_type):
    internal = make_internal_key(user_key, sequence, value_type)
    parsed = parse_internal_key(internal)
    assert parsed == (user_key, sequence, value_type)


@given(
    st.tuples(keys, st.integers(min_value=0, max_value=2**30)),
    st.tuples(keys, st.integers(min_value=0, max_value=2**30)),
)
def test_internal_compare_total_order(a, b):
    ka = make_internal_key(a[0], a[1], TYPE_VALUE)
    kb = make_internal_key(b[0], b[1], TYPE_VALUE)
    ab = internal_compare(ka, kb)
    ba = internal_compare(kb, ka)
    assert ab == -ba
    if a == b:
        assert ab == 0
    # consistent with the (user asc, seq desc) order
    expected = (a[0], -a[1]) < (b[0], -b[1])
    if expected:
        assert ab < 0


@given(
    st.lists(
        st.tuples(
            st.sampled_from([TYPE_VALUE, TYPE_DELETION]), keys, values
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=0, max_value=2**40),
)
def test_wal_batch_roundtrip(entries, sequence):
    record = encode_batch(sequence, entries)
    decoded_seq, decoded = decode_batch(record[8:])
    assert decoded_seq == sequence
    assert decoded == entries


@given(st.dictionaries(keys, values, max_size=60))
def test_block_roundtrip_sorted_entries(mapping):
    entries = sorted(mapping.items())
    block = Block.decode(
        Block([k for k, _ in entries], [v for _, v in entries]).encode()
    )
    assert block.entries() == entries


@given(st.sets(keys, max_size=200), st.integers(min_value=4, max_value=16))
def test_bloom_never_false_negative(members, bits_per_key):
    bloom = BloomFilter.build(members, bits_per_key)
    assert all(bloom.may_contain(k) for k in members)
    decoded = BloomFilter.decode(bloom.encode())
    assert all(decoded.may_contain(k) for k in members)
