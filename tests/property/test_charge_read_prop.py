"""Differential test: a charge-only read costs exactly what a read costs.

``Table`` readers that hold a hand-off record call ``charge_read`` where
they used to call ``read``. Two identical stacks replay one random
sequence of (offset, length) requests, one through each call; the page
cache is a quarter of the file, so the sequence evicts, misses and hits,
and every observable the model keeps must agree after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.pagecache import PAGE_SIZE
from repro.fs.stack import StackConfig, StorageStack

FILE_PAGES = 16
FILE_BYTES = FILE_PAGES * PAGE_SIZE - 777  # last page is partial

requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=FILE_BYTES + 3 * PAGE_SIZE),
        st.integers(min_value=0, max_value=3 * PAGE_SIZE),
        st.integers(min_value=0, max_value=5_000_000),  # think time, ns
    ),
    min_size=1,
    max_size=40,
)


def cold_file():
    stack = StorageStack(
        StackConfig(pagecache_bytes=FILE_PAGES // 4 * PAGE_SIZE)
    )
    handle, t = stack.fs.create("f", at=0)
    t = handle.append(bytes(range(256)) * (FILE_BYTES // 256 + 1), at=t)
    stack.fs._get_inode("f").data.truncate(FILE_BYTES)
    t = handle.fsync(at=t)
    stack.pagecache.drop_all()
    return stack, handle, t


def observables(stack, handle):
    return (
        stack.pagecache.snapshot(),
        stack.ssd.stats.snapshot(),
        handle._inode.last_read_end,
        stack.now,
    )


@settings(max_examples=60, deadline=None)
@given(requests)
def test_charge_read_is_read_without_the_bytes(sequence):
    reading, read_handle, t_read = cold_file()
    charging, charge_handle, t_charge = cold_file()
    assert t_read == t_charge
    content = read_handle._inode.data.read(0, FILE_BYTES)
    for offset, nbytes, think in sequence:
        data, t_read = read_handle.read(offset, nbytes, at=t_read + think)
        length, t_charge = charge_handle.charge_read(
            offset, nbytes, at=t_charge + think
        )
        assert data == content[offset : offset + nbytes]
        assert length == len(data)
        assert t_charge == t_read
        assert observables(charging, charge_handle) == observables(
            reading, read_handle
        )
