"""Commit-to-commit virtual pin: host-only PRs may not move simulated time.

``test_determinism_golden`` compares two runs of the *same* commit, so a
change that shifts every run the same way passes it. This test pins a
sha256 of the virtual section of a small fixed scenario set against
constants recorded on the commit *before* the change. A PR that means to
change what the model charges re-records them (``python
tests/bench/test_virtual_pin.py`` prints the table) and says so; a PR
that only means to make the simulator faster must leave them alone.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig
from repro.bench.workloads import (
    ValueGenerator,
    fillrandom_indices,
    make_key,
    readrandom_indices,
)
from repro.fs.stack import StorageStack

NUM_KEYS = 1500
#: page cache far below the ~170 KB of data: reads reach the device and
#: the cache evicts
PAGECACHE_BYTES = 4 * 64 * 1024

STORES = {
    "leveldb": None,
    "noblsm": None,
    "noblsm-kv": 64,  # value_threshold: the 100 B values go to the vLog
    "pebblesdb": None,
}
SHAPES = ((1, 1), (4, 2))  # (device channels, background threads)

#: recorded on 034fbfe (PR 12), before any src/ edit of PR 13
PINNED = {
    "leveldb-1ch1thr": "7e2c4e5888892f7d9226bccb8f5e1abb4eb9d0a399f80dd9b76be1ec89a9f760",
    "leveldb-4ch2thr": "961ae9cf2dcc6ed2ebf9e228687439f8043285124a8e94ba735f719f85c90972",
    "noblsm-1ch1thr": "8396fbcd89d94ec8149e9d0f6080cf0654ed263a0df24595db5f075924ae53d1",
    "noblsm-4ch2thr": "2129179e0f89cad44e42aab26e96c7afde58ea0fb1fe5ed989a9dfa98be51cfc",
    "noblsm-kv-1ch1thr": "6121f83d8d6fed222e4be0be757e215ec35831c5103cba8f2451857967b6b42b",
    "noblsm-kv-4ch2thr": "d80644e0c97d26433a6d59846bb3d8c05bfb6e907ad92d96a25233590f20ef68",
    "pebblesdb-1ch1thr": "bcb261e9786112081229ca910e059c9967d625900fe7caa4d3d4ae503a30ccaa",
    "pebblesdb-4ch2thr": "e8ddaee734556b87931e11c3ad30c288ebc519a5452207aa01921fcc432683be",
}


def virtual_section(store, channels, threads):
    """fill + overwrite + readrandom + scan; every simulated number."""
    config = ScaledConfig(
        scale=10000.0,
        num_ops=NUM_KEYS,
        value_size=100,
        seed=4242,
        num_channels=channels,
        background_threads=threads,
        value_threshold=STORES[store],
    )
    stack = config.build_stack()
    stack = StorageStack(
        dataclasses.replace(stack.config, pagecache_bytes=PAGECACHE_BYTES)
    )
    db = make_store(store, stack, "db", options=config.build_options())
    phases = {}
    t = stack.now
    for phase, seed in (("fill", 0), ("overwrite", 1)):
        values = ValueGenerator(config.value_size, seed=config.seed + seed)
        for index in fillrandom_indices(NUM_KEYS, config.seed + seed):
            t = db.put(make_key(index, config.key_size), values.next(), at=t)
        t = db.wait_for_background(t)
        phases[phase] = t
    found = 0
    for index in readrandom_indices(NUM_KEYS, NUM_KEYS, config.seed + 7):
        value, t = db.get(make_key(index, config.key_size), at=t)
        found += value is not None
    phases["readrandom"] = t
    scanned = 0
    for index in readrandom_indices(100, NUM_KEYS, config.seed + 13):
        pairs, t = db.scan(make_key(index, config.key_size), 10, at=t)
        scanned += len(pairs)
    phases["scan"] = t
    device = stack.ssd.stats.snapshot()
    pagecache = stack.pagecache.snapshot()
    return {
        "virtual_ns": phases,
        "found": found,
        "scanned": scanned,
        "device": device,
        "sync_calls": stack.sync_stats.sync_calls,
        "bytes_synced": stack.sync_stats.bytes_synced,
        "minor_compactions": db.stats.minor_compactions,
        "major_compactions": db.stats.major_compactions,
        "trivial_moves": db.stats.trivial_moves,
        "seek_compactions": db.stats.seek_compactions,
        "bytes_compacted_in": db.stats.bytes_compacted_in,
        "bytes_compacted_out": db.stats.bytes_compacted_out,
        "pagecache": {
            key: pagecache[key] for key in ("hits", "misses", "evictions")
        },
        "blockcache_hits": db.table_cache.block_cache.hits,
        "blockcache_misses": db.table_cache.block_cache.misses,
        "tablecache_opens": db.table_cache.opens,
    }


def digest(section):
    return hashlib.sha256(
        json.dumps(section, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("channels,threads", SHAPES)
@pytest.mark.parametrize("store", sorted(STORES))
def test_virtual_section_matches_parent_commit(store, channels, threads):
    section = virtual_section(store, channels, threads)
    # the scenario must reach the layers it claims to pin
    assert section["device"]["bytes_read"] > 0
    assert section["pagecache"]["evictions"] > 0
    assert section["major_compactions"] > 0
    assert section["found"] > 0 and section["scanned"] > 0
    name = f"{store}-{channels}ch{threads}thr"
    assert digest(section) == PINNED[name], json.dumps(
        section, sort_keys=True, indent=1
    )


if __name__ == "__main__":
    for store_name in sorted(STORES):
        for ch, thr in SHAPES:
            key = f"{store_name}-{ch}ch{thr}thr"
            print(f'    "{key}": "{digest(virtual_section(store_name, ch, thr))}",')
