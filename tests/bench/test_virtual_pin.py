"""Commit-to-commit virtual pin: host-only PRs may not move simulated time.

``test_determinism_golden`` compares two runs of the *same* commit, so a
change that shifts every run the same way passes it. This test pins a
sha256 of the virtual section of a small fixed scenario set against
constants recorded on the commit *before* the change. A PR that means to
change what the model charges re-records them (``python
tests/bench/test_virtual_pin.py`` prints the table) and says so; a PR
that only means to make the simulator faster must leave them alone.

Every registered store has a row, so a store-specific path (l2sm's hot
tier, pebblesdb's guards, bolt's single barrier) cannot change unpinned.

The tuned rows run the same scenario with the write-stability machinery
on (compaction rate limiter in fair mode, dynamic slowdown), so the
limiter's throttle / hold-back / bypass decisions and the stall split
are pinned as well as the stock LevelDB triggers.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.baselines.registry import STORE_CLASSES, make_store
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

#: every registered store, with the value_threshold it runs at
STORES = {
    "bolt": None,
    "hyperleveldb": None,
    "l2sm": None,
    "leveldb": None,
    "noblsm": None,
    "noblsm-kv": 64,  # value_threshold: the 100 B values go to the vLog
    "pebblesdb": None,
    "rocksdb": None,
    "volatile": None,
}
SHAPES = ((1, 1), (4, 2))  # (device channels, background threads)
#: stores also pinned at 4 channels x 2 threads; rocksdb and
#: hyperleveldb set their own 4 and 2 threads, so their 1ch x 1thr rows
#: already run the parallel scheduler
PARALLEL_STORES = ("leveldb", "noblsm", "noblsm-kv", "pebblesdb")
ROWS = [
    (store, channels, threads)
    for store in sorted(STORES)
    for channels, threads in SHAPES
    if (channels, threads) == (1, 1) or store in PARALLEL_STORES
]

PINNED = {
    # recorded on 034fbfe (PR 12), before any src/ edit of PR 13
    "leveldb-1ch1thr": "7e2c4e5888892f7d9226bccb8f5e1abb4eb9d0a399f80dd9b76be1ec89a9f760",
    "leveldb-4ch2thr": "961ae9cf2dcc6ed2ebf9e228687439f8043285124a8e94ba735f719f85c90972",
    "noblsm-1ch1thr": "8396fbcd89d94ec8149e9d0f6080cf0654ed263a0df24595db5f075924ae53d1",
    "noblsm-4ch2thr": "2129179e0f89cad44e42aab26e96c7afde58ea0fb1fe5ed989a9dfa98be51cfc",
    "noblsm-kv-1ch1thr": "6121f83d8d6fed222e4be0be757e215ec35831c5103cba8f2451857967b6b42b",
    "noblsm-kv-4ch2thr": "d80644e0c97d26433a6d59846bb3d8c05bfb6e907ad92d96a25233590f20ef68",
    "pebblesdb-1ch1thr": "bcb261e9786112081229ca910e059c9967d625900fe7caa4d3d4ae503a30ccaa",
    "pebblesdb-4ch2thr": "e8ddaee734556b87931e11c3ad30c288ebc519a5452207aa01921fcc432683be",
    # recorded on defd8b7, before the shared lookup / table-output paths
    "bolt-1ch1thr": "363e2f8af8e22042bb87387d7ffdbf5be191c8be85455996530aa5f53dacb4d7",
    "hyperleveldb-1ch1thr": "0bd4a56fed69c9cd1ed4ea1be803f506402b11e4e4a97e5e2d794f005e0d60e5",
    "l2sm-1ch1thr": "33f9cd188e03cd09c418cb6224baabb5955574f0f29f29632ad6c36f4f5c6b7a",
    "rocksdb-1ch1thr": "6a32915910b0eb15373cba70dfaac2866d38d45e2326519709018e47d068c28b",
    "volatile-1ch1thr": "d6bf90af223c043d0051c37bfca906090fa21b9b8397af32529f0f0f3aae56a6",
}

TUNED_STORES = ("leveldb", "noblsm")
#: user bytes per virtual second the tuned rows size the stability
#: machinery for: a ~1 MB/s compaction cap with a 7.5 KB bucket, tight
#: enough that most majors are throttled at this scale
TUNED_INGEST = 75_000

#: recorded on 89e8d86, before any src/ edit of the pressure refactor
PINNED_TUNED = {
    "leveldb-tuned-1ch1thr": "bb97be10a40f7097b3484b9157269a89ce66cc26acf5c32ffdb0bf52c6fe8999",
    "leveldb-tuned-4ch2thr": "9649a6405a709a17d0a1402c7862923c32eb56404ec42e9401877e441bed5d0b",
    "noblsm-tuned-1ch1thr": "185ee62a9890f6d125e72fa16f8cffa7fe6677a19eebe20f9d5ca5432414177e",
    "noblsm-tuned-4ch2thr": "eab66721d3f530aa1ff4386ea7894c1f393a150d9ec3132a520ddaa20098e971",
}


def virtual_section(store, channels, threads, ingest=0):
    """fill + overwrite + readrandom + scan; every simulated number.

    With ``ingest`` set the store runs the stability recipe (14x ingest
    compaction cap, ingest/10 burst, fair mode, dynamic slowdown) and
    the section also carries the stall split and the limiter's counts.
    """
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
    options = config.build_options()
    options.stability_ingest_bytes_per_sec = ingest
    db = make_store(store, stack, "db", options=options)
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
    section = {
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
    if store == "l2sm":
        section["hot"] = {
            "dumps": db.hot_dumps,
            "gcs": db.hot_gcs,
            "keys": len(db._hot_index),
            "demoted": db.demoted_keys,
        }
    if ingest:
        section["stalls"] = {
            name: getattr(db.stats, name)
            for name in (
                "stall_ns",
                "stall_memtable_ns",
                "stall_l0_stop_ns",
                "slowdown_ns",
                "l0_stop_abandoned",
            )
        }
        limiter = db.pressure.limiter
        section["limiter"] = {
            name: getattr(limiter, name)
            for name in (
                "throttled_jobs",
                "held_jobs",
                "bypassed_jobs",
                "throttle_ns",
            )
        }
    return section


def digest(section):
    return hashlib.sha256(
        json.dumps(section, sort_keys=True).encode()
    ).hexdigest()


def test_every_registered_store_is_pinned():
    assert set(STORES) == set(STORE_CLASSES)
    assert {f"{s}-{c}ch{t}thr" for s, c, t in ROWS} == set(PINNED)


@pytest.mark.parametrize("store,channels,threads", ROWS)
def test_virtual_section_matches_parent_commit(store, channels, threads):
    section = virtual_section(store, channels, threads)
    # the scenario must reach the layers it claims to pin
    assert section["device"]["bytes_read"] > 0
    assert section["pagecache"]["evictions"] > 0
    assert section["major_compactions"] > 0
    assert section["found"] > 0 and section["scanned"] > 0
    if store == "l2sm":
        # ... and l2sm's hot tier: dumps, GCs, a non-empty hot index
        hot = section["hot"]
        assert hot["dumps"] > 0 and hot["gcs"] > 0 and hot["keys"] > 0
    name = f"{store}-{channels}ch{threads}thr"
    assert digest(section) == PINNED[name], json.dumps(
        section, sort_keys=True, indent=1
    )


@pytest.mark.parametrize("channels,threads", SHAPES)
@pytest.mark.parametrize("store", TUNED_STORES)
def test_tuned_section_matches_parent_commit(store, channels, threads):
    section = virtual_section(store, channels, threads, ingest=TUNED_INGEST)
    # the scenario must reach the rate-limited / fair / slowdown path
    limiter = section["limiter"]
    assert limiter["throttled_jobs"] >= 50
    assert limiter["bypassed_jobs"] >= 8
    if threads > 1:
        assert limiter["held_jobs"] > 0
    if store == "leveldb":
        assert section["stalls"]["slowdown_ns"] > 0
    name = f"{store}-tuned-{channels}ch{threads}thr"
    assert digest(section) == PINNED_TUNED[name], json.dumps(
        section, sort_keys=True, indent=1
    )


if __name__ == "__main__":
    for store_name, ch, thr in ROWS:
        key = f"{store_name}-{ch}ch{thr}thr"
        print(f'    "{key}": "{digest(virtual_section(store_name, ch, thr))}",')
    for store_name in TUNED_STORES:
        for ch, thr in SHAPES:
            key = f"{store_name}-tuned-{ch}ch{thr}thr"
            section = virtual_section(store_name, ch, thr, ingest=TUNED_INGEST)
            print(f'    "{key}": "{digest(section)}",')
