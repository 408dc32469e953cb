"""Table 1: number of syncs and size of data synced (fillrandom, 1 KB).

Paper row (10 M ops):

============== ======= =====
store          syncs   GB
============== ======= =====
LevelDB        1,061   61.55
BoLT             659   55.15
L2SM           1,046   60.98
RocksDB          606   35.82
HyperLevelDB   2,684   47.43
PebblesDB        713   42.61
NobLSM           160    9.82
============== ======= =====

NobLSM calls 84.9% fewer syncs than LevelDB and flushes ~6x less data.
"""

from conftest import bench_scale, write_result

from repro.bench.figures import render_table1, table1

PAPER_TABLE1 = {
    "leveldb": (1061, 61.55),
    "bolt": (659, 55.15),
    "l2sm": (1046, 60.98),
    "rocksdb": (606, 35.82),
    "hyperleveldb": (2684, 47.43),
    "pebblesdb": (713, 42.61),
    "noblsm": (160, 9.82),
}


def test_table1_sync_counts(benchmark, record_result):
    scale = bench_scale(500.0)
    data = benchmark.pedantic(table1, kwargs={"scale": scale}, rounds=1, iterations=1)
    record_result(
        "table1_syncs",
        render_table1(data),
        payload={
            "schema": "repro.figure/1",
            "figure": "table1",
            "title": "number of syncs and paper-equivalent GB synced",
            "scale": scale,
            "stores": {
                store: {"syncs": syncs, "gb_equiv": round(gb, 3)}
                for store, (syncs, gb) in data.items()
            },
            "paper": {
                store: {"syncs": syncs, "gb": gb}
                for store, (syncs, gb) in PAPER_TABLE1.items()
            },
        },
    )

    ldb_syncs, ldb_gb = data["leveldb"]
    nob_syncs, nob_gb = data["noblsm"]

    # NobLSM syncs the least and flushes the least (paper's claim)
    for store, (syncs, gb) in data.items():
        if store == "noblsm":
            continue
        assert nob_syncs < syncs, f"NobLSM should sync less than {store}"
        assert nob_gb < gb, f"NobLSM should flush less than {store}"

    # the ~85% sync-count reduction vs LevelDB
    reduction = 1 - nob_syncs / ldb_syncs
    assert reduction > 0.75, f"sync reduction only {reduction:.0%}"
    # the ~6x data-volume reduction
    assert ldb_gb / nob_gb > 3.5

    # HyperLevelDB syncs the most often (hardcoded small tables)
    assert data["hyperleveldb"][0] == max(s for s, _ in data.values())

    benchmark.extra_info["noblsm_syncs"] = nob_syncs
    benchmark.extra_info["leveldb_syncs"] = ldb_syncs
    benchmark.extra_info["noblsm_gb_equiv"] = round(nob_gb, 2)
    benchmark.extra_info["leveldb_gb_equiv"] = round(ldb_gb, 2)
    benchmark.extra_info["paper"] = str(PAPER_TABLE1)
