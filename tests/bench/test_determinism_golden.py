"""Determinism golden test: same seed + config => byte-identical JSON.

The whole simulation is virtual-time deterministic, including the
multi-queue device and the parallel compaction scheduler: two in-process
runs of the same sweep must serialize to *byte-identical*
``repro.bench/1`` documents. This is the lock that keeps the parallel
paths honest — any hidden host-order or hash-order dependence shows up
here as a diff.
"""

import json

from repro.bench.harness import ScaledConfig
from repro.bench.db_bench import run_fillrandom
from repro.bench.parallelism import run_parallelism, sweep_points
from repro.bench.report import RESULTS_SCHEMA, results_document


def dump(results, meta):
    return json.dumps(
        results_document(results, meta), indent=2, sort_keys=True
    )


def test_sweep_points_are_deterministic():
    assert sweep_points([4, 1], [2, 1]) == [
        (1, 1),
        (1, 2),
        (4, 1),
        (4, 2),
    ]
    assert sweep_points([4], [2])[0] == (1, 1)  # baseline injected


def test_parallelism_sweep_json_is_byte_identical():
    kwargs = dict(
        store="noblsm",
        scale=20000.0,
        channels=(1, 4),
        threads=(1, 2),
        seed=321,
    )
    meta = {"target": "parallelism", "seed": 321}
    first = dump(run_parallelism(**kwargs), meta)
    second = dump(run_parallelism(**kwargs), meta)
    assert first == second


def test_parallelism_document_schema():
    results = run_parallelism(
        store="noblsm", scale=20000.0, channels=(4,), threads=(2,)
    )
    doc = results_document(results, meta={"target": "parallelism"})
    assert doc["schema"] == RESULTS_SCHEMA
    for row in doc["results"]:
        extras = row["extras"]
        assert {"num_channels", "background_threads", "bg_stall_ns",
                "speedup"} <= set(extras)
        assert "put" in row["latency_us"]


def test_fillrandom_document_byte_identical_serial_and_parallel():
    """Full ``repro.bench/1`` fillrandom documents are byte-identical
    across runs, at both 1 channel x 1 thread and 4 channels x 2
    threads — the acceptance lock for host-side hot-path work: any
    optimisation that leaks into virtual time diffs here."""
    for channels, threads in ((1, 1), (4, 2)):
        def run():
            config = ScaledConfig(
                scale=20000.0,
                observe=True,
                num_channels=channels,
                background_threads=threads,
                seed=1234,
            )
            result, _, _ = run_fillrandom("noblsm", config)
            return dump(
                [result],
                {"target": "fillrandom", "ch": channels, "thr": threads},
            )

        first, second = run(), run()
        assert first == second, f"diverged at {channels}ch x {threads}thr"


def test_single_run_repeatable_across_instances():
    """One observed parallel fillrandom, run twice, bit-for-bit equal —
    down to the full stats record and latency percentiles."""
    def run():
        config = ScaledConfig(
            scale=20000.0,
            observe=True,
            num_channels=4,
            background_threads=2,
            seed=77,
        )
        result, _, _ = run_fillrandom("noblsm", config)
        return result

    a, b = run(), run()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_kv_fillrandom_document_byte_identical():
    """The noblsm-kv ``repro.bench/1`` fillrandom document (separation
    on) is bit-for-bit repeatable, including vLog-driven timing."""
    def run():
        config = ScaledConfig(
            scale=20000.0,
            observe=True,
            seed=1234,
            value_threshold=64,
        )
        result, _, _ = run_fillrandom("noblsm-kv", config)
        return dump([result], {"target": "fillrandom", "store": "noblsm-kv"})

    first, second = run(), run()
    assert first == second


def test_amplification_sweep_byte_identical():
    """The ``repro.amplification/1`` document — vLog accounting included
    — serializes bit-for-bit across runs."""
    from repro.bench.amplification import (
        amplification_document,
        run_amplification_sweep,
    )

    def run():
        rows = run_amplification_sweep(
            value_sizes=(1024,), scale=2000.0, num_ops=2000, seed=9
        )
        return json.dumps(
            amplification_document(rows, {"target": "amplification"}),
            indent=2,
            sort_keys=True,
        )

    first, second = run(), run()
    assert first == second


def test_scaled_config_wires_parallelism_knobs():
    config = ScaledConfig(scale=1000.0, num_channels=4, background_threads=2)
    assert config.build_stack().ssd.num_channels == 4
    assert config.build_options().background_threads == 2


def test_scaled_config_defaults_stay_serial():
    config = ScaledConfig(scale=1000.0)
    stack = config.build_stack()
    assert stack.ssd.num_channels == 1
    assert "channel_busy_ns" not in stack.ssd.stats.snapshot()
    assert config.build_options().background_threads == 1
