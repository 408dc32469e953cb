"""A db_bench-style command line, mirroring LevelDB's binary.

Usage::

    python -m repro.bench.dbbench_cli --store noblsm \
        --benchmarks fillrandom,overwrite,readrandom \
        --num 20000 --value-size 1024 --scale 500

Prints one line per benchmark in db_bench's familiar format::

    fillrandom   :      11.075 micros/op;   88.1 MB/s

``--observe`` threads a metric registry through the stack and appends
per-op latency percentiles plus a per-layer virtual-time breakdown;
``--json PATH`` writes the machine-readable ``repro.bench/1`` document.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines.registry import STORE_CLASSES
from repro.bench.db_bench import WORKLOADS, run_workload
from repro.bench.harness import ScaledConfig
from repro.bench.report import (
    format_breakdown_table,
    format_latency_table,
    results_document,
    write_json,
)

DEFAULT_BENCHMARKS = "fillrandom,overwrite,readseq,readrandom"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.dbbench_cli",
        description="LevelDB db_bench on the simulated stack.",
    )
    parser.add_argument(
        "--store",
        default="noblsm",
        choices=sorted(STORE_CLASSES),
        help="which store to benchmark",
    )
    parser.add_argument(
        "--benchmarks",
        default=DEFAULT_BENCHMARKS,
        help=f"comma-separated list from: {', '.join(sorted(WORKLOADS))}",
    )
    parser.add_argument("--num", type=int, default=0,
                        help="operations per benchmark (0 = 10M/scale)")
    parser.add_argument("--value-size", type=int, default=1024)
    parser.add_argument("--scale", type=float, default=500.0)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--observe",
        action="store_true",
        help="enable the metric registry: percentiles + layer breakdown",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write results as a repro.bench/1 JSON document",
    )
    args = parser.parse_args(argv)

    config = ScaledConfig(
        scale=args.scale,
        num_ops=args.num,
        value_size=args.value_size,
        seed=args.seed,
        observe=args.observe,
    )
    print(
        f"store: {args.store}; keys: 16 bytes each; "
        f"values: {args.value_size} bytes each; "
        f"entries: {config.num_ops}; scale: {args.scale:g}"
    )
    print("-" * 60)
    results = []
    for name in args.benchmarks.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in WORKLOADS:
            print(f"{name:12s} : unknown benchmark", file=sys.stderr)
            return 2
        result = run_workload(name, args.store, config)
        results.append(result)
        payload = (16 + args.value_size) * result.num_ops
        seconds = result.virtual_seconds
        rate = payload / seconds / (1024 * 1024) if seconds > 0 else 0.0
        print(
            f"{name:12s} : {result.us_per_op:10.3f} micros/op; "
            f"{rate:7.1f} MB/s ({result.num_ops} ops)"
        )
    if args.observe and results:
        print()
        print(format_latency_table(results))
        print()
        print(format_breakdown_table(results))
    if args.json:
        meta = {
            "store": args.store,
            "scale": args.scale,
            "value_size": args.value_size,
            "seed": args.seed,
            "observed": args.observe,
        }
        write_json(args.json, results_document(results, meta))
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
