#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself on this box?

    python3 benchmarks/perf/aa.py --runs 10 > benchmarks/perf/AA.md

Runs every workload as two interleaved sets (A, B, A, B ...) of
``--runs`` processes of the same checkout; run *i* of either set uses
seed *i*, as the driver does. Prints, per workload and end-to-end
metric, both medians, both quartile pairs, the spread (q3 - q1 as a
share of the median) and max - min, and fails if

- a virtual-time or count metric differs between the two runs of one
  seed (they must be bit-equal);
- the medians of the two sets differ by more than the metric's bound;
- a spread exceeds the bound (``setup_s`` excepted, as in the driver);
- more than one run of a set has a host metric more than a tenth from
  the set's median. A single such run per set is printed as a note and
  tolerated: quartiles, which is what the driver judges by, ignore one
  outlier, and this box has minutes in which it runs a third slower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: metrics measured on the host clock; the rest are exact per seed
HOST_METRICS = ("setup_s", "host_cpu_us_per_op", "host_peak_rss_mb")
STRAY_LIMIT = 0.10


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, float]:
    started = time.perf_counter()
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["_wall_s"] = time.perf_counter() - started
    return values


def quartiles(values: List[float]) -> "tuple[float, float, float]":
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    names = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]

    failures: List[str] = []
    notes: List[str] = []
    print("# A/A: two interleaved sets of the same checkout\n")
    print(f"{args.runs} runs per set and workload, seeds 1..{args.runs}, "
          f"`--seconds {seconds}`, `{' '.join(contract['command'])}`.\n")
    for workload in names:
        sets: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for seed in range(1, args.runs + 1):
            for label in ("A", "B"):
                sets[label].append(
                    run_once(contract["command"], workload, seed, seconds)
                )
        walls = [run["_wall_s"] for runs in sets.values() for run in runs]
        print(f"## {workload}\n")
        print(f"wall time per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s\n")
        print("| metric | unit | bound | median A | median B | medians differ | "
              "q1..q3 A | q1..q3 B | spread A | spread B | max-min A | max-min B |")
        print("|---|---|---|---|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            differ = abs(bm - am) / am
            spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
            print(
                f"| {name} | {units[name]} | {bound:.0%} | {am:.6g} | {bm:.6g} | "
                f"{differ:.2%} | {a1:.6g}..{a3:.6g} | {b1:.6g}..{b3:.6g} | "
                f"{spread_a:.2%} | {spread_b:.2%} | {max(a) - min(a):.4g} | "
                f"{max(b) - min(b):.4g} |"
            )
            if differ > bound:
                failures.append(f"{workload}/{name}: medians differ {differ:.2%} > {bound:.0%}")
            if name != "setup_s" and max(spread_a, spread_b) > bound:
                failures.append(f"{workload}/{name}: spread {max(spread_a, spread_b):.2%} > {bound:.0%}")
            if name in HOST_METRICS:
                for label, values, median in (("A", a, am), ("B", b, bm)):
                    strays = [
                        f"{abs(v - median) / median:.1%}"
                        for v in values
                        if abs(v - median) > STRAY_LIMIT * median
                    ]
                    if strays:
                        message = (
                            f"{workload}/{name}: {len(strays)} of {len(values)} "
                            f"runs of set {label} stray {', '.join(strays)} "
                            f"from the median"
                        )
                        (failures if len(strays) > 1 else notes).append(message)
            elif a != b:
                failures.append(f"{workload}/{name}: not bit-equal between the two runs of a seed")
        print()
        sys.stdout.flush()
    print("## verdict\n")
    for note in notes:
        print(f"- note: {note}")
    if notes:
        print()
    if failures:
        print("FAIL\n")
        for failure in failures:
            print(f"- {failure}")
        return 1
    print("PASS: every virtual/count metric bit-equal per seed, every median "
          "and spread within its bound, at most one run per set with a host "
          "metric more than a tenth from the set's median.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
