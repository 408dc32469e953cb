#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 benchmarks/perf/run.py --workload write --seed 1 --seconds 3 --trace 0

One process imports the program once, then repeats ``[set-up phase ->
timed phase]`` on a fresh store and the same inputs: a warm-up and at
least four more (more until their timed phases add up to ``--seconds``).
Virtual-time and count metrics must be identical on every repeat — the
run fails if they are not — and host metrics are, chunk by chunk, the
fastest repeat's time, which is what repeats on a shared box.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from one traced run (see README.md). Names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``. Exit code 1 means a
wrong answer, 2 a usage error, 3 a measurement that cannot be trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def end_to_end(workload, inputs, size, seconds: float) -> "tuple[Dict[str, float], Dict[str, object]]":
    """``--trace 0``: identical repeats with tracing off."""
    from measure import fastest, final_state_check, repeats

    done = repeats(workload, inputs, size, seconds)
    last = done[-1]
    ops = last.outcome.attempted
    checked, wrong_after, _ = final_state_check(workload, inputs, last)
    metrics = dict(last.virtual)
    metrics.update(
        setup_s=fastest([r.setup_chunks for r in done]),
        host_cpu_us_per_op=fastest([r.timed_chunks for r in done]) * 1e6 / ops,
        host_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    )
    whole = [repeat.cpu_s * 1e6 / ops for repeat in done[1:]]
    settling = [
        fastest([r.timed_chunks for r in done[:count]]) * 1e6 / ops
        for count in range(2, len(done) + 1)
    ]
    wrong = last.outcome.wrong + wrong_after
    info = {
        "attempted": ops + checked,
        # a refused request is a failed operation too
        "failed": wrong + last.outcome.shed,
        "wrong": wrong,
        "repeats": len(done),
        "latency_samples": sum(len(v) for v in last.outcome.latencies.values()),
        "notes": {
            # whole timed phases, warm-up left out: how noisy was the box?
            "host_cpu_us_per_op_by_repeat": [round(v, 2) for v in whole],
            # the metric after 2, 3, ... repeats: has it settled?
            "host_cpu_us_per_op_settling": [round(v, 2) for v in settling],
            "bench.repeat_spread": (max(whole) - min(whole)) / min(whole),
            "generator_lateness_ns": 0,  # arrivals are virtual timestamps
        },
    }
    return metrics, info


def report(specs, metrics: Dict[str, float], info: Dict[str, object], workload: str) -> Dict[str, object]:
    """Print every metric by name with unit and sample count."""
    samples = info["latency_samples"]
    print(
        f"# workload {workload}: {info['attempted']} operations attempted, "
        f"{info['failed']} failed ({info['wrong']} wrong answers); "
        f"{info['repeats']} repeats; {samples} latency samples, "
        f"{samples - int(samples * 0.999)} at or beyond p99.9"
    )
    for key, value in info["notes"].items():
        print(f"# {key} = {json.dumps(value)}")
    out: Dict[str, object] = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if name not in metrics:
            raise KeyError(f"metric {name} is in BENCHMARK.json but was not measured")
        value = float(metrics[name])
        host = "host" in name or name.endswith("_s") or name.startswith("obs.")
        n = info["repeats"] if host else samples
        print(f"{name} = {value!r} {unit} (n={n})")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="repeat until the timed phases add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide the workload sizes (smoke tests only)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing: {SRC}/repro",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    started = time.perf_counter()
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import measure
    import perlayer
    import workloads

    import_s = time.perf_counter() - started
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size = workloads.Size().shrunk(args.shrink)
    inputs = workload.generate(args.seed, size)

    try:
        if args.trace:
            metrics, info = perlayer.per_layer(
                workload, inputs, size, args.seed, os.path.join(HERE, "out")
            )
            specs = contract["per_layer"]
        else:
            metrics, info = end_to_end(workload, inputs, size, args.seconds)
            specs = contract["end_to_end"]
    except measure.BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    metrics["bench.import_s"] = import_s
    info["notes"]["bench.import_s"] = import_s
    out = report(specs, metrics, info, workload.name)
    correct = info["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
