#!/usr/bin/env python3
"""Observability walkthrough: metrics, spans and the layer breakdown.

Threads a MetricRegistry through the whole stack, runs a write-heavy
NobLSM workload, then asks the registry where the virtual time went:
per-op latency percentiles, journal-commit and compaction spans with
their structured attributes, the per-layer breakdown, and the versioned
JSON export. Recording never touches the virtual clock, so the same run
with the default no-op registry produces identical timing.

Run:  python examples/observability.py
"""

from repro import NobLSM, Options, StorageStack
from repro.fs.stack import StackConfig
from repro.obs import MetricRegistry, layer_breakdown, to_json
from repro.sim.clock import to_seconds


def main() -> None:
    # One registry per simulated machine, injected at construction.
    obs = MetricRegistry()
    stack = StorageStack(StackConfig(obs=obs))

    # The registry keeps no spans: it streams each one to its listeners
    # as it ends. Keep the journal commits and compactions by name.
    kept = {"journal.commit": [], "db.compaction.minor": [],
            "db.compaction.major": []}

    def keep(span) -> None:
        if span.name in kept:
            kept[span.name].append(span)

    obs.add_span_listener(keep)

    options = Options().scaled(2000)  # tiny tables -> lots of compactions
    db = NobLSM(stack, options=options)

    t = 0
    for i in range(5000):
        key = f"user{(i * 7919) % 2500:08d}".encode()
        value = f"profile-{i:06d}".encode() * 8
        t = db.put(key, value, at=t)
    for i in range(500):
        _, t = db.get(f"user{i * 5:08d}".encode(), at=t)
    t = db.close(t)
    stack.settle()

    # --- per-op latency percentiles (virtual ns -> us) ----------------
    print(f"run finished at t={to_seconds(t):.4f} virtual s\n")
    for op in ("put", "get"):
        hist = obs.find_histogram(f"db.{op}_ns")
        print(f"  {op:4s}: n={hist.count:5d}  p50={hist.p50 / 1000:8.2f} us  "
              f"p95={hist.p95 / 1000:8.2f} us  p99={hist.p99 / 1000:8.2f} us")

    # --- spans: journal commits and compactions, with attributes ------
    commits = kept["journal.commit"]
    print(f"\n  journal commits: {len(commits)}")
    for span in commits[:3]:
        print(f"    tid={span.attrs['tid']} inodes={span.attrs['inodes']} "
              f"bytes={span.attrs['journal_bytes']} "
              f"took {span.duration_ns} ns")

    minors = kept["db.compaction.minor"]
    majors = kept["db.compaction.major"]
    print(f"  compactions: {len(minors)} minor, {len(majors)} major")
    if majors:
        span = majors[0]
        print(f"    first major: L{span.attrs['level']}->"
              f"L{span.attrs['output_level']}, "
              f"{span.attrs['input_bytes']} bytes in, "
              f"{span.attrs.get('shadow_retained', 0)} inputs kept as shadows")

    # --- stall attribution (counters) ---------------------------------
    snap = obs.snapshot()
    stalls = {
        name.rsplit(".", 1)[-1]: value
        for name, value in snap["counters"].items()
        if name.startswith("db.stall.")
    }
    print(f"\n  stall attribution (ns): {stalls}")

    # --- the per-layer breakdown --------------------------------------
    print("\n  where the virtual time went (layers overlap by design):")
    for layer, ns in layer_breakdown(obs).items():
        print(f"    {layer:10s} {ns / 1e6:10.3f} ms")

    # --- versioned JSON export ----------------------------------------
    doc = to_json(obs, meta={"example": "observability"})
    print(f"\n  repro.obs/1 JSON export: {len(doc)} bytes "
          f"(write_json(path, obs) saves it)")


if __name__ == "__main__":
    main()
