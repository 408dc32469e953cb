#!/usr/bin/env python3
"""Reproduce the paper's motivation (Section 3) end to end.

1. Figure 2a — write 4 GB / 8 GB in 2 MB files with Async, Direct and
   Sync strategies and compare against the paper's measurements.
2. Figure 2b — LevelDB with and without syncs, 2 MB vs 64 MB SSTables.

Run:  python examples/sync_cost_study.py
"""

from repro.bench.figures import fig2a, fig2b, render_fig2a, render_fig2b

PAPER_FIG2A = {
    ("async", 4): 0.83,
    ("async", 8): 1.72,
    ("direct", 4): 8.18,
    ("direct", 8): 16.42,
    ("sync", 4): 10.06,
    ("sync", 8): 22.44,
}


def main() -> None:
    print(render_fig2a(fig2a()))
    print("\npaper measured:", PAPER_FIG2A)
    print("=> Async -> Direct ~9.5x, Direct -> Sync +~37%, overall ~13x\n")

    scale = 1000.0
    data = fig2b(scale)
    print(render_fig2b(data))
    for workload in ("fillrand", "overwrt"):
        small = 1 - data[f"{workload}-2MB-nosync"] / data[f"{workload}-2MB-sync"]
        large = 1 - data[f"{workload}-64MB-nosync"] / data[f"{workload}-64MB-sync"]
        shrink = 1 - data[f"{workload}-64MB-sync"] / data[f"{workload}-2MB-sync"]
        print(
            f"{workload}: no-sync saves {small:.0%} at 2MB tables, "
            f"{large:.0%} at 64MB; 2MB->64MB itself saves {shrink:.0%}"
        )
    print(
        "paper: 53.2%/51.4% at 2MB; 45.6%/59.4% at 64MB; 62.4%/56.2% from size"
    )
    print(
        "=> large SSTables alone cannot fully mitigate the cost of syncs"
    )


if __name__ == "__main__":
    main()
