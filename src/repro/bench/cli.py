"""Command-line entry point: ``python -m repro.bench <target> [flags]``.

Every target — the paper's figures and tables, the bench runs behind the
regression gates, the crash matrix — is one record in
:mod:`repro.bench.targets`. Each becomes a subcommand that accepts
exactly the flags its target honours (``<target> --help`` lists them
with their defaults), plus three commands over the registry::

    python -m repro.bench <target> [flags] [--json DIR]
    python -m repro.bench gate [TARGET ...]
    python -m repro.bench refresh [TARGET ...]
    python -m repro.bench compare BASELINE.json CURRENT.json [--json DIR]

``gate`` runs each named gate (default: every gate) at its CI size into
``results/<target>-gate/``, checks the target's invariants, compares its
``<target>.json`` against ``benchmarks/baselines/`` and exits 1 on any
problem. ``refresh`` re-records the baselines of the named targets
(default: all of them) after a deliberate behaviour change. ``compare``
diffs two documents of one registered schema and exits 1 on a
regression; ``--json`` also writes the ``repro.compare/1`` report.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from typing import List, Optional

from repro.bench.compare import (
    compare_documents,
    render_compare,
    report_payload,
)
from repro.bench.report import write_json
from repro.bench.targets import FLAGS, GATES, TARGETS, BenchTarget, read

BASELINE_DIR = os.path.join("benchmarks", "baselines")
RESULTS_DIR = "results"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the NobLSM reproduction's figures, benchmarks "
                    "and regression gates.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="TARGET"
    )
    for target in TARGETS.values():
        sub = commands.add_parser(
            target.name,
            help=target.help,
            description=target.help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        for key, default in target.flags.items():
            option, kwargs = FLAGS[key]
            sub.add_argument(option, dest=key, default=default, **kwargs)
        sub.add_argument(
            "--json", metavar="DIR", help="also write the documents into DIR"
        )
    for command, text in (
        ("gate", "run gates at CI size, check and compare (default: all)"),
        ("refresh", "re-record gate baselines (default: all)"),
    ):
        sub = commands.add_parser(command, help=text, description=text)
        sub.add_argument("targets", nargs="*", metavar="TARGET")
    sub = commands.add_parser(
        "compare", help="diff two documents; exit 1 on a regression"
    )
    sub.add_argument("paths", nargs="*", help="BASELINE.json CURRENT.json")
    sub.add_argument(
        "--json", metavar="DIR", help="also write DIR/compare.json"
    )
    return parser


def _ci_args(parser, target: BenchTarget, out_dir: str):
    return parser.parse_args(
        [target.name, *target.ci_argv, "--json", out_dir]
    )


def _gate_problems(parser, target: BenchTarget) -> List[str]:
    out_dir = os.path.join(RESULTS_DIR, f"{target.name}-gate")
    shutil.rmtree(out_dir, ignore_errors=True)
    print(f"== gate {target.name} {' '.join(target.ci_argv)}")
    problems = []
    if target.run(_ci_args(parser, target, out_dir)) != 0:
        problems.append("the run exited non-zero")
    try:
        if target.check is not None:
            problems += target.check(out_dir)
        if target.metrics:
            document = f"{target.name}.json"
            report = compare_documents(
                read(BASELINE_DIR, document), read(out_dir, document)
            )
            print(render_compare(report))
            write_json(
                os.path.join(out_dir, "compare.json"), report_payload(report)
            )
            if not report.passed:
                problems.append(f"{document} regressed against {BASELINE_DIR}")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


def _gate(parser, targets: List[BenchTarget]) -> int:
    failed = 0
    for target in targets:
        problems = _gate_problems(parser, target)
        for problem in problems:
            print(f"GATE FAIL {target.name}: {problem}")
        if not problems:
            print(f"GATE PASS {target.name}")
        failed += bool(problems)
    return 1 if failed else 0


def _refresh(parser, targets: List[BenchTarget]) -> int:
    for target in targets:
        if target.run(_ci_args(parser, target, BASELINE_DIR)) != 0:
            return 1
    return 0


def _compare(args) -> int:
    if len(args.paths) != 2:
        print(
            "usage: python -m repro.bench compare BASELINE.json CURRENT.json",
            file=sys.stderr,
        )
        return 2
    base_path, cur_path = args.paths
    report = compare_documents(read(base_path), read(cur_path))
    print(render_compare(report))
    if args.json:
        path = os.path.join(args.json, "compare.json")
        write_json(path, report_payload(report))
        print(f"\nwrote {path}")
    return 0 if report.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args)
    if args.command in ("gate", "refresh"):
        eligible = {
            t.name: t
            for t in GATES
            if args.command == "gate" or t.baselines
        }
        unknown = [name for name in args.targets if name not in eligible]
        if unknown:
            parser.error(
                f"{args.command}: {', '.join(unknown)} is not one of "
                f"{', '.join(eligible)}"
            )
        picked = [eligible[name] for name in args.targets]
        run = _gate if args.command == "gate" else _refresh
        return run(parser, picked or list(eligible.values()))
    return TARGETS[args.command].run(args)


if __name__ == "__main__":
    sys.exit(main())
