"""Makefile and CI hygiene: both derive their gates from the registry.

Every gate target must expand to commands that put the source tree on
PYTHONPATH via the shared ``RUN`` variable — a target that spells
``PYTHONPATH=src`` by hand (or forgets it entirely) drifts the moment
the variable changes. The gate list itself comes from
:data:`repro.bench.targets.GATES`, so a gate added to the registry is
dry-run here, must appear in CI's gate matrix, and must have its
baselines committed. ``make -n`` keeps this a pure dry-run smoke test:
nothing is built, only the expanded recipes are inspected.
"""

import re
import subprocess
from pathlib import Path

import pytest

from repro.bench.targets import GATES

REPO = Path(__file__).resolve().parent.parent
MAKEFILE = REPO / "Makefile"
CI = REPO / ".github" / "workflows" / "ci.yml"

GATE_TARGETS = ["perf-gate"] + [f"{t.name}-gate" for t in GATES]
REFRESH_TARGETS = ["refresh-baselines"] + [
    f"refresh-{t.name}-baseline" for t in GATES if t.baselines
]


def dry_run(target):
    result = subprocess.run(
        ["make", "-n", target],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, (
        f"make -n {target} failed:\n{result.stderr}"
    )
    return result.stdout


def python_lines(target):
    out = dry_run(target)
    lines = [
        line
        for line in out.splitlines()
        if "python" in line and "-m" in line
    ]
    assert lines, f"{target} expanded to no python invocations"
    return lines


def test_makefile_declares_shared_run_variable():
    text = MAKEFILE.read_text()
    assert re.search(r"^RUN\s*=\s*PYTHONPATH=src ", text, re.M), (
        "Makefile must define RUN = PYTHONPATH=src ..."
    )


def test_no_target_spells_pythonpath_by_hand():
    """PYTHONPATH=src appears exactly once: in the RUN definition."""
    text = MAKEFILE.read_text()
    assert text.count("PYTHONPATH=src") == 1


@pytest.mark.parametrize("target", GATE_TARGETS)
def test_gate_target_exists_and_uses_pythonpath(target):
    for line in python_lines(target):
        assert "PYTHONPATH=src" in line, (
            f"{target} runs python without PYTHONPATH=src: {line}"
        )


@pytest.mark.parametrize("target", ["test", "test-fast"])
def test_pytest_targets_use_pythonpath(target):
    out = dry_run(target)
    assert "PYTHONPATH=src" in out


def test_every_gate_has_a_refresh_partner():
    """Each baselined gate has a refresh target someone can re-record
    it with, and each gate's make target runs exactly that gate."""
    for target in REFRESH_TARGETS:
        for line in python_lines(target):
            assert "PYTHONPATH=src" in line and "repro.bench refresh" in line
    for gate in GATES:
        (line,) = python_lines(f"{gate.name}-gate")
        assert line.endswith(f"-m repro.bench gate {gate.name}"), line


def test_no_gate_sizes_outside_the_registry():
    text = MAKEFILE.read_text()
    assert "GATE_ARGS" not in text
    assert not re.search(r"--(rate|duration|points|modes)\b", text)
    assert not re.search(r"--(rate|duration|points|modes)\b", CI.read_text())


def test_ci_gate_matrix_matches_the_registry():
    match = re.search(r"^\s+target: \[([^\]]*)\]", CI.read_text(), re.M)
    assert match, "ci.yml has no gate matrix"
    matrix = [name.strip() for name in match.group(1).split(",")]
    assert matrix == [t.name for t in GATES]


@pytest.mark.parametrize("gate", GATES, ids=lambda t: t.name)
def test_gate_baselines_are_committed(gate):
    if gate.metrics:
        assert f"{gate.name}.json" in gate.baselines
    for name in gate.baselines:
        assert (REPO / "benchmarks" / "baselines" / name).is_file(), name
