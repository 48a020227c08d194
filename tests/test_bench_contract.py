"""The benchmark's workloads still run against the package.

``perfbench/`` passes quasitrace's objects between its own functions
(``mixed_space`` into ``condense_and_assemble``, ``solve_saddle_point`` and
``eval_vector``; hybrid systems and solution fields into its checks).  These
tests run those workload functions at their self-test sizes, traced, and
require every operation to pass, so a break in that contract fails here and
not only in ``perfbench/selftest.py`` or a failed benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def sweep_reasons() -> dict[str, list[str]]:
    """Failure reasons of every operation of the tiny traced offset sweep."""
    spec = workloads.workload_spec("offset_sweep", True)
    iteration = workloads.run_sweep_iteration(spec, Tracer(), True, workloads.sweep_offsets(5, spec))
    return {op.name: op.reasons for op in iteration.ops}


def test_offset_sweep_operations_pass():
    reasons = sweep_reasons()
    assert len(reasons) == 2 * len(workloads.SPACES)
    assert all(not r for r in reasons.values()), reasons


@pytest.mark.parametrize("name", ["rt0_study", "bdm1_study"])
def test_study_operations_pass(name, tmp_path):
    spec = workloads.workload_spec(name, True)
    reference = (PERFBENCH / "reference" / f"{name}.tiny.csv").read_bytes()
    iteration = workloads.run_study_iteration(spec, Tracer(), True, reference, tmp_path)
    reasons = {op.name: op.reasons for op in iteration.ops}
    assert len(reasons) == spec["levels"]
    assert all(not r for r in reasons.values()), reasons


def test_contract_sees_a_failed_operation(monkeypatch):
    monkeypatch.setattr(workloads, "GAP_BOUND", 0.0)
    reasons = sweep_reasons()
    assert all(any("hybrid and saddle point differ" in r for r in rs) for rs in reasons.values()), reasons
