"""Every committed ``BENCH_*.json`` compares two commits run for run.

The host drifts between sessions, so absolute times alone say little.  A
record names the parent and the change, keeps the raw result line that
``perfbench/run.py`` printed for each side of every alternating pair, and
states the change/parent ratio of each pair and their median; these tests
recompute the ratios from the raw lines.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def metric(result_line: str, name: str) -> float:
    return json.loads(result_line)["metrics"][name]["value"]


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_carries_per_pair_ratios(path):
    record = json.loads(path.read_text())
    assert all(record[side]["source_sha256"] for side in SIDES)
    assert record["env"]
    assert record["workloads"]
    for workload in record["workloads"].values():
        pairs = workload["pairs"]
        assert pairs
        names = workload["median_ratios"].keys()
        assert "run_s" in names
        for pair in pairs:
            assert set(pair["ratios"]) == set(names)
            for name, ratio in pair["ratios"].items():
                parent, change = (metric(pair[side]["result_line"], name) for side in SIDES)
                assert ratio == pytest.approx(change / parent, rel=1e-12)
        for name, median in workload["median_ratios"].items():
            assert median == pytest.approx(statistics.median(pair["ratios"][name] for pair in pairs), rel=1e-12)
