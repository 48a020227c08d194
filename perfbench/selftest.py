"""Self-test of the benchmark on tiny sizes (a few seconds per run).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced stage spans cover each level span, that an injected bad
reference CSV trips the failure counter, and that a sweep seed fixes its
offsets and counts.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import coverage

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COVERAGE_BOUND = 0.95
# Runnable by hand (see NOTES.md) though BENCHMARK.json does not list it.
UNLISTED = ("bdm1_study",)


def bench(workload: str, trace: int, seed: int = 5, *extra: str) -> tuple[dict, dict]:
    """Run one tiny benchmark pass; return its detail and result lines."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_metrics(spec: dict, failures: list[str]) -> None:
    for workload in [w["name"] for w in spec["workloads"]] + list(UNLISTED):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            detail, result = bench(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{workload} trace={trace}: not correct: {detail['failures']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{workload} trace={trace}: metrics {got} differ from BENCHMARK.json {want}")
            if trace == 1 and workload.endswith("_study"):
                spans = json.loads((ROOT / detail["spans_file"]).read_text())
                shares = coverage(spans, "cli.level")
                if len(shares) != len(detail["units"]) or min(shares) < COVERAGE_BOUND:
                    failures.append(f"{workload}: stage spans cover level spans by {shares}")


def check_bad_reference(failures: list[str]) -> None:
    out_root = ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        bad = Path(tmp)
        shutil.copytree(HERE / "reference", bad, dirs_exist_ok=True)
        path = bad / "rt0_study.tiny.csv"
        rows = path.read_text().split("\n")
        rows[2] = rows[2].replace("1", "2", 1)
        path.write_text("\n".join(rows))
        detail, result = bench("rt0_study", 0, 5, "--reference", str(bad))
    flagged = [f["name"] for f in detail["failures"]]
    if result["correct"] or result["failed"] != 1 or flagged != ["level 1"]:
        failures.append(f"bad reference CSV not caught: failed={result['failed']} ops={flagged}")
    elif result["metrics"]["ok_frac"]["value"] >= 1.0:
        failures.append("bad reference CSV did not lower ok_frac")


def check_sweep_seed(failures: list[str]) -> None:
    first, _ = bench("offset_sweep", 0, 11)
    again, _ = bench("offset_sweep", 0, 11)
    other, _ = bench("offset_sweep", 0, 12)
    keep = ("offsets", "units", "counts")
    if any(first[k] != again[k] for k in keep):
        failures.append("the same sweep seed gave different offsets or counts")
    if first["offsets"] == other["offsets"]:
        failures.append("different sweep seeds gave the same offsets")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for check in (lambda f: check_metrics(spec, f), check_bad_reference, check_sweep_seed):
        check(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
