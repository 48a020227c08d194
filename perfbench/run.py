"""Stage-timed benchmark of the quasitrace mixed pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload rt0_study --seed 1 --seconds 50 --trace 0

The workloads are listed in BENCHMARK.json and explained in
perfbench/NOTES.md.  Each iteration of the workload runs in a fresh process
(perfbench/worker.py) and checks its own outputs; iterations repeat while the
next one is expected to end within ``--seconds`` (at least one runs).  The
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
holds the details: environment stamp, samples, per-level or per-case sizes,
failures and, when traced, the self time of every stage.  A traced run also
writes its spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import coverage, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
# Self times summed into the per-layer figure for the three frame_at consumers.
FRAME_CONSUMERS = ("trace_mesh.mesh_stats", "assembly.build_rhs", "postprocess_errors.compute_errors")
# Spans of the loop around the stages: run_study and its levels, or the
# sweep's cases.
PIPELINE_SPANS = ("cli.run_study", "cli.level", "bench.case")
# Stages that run on every workload; the others are reported in the details.
TIMED_STAGES = (
    "trace_mesh.build_bulk_mesh",
    "trace_mesh.extract_trace_surface",
    "trace_mesh.bisect_quads",
    "trace_mesh.mesh_stats",
    "assembly.build_rhs",
    "assembly.condense_and_assemble",
    "assembly.solve_hybrid",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="rt0_study, bdm1_study or offset_sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (perfbench/selftest.py)")
    parser.add_argument("--reference", type=Path, default=HERE / "reference",
                        help="directory of reference study.csv files")
    return parser.parse_args(argv)


def cap_blas_threads() -> dict:
    """Cap the BLAS thread variables at nproc for every process started later."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = 0
        os.environ[var] = str(value if 1 <= value <= nproc else nproc)
    return {"nproc": nproc, "cap": nproc, **{var: int(os.environ[var]) for var in BLAS_VARS}}


def time_setup() -> float:
    """Seconds from starting a process until quasitrace is imported and ready."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def run_iteration(args) -> dict:
    """Run one iteration in a fresh worker process and return what it reports."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--reference", str(args.reference.resolve())]
    start = time.perf_counter()
    done = subprocess.run(cmd + ["--tiny"] * args.tiny, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    iteration = json.loads(done.stdout.splitlines()[-1])
    iteration["wall"] = time.perf_counter() - start
    return iteration


def stamp(blas: dict, iterations) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quasitrace").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **iterations[0]["env"],
        "blas_threads": blas,
    }


def median(values) -> float:
    return float(statistics.median(values))


def unit_medians(iterations) -> list[float]:
    """Median time of each level or sweep case over the iterations."""
    return [median(times) for times in zip(*(it["unit_seconds"] for it in iterations))]


def end_to_end(iterations, setup, ops) -> dict:
    failed = sum(1 for op in ops if op["reasons"])
    return {
        "run_s": (median(it["seconds"] for it in iterations), "s"),
        "max_level_s": (max(unit_medians(iterations)), "s"),
        "tri_per_s": (median(it["counts"]["triangles"] / it["seconds"] for it in iterations), "1/s"),
        "peak_rss_mb": (median(it["peak_rss_mb"] for it in iterations), "MB"),
        "setup_s": (median(setup), "s"),
        "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
    }


def per_layer(iterations, spans) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and every stage's median self time."""
    selfs = [self_seconds(it["spans"]) for it in iterations]
    stage_s = {name: median(s.get(name, 0.0) for s in selfs) for name in sorted(set().union(*selfs))}
    unit = "cli.level" if "cli.level" in stage_s else "bench.case"
    counts = iterations[0]["counts"]
    metrics = {f"{name}.s": (stage_s[name], "s") for name in TIMED_STAGES}
    metrics.update({
        "geometry.frame_consumers.s": (sum(stage_s.get(name, 0.0) for name in FRAME_CONSUMERS), "s"),
        "pipeline.self_s": (sum(stage_s.get(name, 0.0) for name in PIPELINE_SPANS), "s"),
        "assembly.solve_hybrid.rss_growth_mb": (median(
            sum(s["rss_kb"] for s in it["spans"] if s["name"] == "assembly.solve_hybrid") / 1024.0
            for it in iterations), "MB"),
        "trace.run_s": (median(it["seconds"] for it in iterations), "s"),
        "trace.level_coverage": (min(coverage(spans, unit)), "ratio"),
        **{f"trace_mesh.{key}": (counts[key], "count") for key in ("cut_tets", "quads", "triangles", "edges")},
        **{f"assembly.{key}": (counts[key], "count") for key in ("multipliers", "system_nnz", "residual_warnings")},
        "assembly.residual_max": (max(it["residual_max"] for it in iterations), "rel"),
        "assembly.hybrid_saddle_gap": (max(it["gap_max"] for it in iterations), "rel"),
    })
    return metrics, stage_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quasitrace" / "__init__.py").is_file():
        print(f"error: no quasitrace sources under {SRC}", file=sys.stderr)
        return 2
    blas = cap_blas_threads()
    setup = [time_setup() for _ in range(SETUP_PROBES)]
    iterations = []
    deadline = time.perf_counter() + args.seconds
    while not iterations or time.perf_counter() + iterations[-1]["wall"] <= deadline:
        iterations.append(run_iteration(args))

    spans = []
    for k, it in enumerate(iterations):
        for span in it["spans"]:
            span["run"] = k
        spans.extend(it["spans"])
        if it["counts"] != iterations[0]["counts"]:
            for op in it["ops"]:
                op["reasons"].append(f"iteration {k} counts differ from iteration 0")
    ops = [op for it in iterations for op in it["ops"]]
    failed = sum(1 for op in ops if op["reasons"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(iterations),
        "run_s_all": [it["seconds"] for it in iterations],
        "unit_s_all": [it["unit_seconds"] for it in iterations],
        "setup_s_all": setup,
        "residual_max": max(it["residual_max"] for it in iterations),
        "units": iterations[0]["units"],
        "counts": iterations[0]["counts"],
        "failures": [op for op in ops if op["reasons"]],
        "env": stamp(blas, iterations),
    }
    if "offsets" in iterations[0]:
        detail["offsets"] = iterations[0]["offsets"]
    if args.trace:
        metrics, detail["stage_self_s"] = per_layer(iterations, spans)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        OUT.mkdir(exist_ok=True)
        spans_file.write_text(json.dumps(spans))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = end_to_end(iterations, setup, ops)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
