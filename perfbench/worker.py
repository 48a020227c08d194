"""One benchmark iteration in a fresh process, printed as one JSON line.

Each iteration runs in its own process, as a command-line study does, so
every sample pays the same first-call costs and has its own peak memory.
perfbench/run.py starts this file; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def blas_threads_in_force() -> dict:
    """Thread count each OpenBLAS shipped with NumPy and SciPy reports."""
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[Path(path).name] = int(getattr(lib, symbol)())
                    break
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", type=Path, required=True)
    args = parser.parse_args()

    spec = workloads.workload_spec(args.workload, args.tiny)
    tracer = Tracer()
    extra = {}
    if spec["kind"] == "study":
        suffix = ".tiny.csv" if args.tiny else ".csv"
        reference = (args.reference / f"{args.workload}{suffix}").read_bytes()
        out_root = ROOT / ".perfbench"
        out_root.mkdir(exist_ok=True)
        outdir = Path(tempfile.mkdtemp(prefix="out-", dir=out_root))
        try:
            iteration = workloads.run_study_iteration(spec, tracer, args.trace == 1, reference, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    else:
        offsets = workloads.sweep_offsets(args.seed, spec)
        iteration = workloads.run_sweep_iteration(spec, tracer, args.trace == 1, offsets)
        extra["offsets"] = offsets.tolist()
    print(json.dumps({
        **dataclasses.asdict(iteration),
        **extra,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas_threads_in_force": blas_threads_in_force()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
