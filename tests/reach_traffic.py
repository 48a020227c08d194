"""Run the program's traffic under a line trace and write the lines of quasitrace it reached.

Usage: ``python tests/reach_traffic.py OUTDIR``.  Studies write into
``OUTDIR``, and the reached lines go to ``OUTDIR/reached.json`` as
``{module file name: [line, ...]}``.

The trace is installed before quasitrace is imported, so bodies that run
only at import time count as reached, and on every thread started
afterwards, so the exact lift's worker thread counts too.  The traffic is
what the program runs: ``run_study`` in each postprocessing variant and at
one level, ``main`` plain and with ``--check-mesh-only --export-mesh``, and
the benchmark's tiny offset sweep, which runs the saddle-point solve.
"""

import contextlib
import io
import json
import os
import sys
import threading
from importlib.util import find_spec
from pathlib import Path

PACKAGE = Path(find_spec("quasitrace").submodule_search_locations[0])
PREFIX = str(PACKAGE) + os.sep
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

reached: dict[str, set[int]] = {}


def trace(frame, event, arg):
    # called on every Python call of the process, so a string test comes first
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    lines = reached.setdefault(filename[len(PREFIX):], set())

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


def run_traffic(out: Path) -> None:
    import quasitrace.cli as cli

    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from spans import Tracer

    for space, postprocess, levels in (("rt0", "neumann", 2), ("bdm1", "both", 2), ("rt0", "gradient", 2),
                                       ("rt0", "neumann", 1)):
        outdir = out / f"{space}-{postprocess}-{levels}"
        cli.run_study(cli.StudyConfig(space=space, postprocess=postprocess, n0=8, levels=levels, output_dir=str(outdir)))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--n0", "8", "--levels", "2", "--check-mesh-only", "--export-mesh", "--out", str(out / "meshes")])
        cli.main(["--n0", "8", "--levels", "2", "--postprocess", "both", "--out", str(out / "main")])
    spec = workloads.workload_spec("offset_sweep", True)
    workloads.run_sweep_iteration(spec, Tracer(), True, workloads.sweep_offsets(5, spec))


if __name__ == "__main__":
    out = Path(sys.argv[1])
    sys.settrace(trace)
    threading.settrace(trace)
    run_traffic(out)
    sys.settrace(None)
    threading.settrace(None)
    (out / "reached.json").write_text(json.dumps({name: sorted(lines) for name, lines in sorted(reached.items())}))
