"""The benchmark workloads and the checks run on their outputs.

An iteration of a study is one ``quasitrace.cli.run_study`` call; an
iteration of the sweep solves a fixed list of seeded lattice offsets.  Each
level, and each (case, space) pair of the sweep, is one operation.  An
operation fails when it raises, gives non-finite values, makes
``solve_hybrid`` warn, breaks a mesh or acceptance bound, differs from the
reference ``study.csv``, or when the hybrid and saddle-point solutions
disagree.
"""

from __future__ import annotations

import inspect
import math
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quasitrace.cli as cli
from quasitrace import (
    AffineMap,
    Sphere,
    bisect_quads,
    build_bulk_mesh,
    build_rhs,
    condense_and_assemble,
    extract_trace_surface,
    manufactured_sphere,
    mesh_stats,
    mixed_space,
    solve_hybrid,
    solve_saddle_point,
    triangle_rule,
)
from quasitrace.elements import eval_vector

from spans import Tracer, duration

BOX = np.array([[-2.0, 2.0]] * 3)
SPACES = ("rt0", "bdm1")
RESIDUAL_BOUND = 1e-8          # solve_hybrid warns above this
GAP_BOUND = 1e-8               # acceptance criterion 6: hybrid against saddle point
ANGLE_BOUND = math.pi - 0.05   # acceptance criterion 4
# acceptance criteria 1 and 2, applied to the finest pair of levels
RATE_BOUNDS = {
    "rt0": {"err_p": 0.85, "err_u": 0.85, "err_eu": 1.7, "err_post": 1.7},
    "bdm1": {"err_p": 1.7, "err_u": 0.85, "err_eu": 1.7, "err_post": 1.7},
}

WORKLOADS = {
    "rt0_study": {"kind": "study", "space": "rt0", "postprocess": "neumann", "n0": 12, "levels": 4},
    "bdm1_study": {"kind": "study", "space": "bdm1", "postprocess": "both", "n0": 12, "levels": 4},
    "offset_sweep": {"kind": "sweep", "n": 24, "cases": 12},
}
# Sizes of the benchmark's self-test: same code paths, a second or two each.
TINY = {"study": {"n0": 4, "levels": 2}, "sweep": {"n": 8, "cases": 2}}


def workload_spec(name: str, tiny: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[spec["kind"]])
    return spec


@dataclass
class Operation:
    name: str
    reasons: list[str] = field(default_factory=list)


@dataclass
class SolveRecord:
    multipliers: int
    nnz: int
    residual: float
    warnings: list[str]
    finite: bool

    def defects(self) -> list[str]:
        out = []
        if not self.finite:
            out.append("non-finite solution or residual")
        if self.warnings:
            out.append("solve_hybrid warned: " + "; ".join(self.warnings))
        if not self.residual <= RESIDUAL_BOUND:
            out.append(f"residual {self.residual:.3e} above {RESIDUAL_BOUND:g}")
        return out


@dataclass
class Iteration:
    seconds: float
    unit_seconds: list[float]      # one per level or sweep case
    ops: list[Operation]
    counts: dict[str, int]
    residual_max: float
    gap_max: float
    units: list[dict]              # per level or case: sizes and counts


def observed_solve(solve, system, *args, **kwargs):
    """Call ``solve`` on a hybrid system and record what the checks need."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fields = solve(system, *args, **kwargs)
    residuals = np.array([fields.residual_flux, fields.residual_balance])
    record = SolveRecord(
        multipliers=int(system.n_multipliers),
        nnz=int(system.matrix.nnz),
        residual=float(residuals.max()),
        warnings=[str(w.message) for w in caught],
        finite=bool(
            np.isfinite(residuals).all()
            and np.isfinite(fields.u).all()
            and np.isfinite(fields.p_local).all()
        ),
    )
    return fields, record


def mesh_defects(stats) -> list[str]:
    out = []
    if stats.euler_characteristic != 2:
        out.append(f"Euler characteristic {stats.euler_characteristic}, not 2")
    if not stats.max_interior_angle <= ANGLE_BOUND:
        out.append(f"maximum angle {stats.max_interior_angle:.4f} above pi - 0.05")
    return out


def mesh_counts(mesh) -> dict[str, int]:
    """Sizes of a trace mesh; each cut tetrahedron gives one polygon."""
    cut_tets = len(np.unique(mesh.parent_tet))
    return {
        "cut_tets": cut_tets,
        "quads": mesh.n_triangles - cut_tets,
        "triangles": mesh.n_triangles,
        "edges": mesh.n_edges,
    }


def sum_counts(units: list[dict], keys) -> dict[str, int]:
    return {key: sum(u[key] for u in units) for key in keys}


@contextmanager
def patched(module, replacements: dict):
    """Rebind names in ``module`` for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def layer_functions(module):
    """(name, span name) of each public quasitrace function ``module`` calls by global name."""
    for name, obj in vars(module).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__.startswith("quasitrace.")
            and not name.startswith("_")
            and name not in ("run_study", "main")
        ):
            yield name, f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"


def run_study_iteration(spec: dict, tracer: Tracer, traced: bool, reference: bytes, outdir: Path) -> Iteration:
    """One ``run_study`` call, with level spans always and stage spans when traced.

    Spans come from rebinding names in the ``quasitrace.cli`` namespace, so
    they follow whatever sequence ``run_study`` executes.
    """
    levels = spec["levels"]
    ops = [Operation(f"level {k}") for k in range(levels)]
    meshes, solves = [], []
    replacements = {}
    if traced:
        replacements.update({name: tracer.wrap(span, getattr(cli, name)) for name, span in layer_functions(cli)})
    solve = replacements.get("solve_hybrid", cli.solve_hybrid)
    run_level = cli._run_level

    def level(*args, **kwargs):
        with tracer.span("cli.level", level=len(meshes)):
            mesh, record = run_level(*args, **kwargs)
        meshes.append(mesh)
        return mesh, record

    def probed_solve(system, *args, **kwargs):
        fields, record = observed_solve(solve, system, *args, **kwargs)
        solves.append(record)
        return fields

    replacements.update({"_run_level": level, "solve_hybrid": probed_solve})
    config = cli.StudyConfig(
        space=spec["space"], postprocess=spec["postprocess"], n0=spec["n0"], levels=levels,
        output_dir=str(outdir),
    )
    result = None
    start = time.perf_counter()
    with patched(cli, replacements):
        try:
            with tracer.span("cli.run_study"):
                result = cli.run_study(config)
        except Exception as exc:  # a raise fails every level of the iteration
            for op in ops:
                op.reasons.append(f"raised {type(exc).__name__}: {exc}")
    if result is not None:
        check_study(spec, result, solves, (outdir / "study.csv").read_bytes(), reference, ops)
    seconds = time.perf_counter() - start

    units = [
        {"n": spec["n0"] * 2**k, **mesh_counts(mesh), "multipliers": rec.multipliers, "system_nnz": rec.nnz,
         "residual": rec.residual}
        for k, (mesh, rec) in enumerate(zip(meshes, solves))
    ]
    counts = sum_counts(units, ("cut_tets", "quads", "triangles", "edges", "multipliers", "system_nnz"))
    counts["residual_warnings"] = sum(len(rec.warnings) for rec in solves)
    return Iteration(
        seconds=seconds,
        unit_seconds=[duration(s) for s in tracer.spans if s["name"] == "cli.level"],
        ops=ops,
        counts=counts,
        residual_max=max((rec.residual for rec in solves if rec.finite), default=0.0),
        gap_max=0.0,
        units=units,
    )


def check_study(spec, result, solves, csv: bytes, reference: bytes, ops: list[Operation]) -> None:
    records = result.report.records
    for op in ops[len(records):]:
        op.reasons.append("level missing from the report")
    for op, rec in zip(ops, records):
        op.reasons.extend(mesh_defects(rec.stats))
        norms = [rec.errors.err_p, rec.errors.err_u, rec.errors.err_eu, rec.errors.err_post]
        if spec["postprocess"] == "both":
            norms.append(rec.errors.err_post_alt)
        if not all(v is not None and math.isfinite(v) for v in norms):
            op.reasons.append("non-finite error norm")
    for op in ops[len(solves):]:
        op.reasons.append("no solve recorded")
    for op, rec in zip(ops, solves):
        op.reasons.extend(rec.defects())
    for name, bound in RATE_BOUNDS[spec["space"]].items():
        rate = result.report.rates(name)[-1]
        if not (rate is not None and rate >= bound):
            ops[-1].reasons.append(f"finest-pair rate of {name} is {rate}, below {bound}")
    if csv != reference:
        got, want = csv.split(b"\n"), reference.split(b"\n")
        bad = [k for k in range(len(ops)) if got[k + 1 : k + 2] != want[k + 1 : k + 2]]
        if got[:1] != want[:1] or not bad:
            bad = range(len(ops))
        for k in bad:
            ops[k].reasons.append("study.csv row differs from the reference")


def sweep_offsets(seed: int, spec: dict) -> np.ndarray:
    """Lattice offsets drawn uniformly within one background cell."""
    cell = (BOX[:, 1] - BOX[:, 0]) / spec["n"]
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(spec["cases"], 3)) * cell


def l2_gaps(mesh, space, hybrid, direct) -> tuple[float, float]:
    """Scalar and vector facet L2 norms of hybrid minus saddle point."""
    scalar = float(np.sqrt((mesh.areas() * (hybrid.u - direct.u) ** 2).sum()))
    maps = AffineMap.from_triangles(mesh.corner_points())
    pts, wts = triangle_rule(6)
    dv = eval_vector(maps, space, hybrid.p_local - direct.p_local, pts)
    vector = float(np.sqrt((wts[None, :] * maps.jac[:, None] * (dv**2).sum(axis=-1)).sum()))
    return scalar, vector


def run_sweep_iteration(spec: dict, tracer: Tracer, traced: bool, offsets: np.ndarray) -> Iteration:
    """Solve every offset case with both spaces on both solver paths."""
    surface, problem = Sphere(1.0), manufactured_sphere()
    spaces = {kind: mixed_space(kind) for kind in SPACES}
    stage = tracer.span if traced else (lambda name: nullcontext())
    solve = tracer.wrap("assembly.solve_hybrid", solve_hybrid) if traced else solve_hybrid
    ops, units, case_seconds = [], [], []
    residual_max = gap_max = 0.0
    start = time.perf_counter()
    for i, offset in enumerate(offsets):
        case_ops = {kind: Operation(f"case {i} {kind}") for kind in SPACES}
        ops.extend(case_ops.values())
        unit = {"case": i, "offset": offset.tolist(), "residual_warnings": 0}
        with tracer.span("bench.case", case=i) as case_span:
            try:
                with stage("trace_mesh.build_bulk_mesh"):
                    bulk = build_bulk_mesh(BOX + offset[:, None], spec["n"])
                with stage("trace_mesh.extract_trace_surface"):
                    raw = extract_trace_surface(bulk, surface.signed_distance)
                with stage("trace_mesh.bisect_quads"):
                    mesh = bisect_quads(raw, surface=surface)
                with stage("trace_mesh.mesh_stats"):
                    stats = mesh_stats(mesh, surface)
                with stage("assembly.build_rhs"):
                    rhs = build_rhs(problem.f, mesh, surface)
                unit.update(mesh_counts(mesh))
                hybrid = {}
                for kind, space in spaces.items():
                    with stage("assembly.condense_and_assemble"):
                        system = condense_and_assemble(mesh, space, rhs=rhs)
                    hybrid[kind], record = observed_solve(solve, system)
                    unit[f"multipliers_{kind}"] = record.multipliers
                    unit[f"system_nnz_{kind}"] = record.nnz
                    unit[f"residual_{kind}"] = record.residual
                    unit["residual_warnings"] += len(record.warnings)
                    if record.finite:
                        residual_max = max(residual_max, record.residual)
                    case_ops[kind].reasons.extend(record.defects() + mesh_defects(stats))
                direct = {}
                for kind, space in spaces.items():
                    with stage("assembly.solve_saddle_point"):
                        direct[kind] = solve_saddle_point(mesh, space, rhs=rhs)
                with stage("bench.check"):
                    for kind, space in spaces.items():
                        residuals = (direct[kind].residual_flux, direct[kind].residual_balance)
                        gaps = l2_gaps(mesh, space, hybrid[kind], direct[kind])
                        if not all(math.isfinite(v) for v in residuals + gaps):
                            case_ops[kind].reasons.append("non-finite saddle-point residual or gap")
                            continue
                        residual_max = max(residual_max, *residuals)
                        gap_max = max(gap_max, *gaps)
                        if max(gaps) > GAP_BOUND:
                            case_ops[kind].reasons.append(f"hybrid and saddle point differ by {max(gaps):.3e}")
            except Exception as exc:  # a raise fails both solves of the case
                for op in case_ops.values():
                    op.reasons.append(f"raised {type(exc).__name__}: {exc}")
        case_seconds.append(duration(case_span))
        units.append(unit)
    seconds = time.perf_counter() - start
    solved = [u for u in units if "multipliers_bdm1" in u]
    counts = sum_counts(solved, ("cut_tets", "quads", "triangles", "edges", "residual_warnings"))
    counts["multipliers"] = sum(u[f"multipliers_{k}"] for u in solved for k in SPACES)
    counts["system_nnz"] = sum(u[f"system_nnz_{k}"] for u in solved for k in SPACES)
    return Iteration(
        seconds=seconds,
        unit_seconds=case_seconds,
        ops=ops,
        counts=counts,
        residual_max=residual_max,
        gap_max=gap_max,
        units=units,
    )
