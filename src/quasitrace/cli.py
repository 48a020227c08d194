"""Command-line convergence studies on the unit sphere.

Runs the mixed method over a sequence of halved background meshes, collects
mesh-quality data and error norms per level, and writes a fixed-schema CSV
plus a dependency-free log-log SVG plot.
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import build_rhs, condense_and_assemble, solve_hybrid
from .elements import GENERATOR_TABLES, mixed_space
from .geometry import Sphere
from .postprocess_errors import (
    ErrorReport,
    LevelRecord,
    compute_errors,
    lift_exact,
    manufactured_sphere,
    postprocess_gradient,
    postprocess_neumann,
)
from .trace_mesh import bisect_quads, build_bulk_mesh, extract_trace_surface, mesh_stats, write_off

# The error norms a study reports, in column, plot and log order.
ERRORS = ("err_p", "err_u", "err_eu", "err_post")
CSV_COLUMNS = ",".join(
    ["level", "h", "n_tri", "max_angle", "max_abs_d", *ERRORS, *(name.replace("err_", "rate_") for name in ERRORS)]
)
# Size of the study.svg canvas in pixels.
SVG_WIDTH, SVG_HEIGHT = 640, 480
SPACES = tuple(GENERATOR_TABLES)
# The scalars each postprocess variant computes, in err_post, err_post_alt order.
POSTPROCESS_SCALARS = {"neumann": ("neumann",), "gradient": ("gradient",), "both": ("neumann", "gradient")}


@dataclass(frozen=True)
class StudyConfig:
    """One refinement study; the command line takes its defaults from here."""

    space: str = "rt0"
    postprocess: str = "neumann"
    box: tuple = (-2.0, 2.0, -2.0, 2.0, -2.0, 2.0)
    n0: int = 8
    levels: int = 4
    output_dir: str | None = None
    export_mesh: bool = False
    check_mesh_only: bool = False

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"unknown space '{self.space}'")
        if self.postprocess not in POSTPROCESS_SCALARS:
            raise ValueError(f"unknown postprocess variant '{self.postprocess}'")
        for name, least in (("n0", 4), ("levels", 1)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.export_mesh and not self.output_dir:
            raise ValueError("export_mesh needs an output_dir")
        box = np.asarray(self.box, dtype=float)
        if box.size != 6:
            raise ValueError("box needs six bounds")
        # NaN fails every margin comparison below, so it has to be caught here
        if not np.all(np.isfinite(box)):
            raise ValueError("box must be finite")
        lo, hi = box.reshape(3, 2).T
        if np.any(lo > -1.5) or np.any(hi < 1.5):
            raise ValueError("box must contain the unit sphere with margin at least 0.5")
        # six floats, however given, so that configs compare and hash
        object.__setattr__(self, "box", tuple(map(float, box.ravel())))


@dataclass(frozen=True)
class StudyResult:
    report: ErrorReport
    seconds: float
    files: list


def _run_level(config: StudyConfig, surface, problem, space, n: int, level: int):
    # a failure that a finer lattice or a smaller box avoids names the lattice and that remedy
    spacing = np.ptp(np.reshape(config.box, (3, 2)), axis=1).max() / n
    lattice = f"level {level} (n = {n}, lattice spacing {spacing:.3g})"
    remedy = "use a larger n0 or a smaller box"
    # The bulk lattice is freed once it is cut, the raw cut once the mesh exists.
    raw = extract_trace_surface(build_bulk_mesh(config.box, n), surface.signed_distance)
    if len(raw.faces) == 0:  # a lattice too coarse for the surface cuts nothing out of it
        raise ValueError(f"{lattice}: the lattice cuts no facet out of the surface; {remedy}")
    mesh = bisect_quads(raw, surface=surface)
    del raw
    stats = mesh_stats(mesh, surface)
    if stats.euler_characteristic != 2:
        raise RuntimeError(f"level {level}: extracted surface is not a topological sphere")
    # the load's frames, the level's one frame pass, reject the mesh, so both modes sample it
    try:
        rhs = build_rhs(problem.f, mesh, surface)
    except ValueError as exc:  # a coarse lattice cuts facets far from the surface
        raise ValueError(f"{lattice}: {exc}; {remedy}") from exc
    errors = None
    if not config.check_mesh_only:
        system = condense_and_assemble(mesh, space, rhs=rhs)
        # Large meshes are lifted on a worker thread while this thread factors
        # the system; compute_errors waits for the samples.
        exact = lift_exact(mesh, surface, problem)
        fields = solve_hybrid(system)
        del system  # the local inverses are not needed past the solve
        # called by their global names, which perfbench rebinds to time them
        u_stars = [
            postprocess_neumann(mesh, space, fields, rhs) if scalar == "neumann"
            else postprocess_gradient(mesh, space, fields)
            for scalar in POSTPROCESS_SCALARS[config.postprocess]
        ]
        errors = compute_errors(mesh, space, exact, fields, *u_stars)
    return mesh, LevelRecord(level=level, n=n, stats=stats, errors=errors, rhs_mean_correction=rhs.mean_correction)


def run_study(config: StudyConfig) -> StudyResult:
    """Execute the refinement study described by ``config``."""
    start = time.perf_counter()
    surface = Sphere(1.0)
    problem = manufactured_sphere()
    space = mixed_space(config.space)
    out = Path(config.output_dir) if config.output_dir else None
    files: list[Path] = []
    records: list[LevelRecord] = []
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    for level in range(config.levels):
        n = config.n0 * 2**level
        mesh, record = _run_level(config, surface, problem, space, n, level)
        records.append(record)
        if config.export_mesh:
            path = out / f"mesh_level{level}.off"
            write_off(mesh, path)
            files.append(path)
    report = ErrorReport(space=config.space, records=records)

    if out is not None and not config.check_mesh_only:
        csv_path = out / "study.csv"
        csv_path.write_text(report_csv(report))
        files.append(csv_path)
        svg_path = out / "study.svg"
        svg_path.write_text(report_svg(report))
        files.append(svg_path)
    return StudyResult(report=report, seconds=time.perf_counter() - start, files=files)


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return f"{value:.12g}"


def report_csv(report: ErrorReport) -> str:
    rates = [report.rates(name) for name in ERRORS]
    lines = [CSV_COLUMNS]
    for i, rec in enumerate(report.records):
        cells = [rec.level, rec.stats.h, rec.stats.n_triangles, rec.stats.max_interior_angle, rec.stats.max_abs_dist]
        cells += [getattr(rec.errors, name) for name in ERRORS] + [rate[i] for rate in rates]
        lines.append(",".join(map(_fmt, cells)))
    return "\n".join(lines) + "\n"


def report_svg(report: ErrorReport) -> str:
    """Log-log error plot with reference slopes 1 and 2, no plotting deps."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    series = {name: (color, report.column(name)) for name, color in zip(ERRORS, colors)}
    hs = report.hs()
    xs = np.log10(hs)
    all_vals = [v for _, vals in series.values() for v in vals if v > 0]
    ys_min, ys_max = np.log10(min(all_vals)), np.log10(max(all_vals))
    x_min, x_max = min(xs), max(xs)
    pad = 0.15
    x_lo, x_hi = x_min - pad, x_max + pad
    y_lo, y_hi = ys_min - pad, ys_max + pad
    ml, mr, mt, mb = 60, 20, 30, 45

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (SVG_WIDTH - ml - mr)

    def py(y):
        return SVG_HEIGHT - mb - (y - y_lo) / (y_hi - y_lo) * (SVG_HEIGHT - mb - mt)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="{SVG_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="13">h (log scale), {report.space}</text>',
        f'<text x="15" y="{SVG_HEIGHT / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 15 {SVG_HEIGHT / 2:.1f})">L2 error (log scale)</text>',
    ]
    # decade grid
    for d in range(int(np.floor(y_lo)), int(np.ceil(y_hi)) + 1):
        if y_lo <= d <= y_hi:
            parts.append(
                f'<line x1="{px(x_lo):.1f}" y1="{py(d):.1f}" x2="{px(x_hi):.1f}" y2="{py(d):.1f}" '
                f'stroke="#dddddd"/>'
                f'<text x="{px(x_lo) - 4:.1f}" y="{py(d) + 4:.1f}" text-anchor="end" '
                f'font-size="11">1e{d}</text>'
            )
    legend_y = mt + 6
    for name, (color, vals) in series.items():
        pts = " ".join(
            f"{px(np.log10(h)):.2f},{py(np.log10(v)):.2f}"
            for h, v in zip(hs, vals)
            if v > 0
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{SVG_WIDTH - mr - 90}" y="{legend_y}" font-size="12" fill="{color}">{name}</text>'
        )
        legend_y += 16
    # reference slope triangles anchored near the coarsest level
    x0, x1 = x_max - 0.35, x_max - 0.05
    for rate, offset in ((1, 0.35), (2, 0.95)):
        yb = ys_min + offset
        parts.append(
            f'<polyline points="{px(x0):.1f},{py(yb):.1f} {px(x1):.1f},{py(yb):.1f} '
            f'{px(x1):.1f},{py(yb + rate * (x1 - x0)):.1f} {px(x0):.1f},{py(yb):.1f}" '
            f'fill="none" stroke="#555555" stroke-width="1"/>'
            f'<text x="{px(x1) + 4:.1f}" y="{py(yb + 0.5 * rate * (x1 - x0)):.1f}" '
            f'font-size="11" fill="#555555">{rate}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasitrace",
        description="Mixed-method convergence study on a level-set sphere mesh.",
    )
    parser.add_argument("--space", choices=SPACES, default=StudyConfig.space)
    parser.add_argument("--postprocess", choices=POSTPROCESS_SCALARS, default=StudyConfig.postprocess)
    parser.add_argument("--n0", type=int, default=StudyConfig.n0, help="initial subdivisions per axis")
    parser.add_argument("--levels", type=int, default=StudyConfig.levels)
    parser.add_argument("--box", type=float, nargs=6, metavar=("X0", "X1", "Y0", "Y1", "Z0", "Z1"),
                        default=StudyConfig.box)
    parser.add_argument("--out", dest="output_dir", metavar="OUT", default=".", help="output directory")
    parser.add_argument("--export-mesh", action="store_true", help="write an OFF file per level")
    parser.add_argument("--check-mesh-only", action="store_true",
                        help="build and check meshes, skip the solves")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = StudyConfig(**vars(args))
        result = run_study(config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in result.report.records:
        line = (
            f"level {rec.level}: n={rec.n} h={rec.stats.h:.4g} tris={rec.stats.n_triangles} "
            f"max_angle={rec.stats.max_interior_angle:.4f} max|d|={rec.stats.max_abs_dist:.3e}"
        )
        if rec.errors is not None:
            line += "".join(f" {name}={getattr(rec.errors, name):.3e}" for name in ERRORS)
            if rec.errors.err_post_alt is not None:
                line += f" err_post_gradient={rec.errors.err_post_alt:.3e}"
        print(line)
    print(f"total {result.seconds:.1f}s; wrote {', '.join(str(p) for p in result.files) or 'no files'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
