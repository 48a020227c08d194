"""Acceptance suite: the headline convergence and correctness criteria.

Each test prints one pass/fail line (run pytest with -s to see them all).
Criteria 1-3 share the two full four-level sphere studies (n = 8 to 64)
provided by session fixtures; the remaining criteria use the smaller shared
meshes.  Criteria 4 and 7 also read the oracle's geometric-error sups on
the rt0 study's four meshes, rebuilt once per session.  A last test
repeats criteria 1-3 on three-level studies of their own at seeded lattice
offsets, with the rates taken against the bulk mesh size as well.
"""

import numpy as np
import pytest

from quasitrace.assembly import build_rhs, condense_and_assemble, solve_hybrid, solve_saddle_point
from quasitrace.cli import StudyConfig, run_study
from quasitrace.elements import mixed_space
from quasitrace.geometry import frame_at, piola_from_surface
from quasitrace.postprocess_errors import compute_errors, eoc, lift_exact, postprocess_neumann

from conftest import (
    interpolate_facet,
    l2_scalar_diff,
    l2_vector_diff,
    make_sphere_mesh,
    random_needle,
    shifted_box,
)
from oracle import (
    closest_point,
    injected_exact_fields,
    mesh_diagnostics,
    piola_to_surface,
    tangent_projector,
    to_reference,
)
from test_elements import boundary_flux
from test_geometry import random_frames


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


# Criteria 1-2's bounds on the final rates.
RATE_BOUNDS = {
    "rt0": {"err_p": 0.85, "err_u": 0.85, "err_eu": 1.7, "err_post": 1.7},
    "bdm1": {"err_p": 1.7, "err_u": 0.85, "err_eu": 1.7, "err_post": 1.7},
}


def final_rates(study):
    rates = {name: study.report.rates(name)[-1] for name in ("err_p", "err_u", "err_eu", "err_post")}
    return rates


def meets_bounds(rates, kind):
    return all(rates[name] >= bound for name, bound in RATE_BOUNDS[kind].items())


def test_criterion_1_rt0_convergence(study_rt0):
    rates = final_rates(study_rt0)
    ok = meets_bounds(rates, "rt0") and study_rt0.seconds < 300.0
    detail = (
        f"rates p={rates['err_p']:.2f} u={rates['err_u']:.2f} "
        f"eu={rates['err_eu']:.2f} post={rates['err_post']:.2f}, {study_rt0.seconds:.0f}s"
    )
    report(1, "rt0 convergence", ok, detail)


def test_criterion_2_bdm1_convergence(study_bdm1):
    rates = final_rates(study_bdm1)
    ok = meets_bounds(rates, "bdm1")
    detail = (
        f"rates p={rates['err_p']:.2f} u={rates['err_u']:.2f} "
        f"eu={rates['err_eu']:.2f} post={rates['err_post']:.2f}"
    )
    report(2, "bdm1 convergence", ok, detail)


def test_criterion_3_scalar_superconvergence(study_rt0):
    ratios = [rec.errors.err_eu / rec.errors.err_u for rec in study_rt0.report.records]
    ok = all(a > b for a, b in zip(ratios, ratios[1:]))
    report(3, "projection error superconverges", ok, "ratios " + " > ".join(f"{r:.3f}" for r in ratios))


@pytest.fixture(scope="session")
def study_diagnostics(sphere, sphere_meshes, sphere_diagnostics):
    """The oracle's ``mesh_diagnostics`` on the four meshes of ``study_rt0`` (n = 8 to 64, default box).

    The n = 64 mesh is rebuilt here, once; ``rebuilt_diagnostics`` checks
    each rebuilt mesh against the study's record.
    """
    finest = make_sphere_mesh(64)
    meshes = [sphere_meshes[8], sphere_meshes[16], sphere_meshes[32], finest]
    diagnostics = [sphere_diagnostics[8], sphere_diagnostics[16], sphere_diagnostics[32]]
    return meshes, diagnostics + [mesh_diagnostics(finest, sphere)]


def rebuilt_diagnostics(study, study_diagnostics):
    meshes, diagnostics = study_diagnostics
    records = study.report.records
    assert [(m.n_triangles, m.h) for m in meshes] == [(r.stats.n_triangles, r.stats.h) for r in records]
    return diagnostics


def test_criterion_4_mesh_assumptions(study_rt0, study_diagnostics):
    records = study_rt0.report.records
    eulers = [rec.stats.euler_characteristic for rec in records]
    angles = [rec.stats.max_interior_angle for rec in records]
    dists = [rec.stats.max_abs_dist for rec in records]
    transversal = [d["min_transversality"] for d in rebuilt_diagnostics(study_rt0, study_diagnostics)]
    factors = [a / b for a, b in zip(dists, dists[1:])]
    ok = (
        all(e == 2 for e in eulers)
        and all(a <= np.pi - 0.05 for a in angles)
        and all(f >= 3.5 for f in factors)
        and all(t > 0.0 for t in transversal)
    )
    detail = (
        f"euler={eulers} max_angle={max(angles):.3f} "
        f"d-factors={[f'{f:.2f}' for f in factors]} min_cos={min(transversal):.3f}"
    )
    report(4, "mesh assumptions", ok, detail)


def test_criterion_5_commuting_diagram():
    from quasitrace.elements import AffineMap

    rng = np.random.default_rng(99)
    worst = 0.0
    count_per_space = 500
    for kind in ("rt0", "bdm1"):
        space = mixed_space(kind)
        for _ in range(count_per_space):
            verts = random_needle(rng, max_aspect=1e4)
            amap = AffineMap.from_triangles(verts[None])
            quad_coeff = rng.normal(size=(2, 6))

            def field(pts):
                ref = to_reference(amap, pts[None])[0]
                monomials = np.stack(
                    [np.ones(len(ref)), ref[:, 0], ref[:, 1],
                     ref[:, 0] ** 2, ref[:, 0] * ref[:, 1], ref[:, 1] ** 2]
                )
                return np.einsum("id,dm,mq->qi", amap.A[0], quad_coeff, monomials)

            coeffs = interpolate_facet(space, verts, field)
            lhs = float(coeffs @ (0.5 * space.divergence()))
            rhs = boundary_flux(verts, field)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    report(5, "commuting diagram on anisotropic facets", ok,
           f"2 x {count_per_space} triangles, worst residual {worst:.2e}")


def test_criterion_6_hybridization_matches_direct_solve(sphere, problem, sphere_meshes):
    mesh = sphere_meshes[8]
    rhs = build_rhs(problem.f, mesh, sphere)
    worst_u = worst_p = 0.0
    for kind in ("rt0", "bdm1"):
        space = mixed_space(kind)
        hybrid = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        direct = solve_saddle_point(mesh, space, rhs=rhs)
        worst_u = max(worst_u, l2_scalar_diff(mesh, hybrid.u, direct.u))
        worst_p = max(worst_p, l2_vector_diff(mesh, space, hybrid.p_local, direct.p_local))
    ok = worst_u <= 1e-8 and worst_p <= 1e-8
    report(6, "hybridization equals direct solve", ok, f"|du|={worst_u:.2e} |dp|={worst_p:.2e}")


def test_criterion_7_transfer_maps(sphere, problem, sphere_meshes, study_rt0, study_diagnostics):
    # roundtrip on 1000 random frames
    rng = np.random.default_rng(100)
    frames = random_frames(rng, sphere, 1000)
    p = rng.normal(size=(1000, 3))
    p = np.einsum("nij,nj->ni", tangent_projector(frames), p)
    roundtrip_gap = float(np.abs(piola_to_surface(frames, piola_from_surface(frames, p)) - p).max())

    # facet divergence of the pulled-back exact flux vs finite differences
    mesh = sphere_meshes[8]
    step = 1e-5
    div_gap = 0.0
    from quasitrace.geometry import area_ratio

    for face in rng.choice(mesh.n_triangles, size=10, replace=False):
        corners = mesh.vertices[mesh.triangles[face]]
        x0 = corners.mean(axis=0)
        nu_h = mesh.face_normals[face]
        t1 = corners[1] - corners[0]
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(nu_h, t1)

        def pulled(points):
            fr = frame_at(sphere, points, np.broadcast_to(nu_h, points.shape))
            return piola_from_surface(fr, problem.p(closest_point(sphere, points)))

        div_fd = 0.0
        for t in (t1, t2):
            vals = pulled(np.stack([x0 + step * t, x0 - step * t]))
            div_fd += float((vals[0] - vals[1]) @ t) / (2 * step)
        fr0 = frame_at(sphere, x0, nu_h)
        expected = float(area_ratio(fr0) * problem.f(closest_point(sphere, x0)))
        div_gap = max(div_gap, abs(div_fd - expected))

    # consistency-matrix gap must shrink at second order across the study
    gaps = [d["max_consistency_gap"] for d in rebuilt_diagnostics(study_rt0, study_diagnostics)]
    factors = [a / b for a, b in zip(gaps, gaps[1:])]

    ok = roundtrip_gap <= 1e-12 and div_gap <= 1e-4 and all(f >= 3.5 for f in factors)
    detail = (
        f"roundtrip {roundtrip_gap:.2e}, divergence {div_gap:.2e}, "
        f"gap factors {[f'{f:.2f}' for f in factors]}"
    )
    report(7, "transfer maps", ok, detail)


@pytest.mark.parametrize("kind", ["rt0", "bdm1"])
def test_criterion_8_postprocessing_with_exact_data(kind, sphere, problem, sphere_meshes):
    space = mixed_space(kind)
    errs, hs = [], []
    for n in (8, 16, 32):
        mesh = sphere_meshes[n]
        rhs = build_rhs(problem.f, mesh, sphere)
        fields = injected_exact_fields(mesh, sphere, space, problem)
        star = postprocess_neumann(mesh, space, fields, rhs)
        errs.append(compute_errors(mesh, space, lift_exact(mesh, sphere, problem), fields, u_star=star).err_post)
        hs.append(mesh.h)
    rate = eoc(errs, hs)[-1]
    ok = rate >= 1.9
    report(8, f"postprocessing geometric error ({kind})", ok, f"final rate {rate:.2f}")


# Lattice offsets within one coarse cell (box width 4, n0 = 12), fixed before the first run.
LATTICE_OFFSETS = (np.random.default_rng(2309).uniform(0.0, 1.0, size=(3, 3)) * (4.0 / 12)).tolist()


@pytest.mark.parametrize("kind", ["rt0", "bdm1"])
@pytest.mark.parametrize("offset", LATTICE_OFFSETS)
def test_rates_in_the_bulk_mesh_size_under_lattice_offsets(kind, offset):
    """The paper's optimal rates hold against the bulk mesh size, wherever the lattice sits.

    Criteria 1-3 on a three-level study (n = 12 to 48) on a shifted lattice:
    the final rates meet criteria 1-2's bounds against the facet h and
    against ``h_bulk = |box widths / n|``, and ``err_eu / err_u`` decreases.
    """
    config = StudyConfig(space=kind, postprocess="neumann", n0=12, levels=3, box=shifted_box(offset))
    study = run_study(config)
    records = study.report.records
    widths = np.ptp(config.box, axis=1)
    h_bulk = [float(np.linalg.norm(widths / rec.n)) for rec in records]
    facet = final_rates(study)
    bulk = {name: eoc(study.report.column(name), h_bulk)[-1] for name in facet}
    ratios = [rec.errors.err_eu / rec.errors.err_u for rec in records]
    ok = meets_bounds(facet, kind) and meets_bounds(bulk, kind) and all(a > b for a, b in zip(ratios, ratios[1:]))
    detail = (
        f"offset {offset}: facet-h rates {[f'{r:.3f}' for r in facet.values()]}, "
        f"h_bulk rates {[f'{r:.3f}' for r in bulk.values()]}, ratios {[f'{r:.3f}' for r in ratios]}"
    )
    print(f"[bulk rates] {kind}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail
