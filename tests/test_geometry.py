"""Surface oracle and transfer-map tests.

Derived expectations come from independent oracles: finite differences for
derivatives, recursive subdivision plus spherical excess for lifted areas,
and symbolic evaluation for the transfer formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasitrace.geometry as geometry
from quasitrace.assembly import build_rhs
from quasitrace.elements import ASSEMBLY_DEGREE, mixed_space, triangle_rule
from quasitrace.geometry import (
    Sphere,
    _resolvent_weights,
    area_ratio,
    frame_at,
    frame_blocks,
    piola_from_surface,
)
from quasitrace.postprocess_errors import compute_errors, lift_exact, postprocess_gradient
from quasitrace.trace_mesh import mesh_stats

from conftest import random_rotation
from oracle import (
    closest_point,
    consistency_gap,
    consistency_matrix,
    face_projector,
    injected_exact_fields,
    mesh_diagnostics,
    piola_to_surface,
    tangent_projector,
)


def random_tube_points(rng, count):
    """Points inside the sphere's safe tube, |x| in (0.72, 1.38)."""
    direction = rng.normal(size=(count, 3))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    return direction * rng.uniform(0.72, 1.38, size=(count, 1))


def random_frames(rng, surface, count, min_cos=0.3):
    pts = random_tube_points(rng, count)
    nu = surface.derivatives(pts)[1]
    tilt = rng.normal(size=(count, 3))
    tilt -= np.einsum("ni,ni->n", tilt, nu)[:, None] * nu
    tilt /= np.linalg.norm(tilt, axis=-1, keepdims=True)
    angle = rng.uniform(0.0, np.arccos(min_cos), size=(count, 1))
    nu_h = np.cos(angle) * nu + np.sin(angle) * tilt
    return frame_at(surface, pts, nu_h)


class TestSphereClosedForms:
    def test_distance_normal_hessian(self):
        rng = np.random.default_rng(7)
        surface = Sphere(1.0)
        x = random_tube_points(rng, 200)
        r = np.linalg.norm(x, axis=-1)
        assert np.allclose(surface.signed_distance(x), r - 1.0, atol=1e-14)
        assert np.allclose(surface.derivatives(x)[1], x / r[:, None], atol=1e-14)
        nu = x / r[:, None]
        expected_h = (np.eye(3) - nu[:, :, None] * nu[:, None, :]) / r[:, None, None]
        assert np.allclose(surface.derivatives(x)[2], expected_h, atol=1e-14)

    def test_gradient_is_unit(self):
        rng = np.random.default_rng(8)
        surface = Sphere(1.0)
        g = surface.derivatives(random_tube_points(rng, 500))[1]
        assert np.allclose(np.linalg.norm(g, axis=-1), 1.0, atol=1e-13)

    def test_hessian_annihilates_normal(self):
        rng = np.random.default_rng(9)
        surface = Sphere(1.0)
        x = random_tube_points(rng, 200)
        _, normal, hess = surface.derivatives(x)
        hn = np.einsum("nij,nj->ni", hess, normal)
        assert np.abs(hn).max() < 1e-13

    def test_hessian_annihilates_normal_on_a_trace_mesh(self, sphere, sphere_meshes):
        """The H nu = 0 contract at the assembly-rule points of an extracted mesh."""
        for _, fr in frame_blocks(sphere, sphere_meshes[16], triangle_rule(ASSEMBLY_DEGREE)[0]):
            hn = np.linalg.norm(np.einsum("...ij,...j->...i", fr.hessian, fr.normal), axis=-1)
            assert np.all(hn <= 1e-15 * np.linalg.norm(fr.hessian, axis=(-2, -1)))

    def test_hessian_matches_finite_differences(self):
        # central differences of the normal field, step 1e-5
        rng = np.random.default_rng(10)
        surface = Sphere(1.0)
        x = random_tube_points(rng, 50)
        step = 1e-5
        fd = np.empty((len(x), 3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd[:, :, j] = (surface.derivatives(x + e)[1] - surface.derivatives(x - e)[1]) / (2 * step)
        assert np.abs(fd - surface.derivatives(x)[2]).max() < 1e-6

    def test_derivatives_equal_the_separate_queries(self):
        """One norm per frame: the distance is bitwise ``signed_distance``, normal and Hessian the closed forms."""
        rng = np.random.default_rng(22)
        surface = Sphere(1.3)
        x = random_tube_points(rng, 300).reshape(10, 30, 3) * 1.3
        dist, normal, hess = surface.derivatives(x)
        assert np.array_equal(dist, surface.signed_distance(x))
        r = np.linalg.norm(x, axis=-1)
        nu = x / r[..., None]
        assert np.array_equal(normal, nu)
        separate = (np.eye(3) - nu[..., :, None] * nu[..., None, :]) / r[..., None, None]
        assert np.array_equal(hess, separate)
        fr = frame_at(surface, x, normal)
        assert np.array_equal(fr.dist, dist) and np.array_equal(fr.normal, normal)
        assert np.array_equal(fr.hessian, hess)

    def test_derivatives_reject_the_center(self):
        with pytest.raises(ValueError, match="center"):
            Sphere(1.0).derivatives(np.zeros((2, 3)))

    def test_closest_point(self):
        rng = np.random.default_rng(11)
        surface = Sphere(1.0)
        x = random_tube_points(rng, 200)
        cp = closest_point(surface, x)
        assert np.abs(surface.signed_distance(cp)).max() < 1e-14
        manual = x - surface.signed_distance(x)[:, None] * surface.derivatives(x)[1]
        assert np.array_equal(cp, manual)


class TestFrames:
    def test_projectors_idempotent(self, sphere):
        rng = np.random.default_rng(12)
        fr = random_frames(rng, sphere, 100)
        for proj in (tangent_projector(fr), face_projector(fr)):
            assert np.abs(proj @ proj - proj).max() < 1e-14

    def test_tube_guard(self, sphere):
        with pytest.raises(ValueError):
            frame_at(sphere, np.array([3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            frame_at(sphere, np.array([0.2, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestAreaRatio:
    def test_on_surface_aligned(self, sphere):
        fr = frame_at(sphere, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        assert area_ratio(fr) == pytest.approx(1.0, abs=1e-15)

    def test_on_surface_tilted_reduces_to_cosine(self, sphere):
        theta = 0.37
        nu_h = np.array([np.sin(theta), 0.0, np.cos(theta)])
        fr = frame_at(sphere, np.array([0.0, 0.0, 1.0]), nu_h)
        assert area_ratio(fr) == pytest.approx(np.cos(theta), abs=1e-14)

    def test_rejects_nontransverse(self, sphere):
        fr = frame_at(sphere, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            area_ratio(fr)

    def test_concentric_sphere_scaling(self, sphere):
        # a facet tangent to the radius-r sphere: ratio must be 1/r^2
        r = 1.25
        fr = frame_at(sphere, np.array([0.0, 0.0, r]), np.array([0.0, 0.0, 1.0]))
        assert area_ratio(fr) == pytest.approx(1.0 / r**2, rel=1e-14)

    def test_facet_integral_matches_lifted_area(self, sphere):
        """Independent oracles: subdivision quadrature and spherical excess."""
        from quasitrace.elements import AffineMap, triangle_rule

        rng = np.random.default_rng(13)
        for _ in range(5):
            center = rng.normal(size=3)
            center /= np.linalg.norm(center)
            rot = random_rotation(rng)
            tangent1 = rot[:, 0] - np.dot(rot[:, 0], center) * center
            tangent1 /= np.linalg.norm(tangent1)
            tangent2 = np.cross(center, tangent1)
            size = 0.15
            verts = np.stack(
                [
                    center * (1.0 + rng.uniform(-0.02, 0.02)) - size * tangent1 - 0.4 * size * tangent2,
                    center * (1.0 + rng.uniform(-0.02, 0.02)) + size * tangent1 - 0.5 * size * tangent2,
                    center * (1.0 + rng.uniform(-0.02, 0.02)) + 0.2 * size * tangent1 + size * tangent2,
                ]
            )

            maps = AffineMap.from_triangles(verts[None])
            pts, wts = triangle_rule(10)
            x = maps.to_physical(pts)
            nu_h = np.cross(verts[1] - verts[0], verts[2] - verts[0])
            nu_h /= np.linalg.norm(nu_h)
            fr = frame_at(sphere, x, np.broadcast_to(nu_h, x.shape))
            mu_integral = float((wts * area_ratio(fr)[0] * maps.jac[0]).sum())

            # oracle 1: recursive subdivision of the flat facet, vertices
            # projected to the sphere, Richardson-extrapolated flat areas
            def subdivided_area(tri, level):
                if level == 0:
                    p = tri / np.linalg.norm(tri, axis=-1, keepdims=True)
                    return 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
                m01, m12, m20 = 0.5 * (tri[0] + tri[1]), 0.5 * (tri[1] + tri[2]), 0.5 * (tri[2] + tri[0])
                return sum(
                    subdivided_area(np.array(sub), level - 1)
                    for sub in (
                        (tri[0], m01, m20),
                        (m01, tri[1], m12),
                        (m20, m12, tri[2]),
                        (m01, m12, m20),
                    )
                )

            coarse, fine = subdivided_area(verts, 4), subdivided_area(verts, 5)
            lifted_area = fine + (fine - coarse) / 3.0
            assert mu_integral == pytest.approx(lifted_area, rel=1e-6)

            # oracle 2: the radial projection of a segment is a great-circle
            # arc, so the lift is a geodesic triangle: spherical excess
            unit = verts / np.linalg.norm(verts, axis=-1, keepdims=True)
            angles = []
            for k in range(3):
                a, b, c = unit[k], unit[(k + 1) % 3], unit[(k + 2) % 3]
                u = b - np.dot(a, b) * a
                v = c - np.dot(a, c) * a
                angles.append(np.arccos(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1)))
            excess = sum(angles) - np.pi
            assert mu_integral == pytest.approx(excess, rel=1e-6)


class TestPiolaMaps:
    def test_identity_on_surface_aligned(self, sphere):
        fr = frame_at(sphere, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        p = np.array([0.3, -0.7, 0.0])
        assert np.allclose(piola_to_surface(fr, p), p, atol=1e-15)
        assert np.allclose(piola_from_surface(fr, p), p, atol=1e-15)

    def test_zero_maps_to_zero(self, sphere):
        rng = np.random.default_rng(14)
        fr = random_frames(rng, sphere, 10)
        assert np.all(piola_from_surface(fr, np.zeros((10, 3))) == 0.0)

    def test_roundtrip_identity(self, sphere):
        rng = np.random.default_rng(15)
        fr = random_frames(rng, sphere, 1000)
        p = rng.normal(size=(1000, 3))
        p = np.einsum("nij,nj->ni", tangent_projector(fr), p)
        back = piola_to_surface(fr, piola_from_surface(fr, p))
        assert np.abs(back - p).max() < 1e-12

    def test_tangency_preservation(self, sphere):
        rng = np.random.default_rng(16)
        fr = random_frames(rng, sphere, 1000)
        p_surf = np.einsum("nij,nj->ni", tangent_projector(fr), rng.normal(size=(1000, 3)))
        pulled = piola_from_surface(fr, p_surf)
        assert np.abs(np.einsum("ni,ni->n", pulled, fr.face_normal)).max() < 1e-12
        p_face = np.einsum("nij,nj->ni", face_projector(fr), rng.normal(size=(1000, 3)))
        pushed = piola_to_surface(fr, p_face)
        assert np.abs(np.einsum("ni,ni->n", pushed, fr.normal)).max() < 1e-12

    def test_against_symbolic_oracle(self, sphere):
        sympy = pytest.importorskip("sympy")
        for point, tilt in (
            (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.3, 0.1])),
            (np.array([1.05, 0.0, 0.0]), np.array([1.0, 0.25, -0.15])),
            (np.array([0.6, -0.55, 0.64]), np.array([0.55, -0.6, 0.58])),
        ):
            nu_h = tilt / np.linalg.norm(tilt)
            fr = frame_at(sphere, point, nu_h)
            p_face = np.einsum("ij,j->i", face_projector(fr), np.array([0.2, -0.4, 0.9]))
            got = piola_to_surface(fr, p_face)

            x = sympy.Matrix(point.tolist())
            r = sympy.sqrt(sum(v**2 for v in x))
            d = r - 1
            nu = x / r
            eye = sympy.eye(3)
            hess = (eye - nu * nu.T) / r
            nh = sympy.Matrix(nu_h.tolist())
            mu = (nu.T @ nh)[0] * (1 - d / r) ** 2
            expected = (eye - nu * nu.T - d * hess) @ sympy.Matrix(p_face.tolist()) / mu
            expected = np.array(expected.evalf(30), dtype=float).ravel()
            assert np.allclose(got, expected, atol=1e-12)

    def test_divergence_relation_against_finite_differences(self, sphere, problem, sphere_meshes):
        """Facet divergence of the pulled-back exact flux vs its known value.

        The exact vector field has surface divergence equal to the source,
        so the pulled-back field must have facet divergence (area ratio) *
        source at the closest point; checked with centered differences in
        the facet plane.
        """
        mesh = sphere_meshes[8]
        rng = np.random.default_rng(17)
        step = 1e-5
        for face in rng.choice(mesh.n_triangles, size=12, replace=False):
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
            assert div_fd == pytest.approx(expected, abs=1e-4)


class TestConsistencyGap:
    """The closed-form gap against |P - B| of the 3x3 consistency matrix, both in tests/oracle.py.

    Each eigenvalue 1 - mu m_i^2 of P - mu M^2 is formed before it is
    squared, and the curvature split comes from the deviator of H, so the
    closed form carries no cancellation of O(1) terms: it matches the
    matrix form to a few units of round-off in absolute terms, also where
    the gap itself vanishes.
    """

    def test_reduces_to_projector(self, sphere):
        fr = frame_at(sphere, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(consistency_matrix(fr), tangent_projector(fr), atol=1e-14)
        assert consistency_gap(fr) == 0.0

    def test_symmetry(self, sphere):
        rng = np.random.default_rng(18)
        fr = random_frames(rng, sphere, 300)
        b = consistency_matrix(fr)
        assert np.abs(b - np.swapaxes(b, -1, -2)).max() < 1e-12

    @staticmethod
    def oracle_gap(fr):
        bgap = tangent_projector(fr) - consistency_matrix(fr)
        return np.sqrt(np.einsum("...ij,...ij->...", bgap, bgap))

    def test_matches_the_matrix_form_on_random_frames(self, sphere):
        rng = np.random.default_rng(23)
        fr = random_frames(rng, sphere, 2000)
        want = self.oracle_gap(fr)
        assert np.abs(consistency_gap(fr) - want).max() <= 1e-14 * (1.0 + want.max())

    def test_matches_the_matrix_form_on_trace_meshes(self, sphere, sphere_meshes):
        pts = triangle_rule(ASSEMBLY_DEGREE)[0]
        for n in (8, 16, 32):
            worst = 0.0
            for _, fr in frame_blocks(sphere, sphere_meshes[n], pts):
                worst = max(worst, float(np.abs(consistency_gap(fr) - self.oracle_gap(fr)).max()))
            assert worst <= 1e-14, n

    def test_gap_scales_with_mesh(self, sphere_diagnostics):
        gaps = [sphere_diagnostics[n]["max_consistency_gap"] for n in (8, 16, 32)]
        assert gaps[0] / gaps[1] >= 3.5
        assert gaps[1] / gaps[2] >= 3.5


def unit(v):
    return np.asarray(v) / np.linalg.norm(v)


nonzero_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)


class TestClosedFormOracles:
    """Closed-form kernels against dense linear algebra written out here.

    The tube check admits sphere points with |x| / radius in (2/3, 2); the
    samples reach both ends of that interval, inside and outside, up to a
    1e-6 margin for the round-off of the curvature estimate in the check.
    """

    @staticmethod
    def frame(radius, direction, scale, tilt, angle):
        surface = Sphere(radius)
        point = unit(direction) * scale * radius
        nu = unit(direction)
        side = np.asarray(tilt) - np.dot(tilt, nu) * nu
        if np.linalg.norm(side) < 1e-6:  # tilt along the normal: use the axis least aligned with it
            side = np.eye(3)[np.argmin(np.abs(nu))]
            side = side - np.dot(side, nu) * nu
        side = unit(side)
        return frame_at(surface, point, np.cos(angle) * nu + np.sin(angle) * side)

    @settings(max_examples=200, deadline=None)
    @given(
        radius=st.floats(0.05, 20.0),
        direction=nonzero_vectors,
        scale=st.floats(2.0 / 3.0 + 1e-6, 2.0 - 1e-6),
        tilt=nonzero_vectors,
        angle=st.floats(0.0, 1.4),
        vector=nonzero_vectors,
    )
    def test_against_dense_algebra(self, radius, direction, scale, tilt, angle, vector):
        fr = self.frame(radius, direction, scale, tilt, angle)
        eye = np.eye(3)
        a_mat = eye - fr.dist * fr.hessian
        cosang = float(fr.transversality)
        mu = float(area_ratio(fr))

        # the resolvent is exact on every vector, tangent or not; the floor
        # covers inputs whose pull-back cancels to nearly zero
        for p in (np.asarray(vector), tangent_projector(fr) @ vector):
            y = np.linalg.solve(a_mat, p)
            want = mu * (y - fr.normal * np.dot(fr.face_normal, y) / cosang)
            got = piola_from_surface(fr, p)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want) + 1e-14 * np.linalg.norm(p)

        skew = eye - np.outer(fr.normal, fr.face_normal) / cosang
        half = skew @ np.linalg.inv(a_mat) @ tangent_projector(fr)
        want_b = mu * half.T @ half
        got_b = consistency_matrix(fr)
        assert np.linalg.norm(got_b - want_b) <= 1e-13 * np.linalg.norm(want_b)
        want_gap = np.linalg.norm(tangent_projector(fr) - want_b)
        assert abs(float(consistency_gap(fr)) - want_gap) <= 1e-13 * max(1.0, np.linalg.norm(want_b))

    @settings(max_examples=100, deadline=None)
    @given(
        radius=st.floats(0.05, 20.0),
        direction=nonzero_vectors,
        scale=st.floats(2.0 / 3.0 + 1e-6, 2.0 - 1e-6),
    )
    def test_resolvent_exact_on_the_normal(self, radius, direction, scale):
        fr = self.frame(radius, direction, scale, (0.0, 0.0, 1.0), 0.0)
        a, b = _resolvent_weights(fr)
        resolvent = np.eye(3) + a * fr.hessian + b * fr.hessian @ fr.hessian
        assert np.abs(resolvent @ fr.normal - fr.normal).max() <= 1e-15
        assert np.abs(resolvent @ (np.eye(3) - fr.dist * fr.hessian) - np.eye(3)).max() <= 1e-13
        # the normal pulls back to zero: the facet carries no normal flux
        assert np.linalg.norm(piola_from_surface(fr, fr.normal)) <= 1e-14


class TestFacetBlocks:
    """Frame consumers fill per-point arrays block by block and reduce them whole."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, sphere, problem, sphere_meshes, n):
        mesh = sphere_meshes[n]
        space = mixed_space("rt0")
        fields = injected_exact_fields(mesh, sphere, space, problem)
        u_star = postprocess_gradient(mesh, space, fields)

        def consumers():
            injected = injected_exact_fields(mesh, sphere, space, problem)
            return (
                mesh_stats(mesh, sphere),
                mesh_diagnostics(mesh, sphere),
                build_rhs(problem.f, mesh, sphere).values.tobytes(),
                compute_errors(mesh, space, lift_exact(mesh, sphere, problem), fields, u_star=u_star),
                injected.p_local.tobytes(),
                injected.u.tobytes(),
            )

        default = consumers()
        for block in (1, 7, mesh.n_triangles + 1):
            monkeypatch.setattr(geometry, "FACET_BLOCK", block)
            assert consumers() == default, block


class TestLiftScalar:
    def test_constant(self, sphere):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(20, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)

        def constant(x):
            return np.full(x.shape[:-1], 4.25)

        out = constant(frame_at(sphere, pts * 1.1, pts).closest)
        assert np.all(out == 4.25)

    def test_vertical_coordinate_above_pole(self, sphere):
        val = frame_at(sphere, np.array([0.0, 0.0, 1.1]), np.array([0.0, 0.0, 1.0])).closest[..., 2]
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_matches_normalized_evaluation(self, sphere, problem):
        rng = np.random.default_rng(20)
        x = random_tube_points(rng, 100)
        normals = x / np.linalg.norm(x, axis=-1, keepdims=True)
        lifted = problem.u(frame_at(sphere, x, normals).closest)
        direct = problem.u(normals)
        assert np.abs(lifted - direct).max() < 1e-13

    def test_frame_closest_is_the_closest_point_map(self, sphere):
        rng = np.random.default_rng(21)
        x = random_tube_points(rng, 100)
        normals = x / np.linalg.norm(x, axis=-1, keepdims=True)
        assert np.array_equal(frame_at(sphere, x, normals).closest, closest_point(sphere, x))


class TestAreaRatioBound:
    def test_positive_and_second_order(self, sphere_meshes, sphere_diagnostics):
        sups, constants = [], []
        for n in (8, 16, 32):
            mismatch = sphere_diagnostics[n]["max_area_mismatch"]
            sups.append(mismatch)
            constants.append(mismatch / sphere_meshes[n].h ** 2)
        assert sups[0] / sups[1] >= 3.0 and sups[1] / sups[2] >= 3.0
        assert max(constants) <= 2.0 * min(constants)
