"""Reference elements, quadrature, maps and interpolation operators.

The commuting-diagram checks use boundary-flux quadrature as the
independent route for divergence integrals; interpolation reproduction is
verified on the anisotropic needle family, not only on nice triangles.
"""

import math

import numpy as np
import pytest

from quasitrace.elements import (
    ASSEMBLY_DEGREE,
    AffineMap,
    EDGE_GAUSS_POINTS,
    ERROR_DEGREE,
    REF_EDGE_LENGTHS,
    REF_EDGE_NORMALS,
    REF_EDGES,
    REF_VERTICES,
    edge_dofs,
    eval_p1,
    eval_vector,
    gauss_01,
    global_vector_coefficients,
    local_vector_coefficients,
    mixed_space,
    triangle_rule,
)

from conftest import interpolate_facet, random_needle, tet_boundary_mesh
from oracle import closest_point, edge_incidence, interpolate_hdiv, project_l2, to_reference


def boundary_flux(verts, field, weight=None, n_gauss=8):
    """Independent oracle: total outward flux through the triangle boundary."""
    n_face = np.cross(verts[1] - verts[0], verts[2] - verts[0])
    n_face /= np.linalg.norm(n_face)
    t, w = gauss_01(n_gauss)
    total = 0.0
    for a, b in REF_EDGES:
        pa, pb = verts[a], verts[b]
        length = np.linalg.norm(pb - pa)
        tang = (pb - pa) / length
        conormal = np.cross(tang, n_face)
        pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
        vals = field(pts) @ conormal
        if weight is not None:
            vals = vals * weight(pts)
        total += length * float(w @ vals)
    return total


class TestQuadrature:
    @pytest.mark.parametrize("degree", [2, 4, 6, 8, 10])
    def test_monomial_exactness(self, degree):
        pts, wts = triangle_rule(degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = float(wts @ (pts[:, 0] ** a * pts[:, 1] ** b))
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                assert got == pytest.approx(exact, abs=1e-14)

    def test_weights_sum_to_reference_area(self):
        for degree in (2, 4, 6, 8, 10):
            _, wts = triangle_rule(degree)
            assert wts.sum() == pytest.approx(0.5, abs=1e-14)
            assert np.all(wts > 0.0)

    def test_points_inside_reference_triangle(self):
        pts, _ = triangle_rule(6)
        assert np.all(pts >= 0.0) and np.all(pts.sum(axis=1) <= 1.0)


class TestUnisolvence:
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_dof_matrix_is_identity(self, kind):
        space = mixed_space(kind)
        t, w = gauss_01(8)
        n = space.n_dofs
        dof = np.zeros((n, n))
        for e, (a, b) in enumerate(REF_EDGES):
            pts = (1.0 - t)[:, None] * REF_VERTICES[a] + t[:, None] * REF_VERTICES[b]
            flux = np.einsum("kqd,d->kq", space.basis(pts), REF_EDGE_NORMALS[e])
            if space.edge_dofs == 1:
                dof[e] = REF_EDGE_LENGTHS[e] * (flux @ w)
            else:
                dof[2 * e] = REF_EDGE_LENGTHS[e] * (flux @ w)
                dof[2 * e + 1] = REF_EDGE_LENGTHS[e] * (flux @ (w * (2 * t - 1)))
        assert np.abs(dof - np.eye(n)).max() < 1e-12


class TestPushForward:
    @pytest.mark.parametrize("degree", [ASSEMBLY_DEGREE, ERROR_DEGREE])
    def test_to_physical_matches_the_einsum(self, sphere_meshes, degree):
        """Two multiply-adds per point round exactly like the contraction over the 2 reference axes."""
        pts = triangle_rule(degree)[0]
        for mesh in sphere_meshes.values():
            maps = mesh.maps
            x = maps.to_physical(pts)
            assert x.tobytes() == (maps.origin[:, None, :] + np.einsum("fid,qd->fqi", maps.A, pts)).tobytes()
            assert maps[5:9].to_physical(pts).tobytes() == x[5:9].tobytes()

    def test_planar_embedding_copies_components(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        amap = AffineMap.from_triangles(verts[None])
        vals = np.array([[0.3, -0.2], [1.0, 0.5]])
        out = amap.push_vector(vals[None])[0]
        assert np.allclose(out[:, :2], vals, atol=1e-15)
        assert np.all(out[:, 2] == 0.0)

    def test_edge_flux_matches_reference_moment(self):
        """Defining property of the flux-preserving push-forward.

        The pushed field is evaluated at the images of reference edge
        points, so the comparison is free of inverse-map roundoff even on
        extreme needles.
        """
        rng = np.random.default_rng(30)
        space = mixed_space("bdm1")
        for _ in range(20):
            verts = random_needle(rng, max_aspect=1e3)
            amap = AffineMap.from_triangles(verts[None])
            coeffs = rng.normal(size=6)
            t, w = gauss_01(8)
            for e, (a, b) in enumerate(REF_EDGES):
                ref_pts = (1.0 - t)[:, None] * REF_VERTICES[a] + t[:, None] * REF_VERTICES[b]
                ref_flux = REF_EDGE_LENGTHS[e] * float(
                    w @ np.einsum("kqd,k,d->q", space.basis(ref_pts), coeffs, REF_EDGE_NORMALS[e])
                )
                vals = amap.push_vector(
                    np.einsum("kqd,k->qd", space.basis(ref_pts), coeffs)[None]
                )[0]
                pa, pb = verts[a], verts[b]
                length = np.linalg.norm(pb - pa)
                tang = (pb - pa) / length
                n_face = np.cross(verts[1] - verts[0], verts[2] - verts[0])
                n_face /= np.linalg.norm(n_face)
                conormal = np.cross(tang, n_face)
                phys_flux = length * float(w @ (vals @ conormal))
                assert phys_flux == pytest.approx(ref_flux, abs=1e-12 * max(1.0, abs(ref_flux)))


class TestInterpolation:
    def test_rt0_reproduces_constant_tangent_fields(self):
        rng = np.random.default_rng(32)
        space = mixed_space("rt0")
        for _ in range(20):
            verts = random_needle(rng)
            amap = AffineMap.from_triangles(verts[None])
            c = rng.normal(size=2)
            const = amap.A[0] @ c

            coeffs = interpolate_facet(space, verts, lambda pts: np.broadcast_to(const, pts.shape))
            pts, _ = triangle_rule(4)
            vals = eval_vector(amap, space, coeffs[None], pts)[0]
            assert np.abs(vals - const).max() < 1e-12 * max(1.0, np.abs(const).max())

    def test_bdm1_reproduces_affine_tangent_fields(self):
        rng = np.random.default_rng(33)
        space = mixed_space("bdm1")
        for _ in range(20):
            verts = random_needle(rng)
            amap = AffineMap.from_triangles(verts[None])
            coeff = rng.normal(size=(2, 3))
            shift = rng.normal(size=2)

            def field(pts):
                ref = to_reference(amap, pts[None])[0]
                ref_vals = ref @ coeff.T[:2] + shift  # affine in reference coords
                return np.einsum("id,qd->qi", amap.A[0], ref_vals)

            coeffs = interpolate_facet(space, verts, field)
            pts, _ = triangle_rule(4)
            got = eval_vector(amap, space, coeffs[None], pts)[0]
            want = field(amap.to_physical(pts)[0])
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() < 1e-11 * scale

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_commuting_diagram_on_needles(self, kind):
        """Divergence of the interpolant tested against boundary-flux quadrature."""
        rng = np.random.default_rng(34)
        space = mixed_space(kind)
        for _ in range(60):
            verts = random_needle(rng, max_aspect=1e4)
            amap = AffineMap.from_triangles(verts[None])
            quad_coeff = rng.normal(size=(2, 6))

            def field(pts):
                ref = to_reference(amap, pts[None])[0]
                monomials = np.stack(
                    [np.ones(len(ref)), ref[:, 0], ref[:, 1], ref[:, 0] ** 2, ref[:, 0] * ref[:, 1], ref[:, 1] ** 2]
                )
                return np.einsum("id,dm,mq->qi", amap.A[0], quad_coeff, monomials)

            coeffs = interpolate_facet(space, verts, field)
            lhs = float(coeffs @ (0.5 * space.divergence()))
            rhs = boundary_flux(verts, field)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_shared_edge_moments_agree_across_noncoplanar_facets(self):
        """Conormal continuity of the global basis on a genuinely folded mesh."""
        mesh = tet_boundary_mesh()
        edge_faces = edge_incidence(mesh)[0]
        for kind in ("rt0", "bdm1"):
            space = mixed_space(kind)
            nd = space.edge_dofs
            t, w = gauss_01(6)
            for gdof in range(nd * mesh.n_edges):
                coeffs = np.zeros(nd * mesh.n_edges)
                coeffs[gdof] = 1.0
                local = local_vector_coefficients(edge_dofs(mesh, space), coeffs)
                for e in range(mesh.n_edges):
                    i, j = mesh.edges[e]
                    xi, xj = mesh.vertices[i], mesh.vertices[j]
                    pts = xi[None, :] + t[:, None] * (xj - xi)[None, :]
                    length = np.linalg.norm(xj - xi)
                    tang = (xj - xi) / length
                    fluxes, moments = [], []
                    for side in (0, 1):
                        f = edge_faces[e, side]
                        amap_f = AffineMap.from_triangles(mesh.corner_points()[[f]])
                        ref = to_reference(amap_f, pts[None])[0]
                        vals = eval_vector(amap_f, space, local[[f]], ref)[0]
                        conormal = np.cross(tang, mesh.face_normals[f])
                        conormal /= np.linalg.norm(conormal)
                        # orient the conormal outward for this facet
                        centroid = mesh.corner_points()[f].mean(axis=0)
                        mid = 0.5 * (xi + xj)
                        if np.dot(conormal, mid - centroid) < 0:
                            conormal = -conormal
                        trace = vals @ conormal
                        fluxes.append(trace)
                        moments.append((length * float(w @ trace), length * float(w @ (trace * (2 * t - 1)))))
                    # pointwise: outward conormal components cancel
                    assert np.abs(fluxes[0] + fluxes[1]).max() < 1e-12
                    # moment values agree up to the orientation sign
                    assert moments[0][0] == pytest.approx(-moments[1][0], abs=1e-12)
                    if nd == 2:
                        assert moments[0][1] == pytest.approx(-moments[1][1], abs=1e-12)

    def test_batched_moments_match_edge_loop(self, sphere_meshes):
        """The batched interpolant against a facet-by-facet, edge-by-edge loop,
        with a field that also depends on the facet it is evaluated from."""
        mesh = sphere_meshes[8]

        def field(pts, faces):
            smooth = np.stack([pts[..., 1], pts[..., 2], pts[..., 0] * pts[..., 1]], axis=-1)
            return smooth + 1e-3 * mesh.face_normals[faces]

        t, w = gauss_01(EDGE_GAUSS_POINTS)
        weights = np.stack([w, w * (2.0 * t - 1.0)])
        for kind in ("rt0", "bdm1"):
            space = mixed_space(kind)
            nd = space.edge_dofs
            got = interpolate_hdiv(mesh.corner_points(), space, field)
            want = np.empty_like(got)
            for f, verts in enumerate(mesh.corner_points()):
                n_face = np.cross(verts[1] - verts[0], verts[2] - verts[0])
                n_face /= np.linalg.norm(n_face)
                for e, (a, b) in enumerate(REF_EDGES):
                    length = np.linalg.norm(verts[b] - verts[a])
                    conormal = np.cross((verts[b] - verts[a]) / length, n_face)
                    pts = verts[a] + t[:, None] * (verts[b] - verts[a])
                    flux = field(pts, np.full(len(t), f)) @ conormal
                    want[f, nd * e : nd * (e + 1)] = length * (weights[:nd] @ flux)
            assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()

    def test_global_and_local_coefficients_round_trip(self, sphere_meshes):
        """Local and global coefficients map back and forth bit for bit: a
        global vector survives the round trip, and a broken local field keeps
        its moments on the facets running along each edge."""
        mesh = sphere_meshes[8]
        rng = np.random.default_rng(37)
        for kind in ("rt0", "bdm1"):
            dofs = edge_dofs(mesh, mixed_space(kind))
            g = rng.normal(size=dofs.size)
            assert np.array_equal(global_vector_coefficients(dofs, local_vector_coefficients(dofs, g)), g)
            p = rng.normal(size=dofs.ids.shape)
            back = local_vector_coefficients(dofs, global_vector_coefficients(dofs, p))
            assert np.array_equal(back[dofs.plus], p[dofs.plus])


class TestProjection:
    def test_constants_reproduced(self, sphere_meshes):
        out = project_l2(sphere_meshes[8], lambda x, f: np.full(x.shape[:-1], 2.5))
        assert np.abs(out - 2.5).max() < 1e-12

    def test_p0_of_affine_is_centroid_value(self):
        rng = np.random.default_rng(35)
        mesh = tet_boundary_mesh()
        c = rng.normal(size=3)

        out = project_l2(mesh, lambda x, f: x @ c)
        assert np.allclose(out, mesh.corner_points().mean(axis=1) @ c, atol=1e-13)

    def test_orthogonality_of_residual(self):
        """A cubic minus its facet mean integrates to zero on every facet."""
        mesh = tet_boundary_mesh()

        def cubic(x, faces):
            return x[..., 0] ** 3 - 2.0 * x[..., 1] * x[..., 2] ** 2 + x[..., 0] * x[..., 1]

        means = project_l2(mesh, cubic)
        maps = AffineMap.from_triangles(mesh.corner_points())
        pts, wts = triangle_rule(8)
        x = maps.to_physical(pts)
        faces = np.broadcast_to(np.arange(4)[:, None], x.shape[:2])
        defect = ((cubic(x, faces) - means[:, None]) @ wts) * maps.jac
        assert np.abs(defect).max() < 1e-12


class TestLagrange:
    def test_affine_reproduced_and_nodal(self, sphere_meshes):
        mesh = sphere_meshes[8]
        c = np.array([0.3, -1.2, 0.4])
        nodal = mesh.vertices @ c
        pts, _ = triangle_rule(ERROR_DEGREE)
        assert np.allclose(eval_p1(nodal[mesh.triangles], pts), mesh.maps.to_physical(pts) @ c, atol=1e-14)

    def test_second_order_on_sphere(self, sphere, problem, sphere_meshes):
        from quasitrace.postprocess_errors import eoc

        errs, hs = [], []
        for n in (8, 16, 32):
            mesh = sphere_meshes[n]
            nodal = problem.u(closest_point(sphere, mesh.vertices))
            maps = AffineMap.from_triangles(mesh.corner_points())
            pts, wts = triangle_rule(6)
            x = maps.to_physical(pts)
            lifted = problem.u(closest_point(sphere, x))
            interp = eval_p1(nodal[mesh.triangles], pts)
            cell = wts[None, :] * maps.jac[:, None]
            errs.append(float(np.sqrt((cell * (lifted - interp) ** 2).sum())))
            hs.append(mesh.h)
        rates = eoc(errs, hs)
        assert all(1.7 <= r <= 2.3 for r in rates)
