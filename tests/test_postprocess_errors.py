"""Manufactured data, local postprocessing, and error norm machinery."""

import sys
import warnings

import numpy as np
import pytest

import quasitrace.postprocess_errors as postprocess_errors
from quasitrace.assembly import SolutionFields, build_rhs, condense_and_assemble, solve_hybrid
from quasitrace.elements import AffineMap, mixed_space, triangle_rule
from quasitrace.postprocess_errors import (
    ManufacturedProblem,
    compute_errors,
    eoc,
    lift_exact,
    manufactured_sphere,
    postprocess_gradient,
    postprocess_neumann,
)

from conftest import tet_boundary_mesh, zero_rhs
from oracle import closest_point, face_projector, injected_exact_fields, interpolate_hdiv, project_l2


class TestManufacturedProblem:
    def test_tangential_gradient(self, problem):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(1000, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        g = -problem.p(x)
        assert np.abs(np.einsum("ni,ni->n", x, g)).max() < 1e-13
        # the tangential part of the ambient gradient, by central differences of u
        step = 1e-6
        fd = np.stack([(problem.u(x + e) - problem.u(x - e)) / (2 * step) for e in step * np.eye(3)], axis=-1)
        fd -= np.einsum("ni,ni->n", x, fd)[:, None] * x
        assert np.abs(fd - g).max() < 1e-8

    def test_odd_symmetry_gives_zero_means(self, problem):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(200, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        assert np.allclose(problem.u(-x), -problem.u(x), atol=1e-14)
        assert np.allclose(problem.f(-x), -problem.f(x), atol=1e-13)

    def test_source_against_finite_difference_laplacian(self, sphere, problem):
        """Ambient second differences of the closest-point extension.

        The extension is constant along normals, so its ambient Laplacian on
        the surface is the surface Laplacian; the source is its negative.
        """
        rng = np.random.default_rng(52)
        x = rng.normal(size=(30, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        step = 1e-4

        def extension(y):
            return problem.u(closest_point(sphere, y))

        lap = np.zeros(len(x))
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            lap += (extension(x + e) - 2.0 * extension(x) + extension(x - e)) / step**2
        assert np.abs(-lap - problem.f(x)).max() < 1e-5


def affine_consistency_fields(mesh, space, direction, offset):
    """Exact data for an ambient affine scalar: facet gradients and means."""
    u_mean = project_l2(mesh, lambda x, f: x @ direction + offset)
    nu_h = mesh.face_normals
    grad = direction - (nu_h @ direction)[:, None] * nu_h
    p_local = interpolate_hdiv(mesh.corner_points(), space, lambda pts, faces: -grad[faces])
    return SolutionFields(p_local=p_local, u=u_mean)


class TestPostprocessing:
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_affine_data_reproduced_exactly(self, kind):
        """With exact affine data and zero source both variants return the
        affine function itself."""
        rng = np.random.default_rng(53)
        mesh = tet_boundary_mesh()
        space = mixed_space(kind)
        direction, offset = rng.normal(size=3), rng.normal()
        fields = affine_consistency_fields(mesh, space, direction, offset)

        exact_nodal = (mesh.corner_points() @ direction) + offset
        star_n = postprocess_neumann(mesh, space, fields, zero_rhs(mesh))
        star_g = postprocess_gradient(mesh, space, fields)
        assert np.abs(star_n - exact_nodal).max() < 1e-12
        assert np.abs(star_g - exact_nodal).max() < 1e-12

    def test_mean_constraint_exact(self, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[8]
        space = mixed_space("rt0")
        rhs = build_rhs(problem.f, mesh, sphere)
        fields = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        for star in (
            postprocess_neumann(mesh, space, fields, rhs),
            postprocess_gradient(mesh, space, fields),
        ):
            # reference-vertex mean equals the facet mean of a linear function
            assert np.abs(star.mean(axis=1) - fields.u).max() < 1e-12

    def test_locality(self, sphere, problem, sphere_meshes):
        """Perturbing data on other facets leaves a facet's value bitwise unchanged."""
        mesh = sphere_meshes[8]
        space = mixed_space("rt0")
        rhs = build_rhs(problem.f, mesh, sphere)
        fields = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        star = postprocess_gradient(mesh, space, fields)
        target = 7
        perturbed = SolutionFields(p_local=fields.p_local.copy(), u=fields.u.copy())
        perturbed.p_local[target + 1 :] += 0.37
        perturbed.u[:target] -= 1.4
        star2 = postprocess_gradient(mesh, space, perturbed)
        assert np.array_equal(star[target], star2[target])

    def test_variants_agree_within_discretization(self, sphere, problem, sphere_meshes):
        space = mixed_space("rt0")
        for n in (8, 16):
            mesh = sphere_meshes[n]
            rhs = build_rhs(problem.f, mesh, sphere)
            fields = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
            star_n = postprocess_neumann(mesh, space, fields, rhs)
            star_g = postprocess_gradient(mesh, space, fields)
            errs = compute_errors(
                mesh, space, lift_exact(mesh, sphere, problem), fields, u_star=star_n, u_star_alt=star_g
            )
            assert 0.5 <= errs.err_post / errs.err_post_alt <= 2.0


class TestErrorNorms:
    def test_injected_data_gives_zero_projection_error(self, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[8]
        space = mixed_space("rt0")
        fields = injected_exact_fields(mesh, sphere, space, problem)
        star = postprocess_gradient(mesh, space, fields)
        errs = compute_errors(mesh, space, lift_exact(mesh, sphere, problem), fields, star)
        assert errs.err_eu < 1e-12

    def test_zero_solution_of_zero_problem(self, sphere, sphere_meshes):
        mesh = sphere_meshes[8]
        space = mixed_space("rt0")
        zero_problem = ManufacturedProblem(
            u=lambda x: np.zeros(x.shape[:-1]),
            p=lambda x: np.zeros(x.shape),
            f=lambda x: np.zeros(x.shape[:-1]),
        )
        fields = SolutionFields(p_local=np.zeros((mesh.n_triangles, 3)), u=np.zeros(mesh.n_triangles))
        star = postprocess_gradient(mesh, space, fields)
        errs = compute_errors(mesh, space, lift_exact(mesh, sphere, zero_problem), fields, u_star=star)
        assert errs.err_p == 0.0 and errs.err_u == 0.0 and errs.err_eu == 0.0 and errs.err_post == 0.0

    def test_quadrature_refinement_stability(self, monkeypatch, sphere, problem, sphere_meshes):
        """Raising the error quadrature from degree 6 to 8 moves nothing."""
        mesh = sphere_meshes[16]
        space = mixed_space("rt0")
        rhs = build_rhs(problem.f, mesh, sphere)
        fields = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        star = postprocess_neumann(mesh, space, fields, rhs)
        assert postprocess_errors.ERROR_DEGREE == 6
        e6 = compute_errors(mesh, space, lift_exact(mesh, sphere, problem), fields, u_star=star)
        monkeypatch.setattr(postprocess_errors, "ERROR_DEGREE", 8)
        e8 = compute_errors(mesh, space, lift_exact(mesh, sphere, problem), fields, u_star=star)
        for name in ("err_p", "err_u", "err_eu", "err_post"):
            assert abs(getattr(e6, name) / getattr(e8, name) - 1.0) < 1e-3

    def test_naive_lift_changes_err_p_at_second_order(self, sphere, problem, sphere_meshes):
        """Replacing the pulled-back flux by the projected lift shifts the
        vector error by a relative amount that shrinks with the mesh."""
        import math

        from quasitrace.elements import eval_vector
        from quasitrace.geometry import frame_at

        space = mixed_space("rt0")
        gaps = []
        for n in (8, 16, 32):
            mesh = sphere_meshes[n]
            rhs = build_rhs(problem.f, mesh, sphere)
            fields = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
            maps = AffineMap.from_triangles(mesh.corner_points())
            pts, wts = triangle_rule(6)
            x = maps.to_physical(pts)
            nu_h = np.broadcast_to(mesh.face_normals[:, None, :], x.shape)
            frames = frame_at(sphere, x, nu_h)
            cell = wts[None, :] * maps.jac[:, None]
            p_h = eval_vector(maps, space, fields.p_local, pts)
            exact = problem.p(closest_point(sphere, x))
            from quasitrace.geometry import piola_from_surface

            pulled = piola_from_surface(frames, exact)
            naive = np.einsum("fqij,fqj->fqi", face_projector(frames), exact)
            err_pulled = math.sqrt(float((cell * ((pulled - p_h) ** 2).sum(-1)).sum()))
            err_naive = math.sqrt(float((cell * ((naive - p_h) ** 2).sum(-1)).sum()))
            gaps.append(abs(err_pulled - err_naive) / err_pulled)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] / gaps[2] >= 1.5


class TestExactLift:
    """The exact solution is sampled once per level on the worker thread, overlapped or waited for at once."""

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_worker_and_inline_lifts_agree_bitwise(self, monkeypatch, kind, sphere, problem, sphere_meshes):
        """A lift beside the factorization, with thread switches forced often, matches one waited for at once."""
        mesh = sphere_meshes[16]
        space = mixed_space(kind)
        rhs = build_rhs(problem.f, mesh, sphere)
        system = condense_and_assemble(mesh, space, rhs=rhs)
        norms, samples = [], []
        interval = sys.getswitchinterval()
        for threshold in (0, 10**9):
            monkeypatch.setattr(postprocess_errors, "LIFT_THREAD_MIN_FACETS", threshold)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sys.setswitchinterval(1e-5)
                try:
                    exact = lift_exact(mesh, sphere, problem)
                    assert threshold == 0 or exact.done()  # waited for before the factorization
                    fields = solve_hybrid(system)
                    p, u = exact.result(timeout=120)
                finally:
                    sys.setswitchinterval(interval)
                star = postprocess_neumann(mesh, space, fields, rhs)
                alt = postprocess_gradient(mesh, space, fields)
                norms.append(compute_errors(mesh, space, exact, fields, u_star=star, u_star_alt=alt))
            assert caught == []
            samples.append((p.tobytes(), u.tobytes()))
        assert norms[0] == norms[1]
        assert samples[0] == samples[1]

    @pytest.mark.parametrize("threshold", [0, 10**9])
    def test_worker_error_comes_out_of_compute_errors(self, monkeypatch, threshold, sphere, problem, sphere_meshes):
        """Overlapped or waited for at once, a failed lift raises its own error from ``compute_errors``."""

        class LiftFailure(RuntimeError):
            pass

        def broken_u(x):
            raise LiftFailure("scalar undefined at these points")

        mesh = sphere_meshes[8]
        broken = ManufacturedProblem(u=broken_u, p=problem.p, f=problem.f)
        monkeypatch.setattr(postprocess_errors, "LIFT_THREAD_MIN_FACETS", threshold)
        exact = lift_exact(mesh, sphere, broken)
        assert isinstance(exact.exception(timeout=120), LiftFailure)
        space = mixed_space("rt0")
        fields = SolutionFields(p_local=np.zeros((mesh.n_triangles, 3)), u=np.zeros(mesh.n_triangles))
        star = postprocess_gradient(mesh, space, fields)
        with pytest.raises(LiftFailure, match="^scalar undefined at these points$"):
            compute_errors(mesh, space, exact, fields, star)

    def test_samples_of_another_rule_are_rejected(self, monkeypatch, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[8]
        space = mixed_space("rt0")
        fields = SolutionFields(p_local=np.zeros((mesh.n_triangles, 3)), u=np.zeros(mesh.n_triangles))
        star = postprocess_gradient(mesh, space, fields)
        exact = lift_exact(mesh, sphere, problem)
        monkeypatch.setattr(postprocess_errors, "ERROR_DEGREE", 8)
        with pytest.raises(ValueError, match=f"shape \\({mesh.n_triangles}, 16\\) do not match the degree-8 error rule"):
            compute_errors(mesh, space, exact, fields, star)

    def test_samples_of_another_mesh_are_rejected(self, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[16]
        space = mixed_space("rt0")
        fields = SolutionFields(p_local=np.zeros((mesh.n_triangles, 3)), u=np.zeros(mesh.n_triangles))
        star = postprocess_gradient(mesh, space, fields)
        with pytest.raises(ValueError, match="facets"):
            compute_errors(mesh, space, lift_exact(sphere_meshes[8], sphere, problem), fields, star)


class TestEoc:
    def test_halving_rates(self):
        assert eoc([1.0, 0.25], [1.0, 0.5]) == [pytest.approx(2.0)]
        assert eoc([1.0, 0.5], [1.0, 0.5]) == [pytest.approx(1.0)]
        assert eoc([1.0, 1.0], [1.0, 0.5]) == [pytest.approx(0.0)]

    def test_zero_error_marks_undefined(self):
        rates = eoc([1.0, 0.0, 0.5], [1.0, 0.5, 0.25])
        assert rates[0] is None and rates[1] is None

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            eoc([1.0], [1.0])
