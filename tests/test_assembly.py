"""Hybridized solve, saddle-point cross-check, and load construction."""

import hashlib
import warnings

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import quasitrace.assembly as assembly
from quasitrace.assembly import (
    assemble_local_blocks,
    build_rhs,
    condense_and_assemble,
    solve_hybrid,
    solve_saddle_point,
)
from quasitrace.elements import (
    ASSEMBLY_DEGREE,
    AffineMap,
    edge_dofs,
    global_vector_coefficients,
    local_vector_coefficients,
    mixed_space,
    triangle_rule,
)
from quasitrace.geometry import area_ratio, frame_at
from quasitrace.trace_mesh import ZERO_VALUE_SHIFT, build_bulk_mesh

from conftest import (
    DEFAULT_BOX,
    l2_scalar_diff,
    l2_vector_diff,
    make_sphere_mesh,
    random_needle,
    tet_boundary_mesh,
    zero_rhs,
)
from oracle import closest_point, conformity_defect, conforming_matrices, rt0_condensed_blocks, to_reference
from test_elements import boundary_flux


class TestRhs:
    def test_zero_source_gives_zero_load(self, sphere, sphere_meshes):
        mesh = sphere_meshes[8]
        rhs = build_rhs(lambda x: np.zeros(x.shape[:-1]), mesh, sphere)
        assert rhs.mean_correction == 0.0
        assert np.all(rhs.values == 0.0)

    def test_samples_are_the_weighted_lift_at_assembly_points(self, sphere, problem, sphere_meshes):
        """The stored load is the frame-weighted source at the assembly-rule
        facet points, minus the mean correction, bit for bit."""
        mesh = sphere_meshes[8]
        rhs = build_rhs(problem.f, mesh, sphere)
        maps = AffineMap.from_triangles(mesh.corner_points())
        x = maps.to_physical(triangle_rule(ASSEMBLY_DEGREE)[0])
        faces = np.broadcast_to(np.arange(mesh.n_triangles)[:, None], x.shape[:2])
        frames = frame_at(sphere, x, mesh.face_normals[faces])
        direct = area_ratio(frames) * problem.f(closest_point(sphere, x)) - rhs.mean_correction
        assert np.array_equal(rhs.values, direct)

    def test_load_is_mean_free(self, sphere, problem, sphere_meshes):
        for n in (8, 16):
            mesh = sphere_meshes[n]
            rhs = build_rhs(problem.f, mesh, sphere)
            blocks = assemble_local_blocks(mesh, mixed_space("rt0"), rhs=rhs)
            assert abs(blocks.load.sum()) < 1e-12

    def test_warns_on_incompatible_source(self, sphere, sphere_meshes):
        # the threshold is h^3 * |f|, so use a mesh fine enough to resolve it
        with pytest.warns(UserWarning):
            build_rhs(lambda x: np.ones(x.shape[:-1]), sphere_meshes[16], sphere)

    def test_mean_correction_below_warning_threshold_and_decreasing(self, sphere, problem, sphere_meshes):
        corrections = []
        for n in (8, 16, 32):
            mesh = sphere_meshes[n]
            rhs = build_rhs(problem.f, mesh, sphere)
            cell = triangle_rule(ASSEMBLY_DEGREE)[1][None, :] * mesh.maps.jac[:, None]
            norm_f = np.sqrt((cell * (rhs.values + rhs.mean_correction) ** 2).sum())
            assert abs(rhs.mean_correction) <= mesh.h**3 * norm_f
            corrections.append(abs(rhs.mean_correction))
        assert corrections[0] > corrections[1] > corrections[2]


class TestLocalBlocks:
    def test_mass_positive_definite_on_needles(self):
        rng = np.random.default_rng(40)
        space = mixed_space("bdm1")
        verts = np.stack([random_needle(rng, max_aspect=1e3) for _ in range(50)])
        # build blocks directly from maps; no mesh needed for the mass part
        maps = AffineMap.from_triangles(verts)
        pts, wts = triangle_rule(4)
        bas = space.basis(pts)
        mass = np.einsum("q,kqa,fab,lqb->fkl", wts, bas, maps.metric, bas) / maps.jac[:, None, None]
        eigs = np.linalg.eigvalsh(mass)
        assert eigs.min() > 0.0

    def test_divergence_row_matches_boundary_flux(self):
        """Divergence theorem: row against constants = summed edge fluxes."""
        rng = np.random.default_rng(41)
        for kind in ("rt0", "bdm1"):
            space = mixed_space(kind)
            for _ in range(10):
                verts = random_needle(rng, max_aspect=100.0)
                amap = AffineMap.from_triangles(verts[None])
                for k in range(space.n_dofs):
                    coeffs = np.zeros(space.n_dofs)
                    coeffs[k] = 1.0

                    def basis_field(pts):
                        ref = to_reference(amap, pts[None])[0]
                        vals = np.einsum("kqd,k->qd", space.basis(ref), coeffs)
                        return amap.push_vector(vals[None])[0]

                    row_value = 0.5 * space.divergence()[k]
                    assert row_value == pytest.approx(boundary_flux(verts, basis_field), abs=1e-12)

    def test_reference_blocks_against_overintegration(self):
        """Degree-4 assembly must agree with a degree-10 quadrature oracle."""
        space = mixed_space("rt0")
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        maps = AffineMap.from_triangles(verts[None])
        for degree in (4, 10):
            pts, wts = triangle_rule(degree)
            bas = space.basis(pts)
            mass = np.einsum("q,kqa,fab,lqb->fkl", wts, bas, maps.metric, bas) / maps.jac[:, None, None]
            if degree == 4:
                reference = mass
        assert np.abs(mass - reference).max() < 1e-12


class TestTetBoundarySystem:
    def test_structure_and_symmetry(self):
        mesh = tet_boundary_mesh()
        system = condense_and_assemble(mesh, mixed_space("rt0"), zero_rhs(mesh))
        assert system.matrix[:-1, :-1].shape == (6, 6)
        assert system.matrix.shape == (7, 7)
        dense = system.matrix.toarray()
        assert np.abs(dense - dense.T).max() < 1e-14 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_constant_multiplier_in_kernel(self, kind):
        mesh = tet_boundary_mesh()
        space = mixed_space(kind)
        system = condense_and_assemble(mesh, space, zero_rhs(mesh))
        constant = np.zeros(system.n_multipliers)
        if space.moments_per_edge == 1:
            constant[:] = 1.0
        else:
            constant[0::2] = 1.0
        assert np.abs(system.matrix[:-1, :-1] @ constant).max() < 1e-12

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_kernel_dimension_and_positivity(self, kind):
        mesh = tet_boundary_mesh()
        system = condense_and_assemble(mesh, mixed_space(kind), zero_rhs(mesh))
        eigs = np.linalg.eigvalsh(system.matrix[:-1, :-1].toarray())
        scale = eigs.max()
        assert eigs.min() > -1e-12 * scale
        assert (np.abs(eigs) < 1e-10 * scale).sum() == 1

    def test_zero_source_gives_zero_fields(self):
        mesh = tet_boundary_mesh()
        fields = solve_hybrid(condense_and_assemble(mesh, mixed_space("rt0"), zero_rhs(mesh)))
        assert np.abs(fields.u).max() < 1e-13
        assert np.abs(fields.p_local).max() < 1e-13


def block_gap(kinv: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per facet, the largest entry difference over the largest reference entry."""
    return np.abs(kinv - reference).max(axis=(1, 2)) / np.abs(reference).max(axis=(1, 2))


def closed_tet(corners: np.ndarray):
    """A facet closed into a tetrahedron by a fourth corner off its plane, as face 0."""
    normal = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    apex = corners.mean(axis=0) - np.linalg.norm(corners[1] - corners[0]) * normal / np.linalg.norm(normal)
    return tet_boundary_mesh(np.vstack([corners, apex]))


class TestRt0Condensation:
    """The shipped rt0 inverse blocks against their closed form (``oracle.rt0_condensed_blocks``).

    Bounds stated before the run: 1e-12 on facets of aspect ratio at most
    10, 5e-8 where there are needles.  The needle gap is conditioning, not
    a formula error: the mass block of a needle has a condition number near
    the squared aspect ratio.
    """

    REGULAR_BOUND = 1e-12
    NEEDLE_BOUND = 5e-8

    @staticmethod
    def kinv_and_blocks(mesh):
        system = condense_and_assemble(mesh, mixed_space("rt0"), zero_rhs(mesh))
        return system.kinv, system.blocks

    def test_sphere_meshes(self, sphere_meshes):
        for n, mesh in sphere_meshes.items():
            gap = block_gap(self.kinv_and_blocks(mesh)[0], rt0_condensed_blocks(mesh.corner_points())).max()
            print(f"[rt0 condensation] sphere n = {n}: gap {gap:.2e}")
            assert gap <= self.NEEDLE_BOUND, n

    def test_regular_facets(self):
        rng = np.random.default_rng(50)
        meshes = [closed_tet(random_needle(rng, max_aspect=10.0)) for _ in range(300)]
        gap = max(block_gap(self.kinv_and_blocks(m)[0], rt0_condensed_blocks(m.corner_points())).max() for m in meshes)
        print(f"[rt0 condensation] 300 facets of aspect <= 10: gap {gap:.2e}")
        assert gap <= self.REGULAR_BOUND

    def test_needle_facets(self):
        rng = np.random.default_rng(51)
        gaps, forming, inverting = [], [], []
        for _ in range(200):
            mesh = closed_tet(random_needle(rng))
            kinv, blocks = self.kinv_and_blocks(mesh)
            reference = rt0_condensed_blocks(mesh.corner_points())
            gaps.append(block_gap(kinv, reference).max())
            # report only: the float block of the needle inverted in 50 digits
            k = np.zeros((4, 4))
            k[:3, :3] = blocks.mass[0]
            k[:3, 3] = k[3, :3] = -blocks.div
            with mpmath.workdps(50):
                exact_inv = np.array((mpmath.matrix(k.tolist()) ** -1).tolist(), dtype=float)[None]
            forming.append(block_gap(exact_inv, reference[:1])[0])
            inverting.append(block_gap(kinv[:1], exact_inv)[0])
        print(
            f"[rt0 condensation] 200 needles of aspect <= 1e4: gap {max(gaps):.2e}; on the needle facets, "
            f"forming A {max(forming):.2e}, inverting it {max(inverting):.2e}"
        )
        assert max(gaps) <= self.NEEDLE_BOUND


@pytest.fixture(scope="module")
def sphere_solves(sphere, problem, sphere_meshes):
    mesh = sphere_meshes[8]
    rhs = build_rhs(problem.f, mesh, sphere)
    out = {}
    for kind in ("rt0", "bdm1"):
        space = mixed_space(kind)
        out[kind] = (
            space,
            solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs)),
            solve_saddle_point(mesh, space, rhs=rhs),
            rhs,
        )
    return mesh, out


class TestReleaseFreeMemory:
    """Freed heap pages go back to the system through one helper, which every factorization calls first."""

    def test_calls_the_resolved_trim_without_padding(self, monkeypatch):
        calls = []
        monkeypatch.setattr(assembly, "malloc_trim", calls.append)
        assembly.release_free_memory()
        assert calls == [0]

    def test_does_nothing_without_a_trim(self, monkeypatch):
        monkeypatch.setattr(assembly, "malloc_trim", None)
        assembly.release_free_memory()

    def test_each_factor_follows_a_trim(self, monkeypatch, sphere, problem, sphere_meshes):
        events = []

        def recording_splu(matrix, **options):
            events.append("factor")
            return splu(matrix, **options)

        monkeypatch.setattr(assembly, "malloc_trim", lambda pad: events.append("trim"))
        monkeypatch.setattr(assembly, "splu", recording_splu)
        mesh, space = sphere_meshes[8], mixed_space("rt0")
        rhs = build_rhs(problem.f, mesh, sphere)
        solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        solve_saddle_point(mesh, space, rhs)
        assert events == ["trim", "factor"] * 2


class TestSolvers:
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_hybrid_matches_saddle_point(self, kind, sphere_solves):
        mesh, out = sphere_solves
        space, hybrid, saddle, _ = out[kind]
        assert l2_scalar_diff(mesh, hybrid.u, saddle.u) <= 1e-8
        assert l2_vector_diff(mesh, space, hybrid.p_local, saddle.p_local) <= 1e-8

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_mean_zero_scalar(self, kind, sphere_solves):
        mesh, out = sphere_solves
        _, hybrid, saddle, _ = out[kind]
        assert abs((mesh.areas() * hybrid.u).sum()) < 1e-12
        assert abs((mesh.areas() * saddle.u).sum()) < 1e-12

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_saddle_point_matches_the_dense_bordered_system(self, kind, sphere_solves):
        """The mean fixed after the solve gives the solution of the system
        bordered by the mean constraint, whose multiplier vanishes."""
        mesh, out = sphere_solves
        space, _, saddle, rhs = out[kind]
        dofs = edge_dofs(mesh, space)
        blocks = assemble_local_blocks(mesh, space, rhs=rhs)
        a_mat, b_mat = conforming_matrices(dofs, blocks)
        n_p, nf = dofs.size, mesh.n_triangles
        a, b, areas = a_mat.toarray(), b_mat.toarray(), mesh.areas()[:, None]
        bordered = np.block(
            [
                [a, -b.T, np.zeros((n_p, 1))],
                [-b, np.zeros((nf, nf)), -areas],
                [np.zeros((1, n_p)), -areas.T, np.zeros((1, 1))],
            ]
        )
        sol = np.linalg.solve(bordered, np.concatenate([np.zeros(n_p), -blocks.load, [0.0]]))
        p_local, u, multiplier = local_vector_coefficients(dofs, sol[:n_p]), sol[n_p:-1], sol[-1]
        assert abs(multiplier) <= 1e-12
        assert np.linalg.norm(saddle.u - u) <= 1e-10 * np.linalg.norm(u)
        assert np.linalg.norm(saddle.p_local - p_local) <= 1e-10 * np.linalg.norm(p_local)

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_discrete_conservation(self, kind, sphere_solves):
        """Balance equation holds elementwise against the assembled load."""
        mesh, out = sphere_solves
        space, hybrid, saddle, rhs = out[kind]
        blocks = assemble_local_blocks(mesh, space, rhs=rhs)
        for fields in (hybrid, saddle):
            defect = np.einsum("k,fk->f", blocks.div, fields.p_local) - blocks.load
            assert np.linalg.norm(defect) / np.linalg.norm(blocks.load) < 1e-10

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_saddle_point_flux_equation(self, kind, sphere_solves):
        _, out = sphere_solves
        _, _, saddle, _ = out[kind]
        assert saddle.residual_flux < 1e-10

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_hybrid_residuals_within_conditioning_slack(self, kind, sphere_solves):
        _, out = sphere_solves
        _, hybrid, _, _ = out[kind]
        assert hybrid.residual_balance < 1e-10
        assert hybrid.residual_flux < 1e-8

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_recovered_vector_is_conforming(self, kind, sphere_solves):
        mesh, out = sphere_solves
        space, hybrid, _, _ = out[kind]
        scale = np.abs(hybrid.p_local).max()
        assert conformity_defect(edge_dofs(mesh, space), hybrid.p_local) < 1e-9 * scale

    def test_linearity_in_the_source(self, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[8]
        space = mixed_space("rt0")
        rhs = build_rhs(problem.f, mesh, sphere)
        doubled = build_rhs(lambda x: 2.0 * problem.f(x), mesh, sphere)
        base = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        twice = solve_hybrid(condense_and_assemble(mesh, space, rhs=doubled))
        assert np.allclose(twice.u, 2.0 * base.u, rtol=1e-12, atol=1e-14)
        assert np.allclose(twice.p_local, 2.0 * base.p_local, rtol=1e-12, atol=1e-14)

    def test_flux_equation_clean_on_generic_box(self, sphere, problem):
        """Away from degenerate cuts both residuals sit at rounding level."""
        mesh = make_sphere_mesh(8, box=((-2.013, 1.987), (-2.007, 1.993), (-2.021, 1.979)))
        rhs = build_rhs(problem.f, mesh, sphere)
        fields = solve_hybrid(condense_and_assemble(mesh, mixed_space("rt0"), rhs=rhs))
        assert fields.residual_flux < 1e-12
        assert fields.residual_balance < 1e-12


def offset_mesh(n: int, seed: int):
    """Sphere mesh on a lattice shifted by a seeded offset within one cell."""
    box = np.array(DEFAULT_BOX)
    offset = np.random.default_rng(seed).uniform(0.0, 1.0, 3) * (box[:, 1] - box[:, 0]) / n
    return make_sphere_mesh(n, box=box + offset[:, None])


@pytest.fixture
def factors(monkeypatch):
    """Every ``(matrix, factor)`` pair that ``assembly.splu`` makes during the test."""
    made = []

    def recording_splu(matrix, **options):
        lu = splu(matrix, **options)
        made.append((matrix, lu))
        return lu

    monkeypatch.setattr(assembly, "splu", recording_splu)
    return made


class TestQuasiDefiniteSaddleFactor:
    """The saddle-point system is factored as a quasi-definite shift with a
    symmetric ordering and refined against the exact matrix."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_exact_and_matches_hybrid_under_lattice_offsets(self, kind, seed, sphere, problem):
        mesh = offset_mesh(16, seed)
        space = mixed_space(kind)
        rhs = build_rhs(problem.f, mesh, sphere)
        hybrid = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
        saddle = solve_saddle_point(mesh, space, rhs=rhs)
        assert max(saddle.residual_flux, saddle.residual_balance) <= 1e-12
        assert l2_scalar_diff(mesh, hybrid.u, saddle.u) <= 1e-8
        assert l2_vector_diff(mesh, space, hybrid.p_local, saddle.p_local) <= 1e-8

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_factored_matrix_has_no_dense_row(self, kind, n, factors, sphere, problem, sphere_meshes):
        """Minimum degree has no dense-row detection, so the factored matrix
        holds only edge moments and facet scalars, each coupled to its two
        facets at most."""
        mesh, space = sphere_meshes[n], mixed_space(kind)
        solve_saddle_point(mesh, space, rhs=build_rhs(problem.f, mesh, sphere))
        (matrix, _), = factors
        assert matrix.shape[0] == edge_dofs(mesh, space).size + mesh.n_triangles
        assert np.diff(matrix.tocsc().indptr).max() <= 2 * space.n_dofs + 2

    def test_symmetric_ordering_cuts_the_fill(self, factors, sphere, problem):
        mesh = offset_mesh(24, 2024)
        space = mixed_space("bdm1")
        solve_saddle_point(mesh, space, rhs=build_rhs(problem.f, mesh, sphere))
        (shifted, lu), = factors
        # undo the shift of the scalar diagonal
        n_p = edge_dofs(mesh, space).size
        delta = assembly.SADDLE_REGULARIZATION * shifted.diagonal()[:n_p].max()
        exact = shifted + sp.diags(np.r_[np.zeros(n_p), np.full(shifted.shape[0] - n_p, delta)])
        colamd = splu(exact.tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.5 * (colamd.L.nnz + colamd.U.nnz)

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_one_pass_matrix_is_the_assembled_shift(self, kind, factors, sphere, problem, sphere_meshes):
        """The matrix scattered from the local blocks in one conversion is,
        entry for entry, [[A, -B^T], [-B, 0]] - delta diag(0, I) from the
        assembled conforming matrices, with the bits of their delta."""
        mesh, space = sphere_meshes[8], mixed_space(kind)
        rhs = build_rhs(problem.f, mesh, sphere)
        solve_saddle_point(mesh, space, rhs=rhs)
        (matrix, _), = factors
        dofs = edge_dofs(mesh, space)
        a_mat, b_mat = conforming_matrices(dofs, assemble_local_blocks(mesh, space, rhs=rhs))
        n_p, nf = dofs.size, mesh.n_triangles
        delta = assembly.SADDLE_REGULARIZATION * a_mat.diagonal().max()
        assembled = sp.bmat([[a_mat, -b_mat.T], [-b_mat, None]]) - sp.diags(np.r_[np.zeros(n_p), np.full(nf, delta)])
        assert np.array_equal(matrix.diagonal()[n_p:], np.full(nf, -delta))
        got, want = sp.csc_matrix(matrix, copy=True), sp.csc_matrix(assembled, copy=True)
        for m in (got, want):
            m.eliminate_zeros()
            m.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_stalled_refinement_warns(self, monkeypatch, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[8]
        monkeypatch.setattr(assembly, "SADDLE_REGULARIZATION", 1e-2)
        with pytest.warns(UserWarning, match="saddle-point system"):
            solve_saddle_point(mesh, mixed_space("rt0"), rhs=build_rhs(problem.f, mesh, sphere))


def assembled_residuals(dofs, blocks, fields) -> tuple[float, float]:
    """Relative flux and balance residuals from the assembled conforming matrices."""
    a_mat, b_mat = conforming_matrices(dofs, blocks)
    p_glob = global_vector_coefficients(dofs, fields.p_local)
    a_p, bt_u = a_mat @ p_glob, b_mat.T @ fields.u
    flux = np.linalg.norm(a_p - bt_u) / (np.linalg.norm(a_p) + np.linalg.norm(bt_u))
    balance = np.einsum("k,fk->f", blocks.div, fields.p_local) - blocks.load
    return float(flux), float(np.linalg.norm(balance) / np.linalg.norm(blocks.load))


@pytest.fixture(scope="module")
def residual_cases(sphere, problem, sphere_meshes):
    """Local blocks, edge dofs and both solutions for each (n, space)."""
    out = {}
    for n in (8, 16):
        mesh = sphere_meshes[n]
        rhs = build_rhs(problem.f, mesh, sphere)
        for kind in ("rt0", "bdm1"):
            space = mixed_space(kind)
            solves = {
                "multiplier": solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs)),
                "saddle-point": solve_saddle_point(mesh, space, rhs=rhs),
            }
            out[n, kind] = edge_dofs(mesh, space), assemble_local_blocks(mesh, space, rhs=rhs), solves
    return out


class TestBlockResiduals:
    """The residual checks scatter A p and B^T u from the local blocks."""

    @pytest.mark.parametrize("what", ["multiplier", "saddle-point"])
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_recorded_residuals_are_the_assembled_ones(self, n, kind, what, residual_cases):
        dofs, blocks, solves = residual_cases[n, kind]
        fields = solves[what]
        flux, balance = assembled_residuals(dofs, blocks, fields)
        assert abs(fields.residual_flux - flux) <= 1e-14
        assert abs(fields.residual_balance - balance) <= 1e-14

    @pytest.mark.parametrize("what", ["multiplier", "saddle-point"])
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_perturbed_solution_warns(self, kind, what, residual_cases):
        dofs, blocks, solves = residual_cases[8, kind]
        noise = np.random.default_rng(7).standard_normal(solves[what].p_local.shape)
        p_local = solves[what].p_local * (1.0 + 1e-6 * noise)
        with pytest.warns(UserWarning) as caught:
            fields = assembly._checked_fields(p_local, solves[what].u.copy(), dofs, blocks, f"{what} system")
        worst = max(assembled_residuals(dofs, blocks, fields))
        assert worst > assembly.RESIDUAL_WARNING
        assert [str(w.message) for w in caught] == [
            f"discrete equations satisfied only to {worst:.3e} (ill-conditioned {what} system)"
        ]


@pytest.mark.parametrize("what", ["multiplier", "saddle-point"])
def test_failed_factorization_names_the_size(monkeypatch, sphere_meshes, what):
    """Both solves raise a typed error naming the size of the system they
    factor: the multipliers and the mean row, or the edge moments and the
    facet scalars."""

    def singular(matrix, **options):
        raise RuntimeError("Factor is exactly singular")

    mesh, space = sphere_meshes[8], mixed_space("rt0")
    rhs = zero_rhs(mesh)
    monkeypatch.setattr(assembly, "splu", singular)
    size = edge_dofs(mesh, space).size + (mesh.n_triangles if what == "saddle-point" else 1)
    with pytest.raises(RuntimeError, match=f"{what} system failed \\({size} unknowns\\)"):
        if what == "multiplier":
            solve_hybrid(condense_and_assemble(mesh, space, rhs))
        else:
            solve_saddle_point(mesh, space, rhs)


@pytest.mark.parametrize("what", ["multiplier", "saddle-point"])
def test_non_finite_solution_is_refused(monkeypatch, sphere_meshes, what):
    """A factor whose solves return NaN makes either solve raise instead of recovering fields."""

    class NanFactor:
        def solve(self, rhs):
            return np.full(len(rhs), np.nan)

    mesh, space = sphere_meshes[8], mixed_space("rt0")
    rhs = zero_rhs(mesh)
    monkeypatch.setattr(assembly, "splu", lambda matrix, **options: NanFactor())
    with pytest.raises(RuntimeError, match=f"^{what} solve produced non-finite values$"):
        if what == "multiplier":
            solve_hybrid(condense_and_assemble(mesh, space, rhs))
        else:
            solve_saddle_point(mesh, space, rhs)


NEEDLE_RAY = np.array([0.6, 0.64, 0.48])  # a unit vector


def needle_mesh(k: float):
    """n = 16 sphere mesh on a lattice shifted so that the node nearest
    ``NEEDLE_RAY`` sits at signed distance ``k * ZERO_VALUE_SHIFT * h_bulk``
    along it.  The cut lifts the node's value to the zero-value shift at
    k = 0 and 1 and keeps it at k = 1.01 and 10; either way the facets
    around the node are needles.  Returns the mesh and the node's offset
    from its target."""
    box = np.array(DEFAULT_BOX)
    bulk = build_bulk_mesh(box, 16)
    node = np.argmin(np.linalg.norm(bulk.vertices - NEEDLE_RAY, axis=1))
    target = (1.0 + k * ZERO_VALUE_SHIFT * bulk.h_bulk) * NEEDLE_RAY
    shifted = box + (target - bulk.vertices[node])[:, None]
    miss = np.linalg.norm(build_bulk_mesh(shifted, 16).vertices[node] - target)
    return make_sphere_mesh(16, box=shifted), miss


@pytest.mark.parametrize("k", [0.0, 1.0, 1.01, 10.0])
def test_solves_agree_where_the_needles_are(k, sphere, problem):
    """The worst-conditioned mass blocks leave both solves exact, equal and
    mean free, without a warning."""
    mesh, miss = needle_mesh(k)
    assert miss <= 1e-15
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rhs = build_rhs(problem.f, mesh, sphere)
        for kind in ("rt0", "bdm1"):
            space = mixed_space(kind)
            hybrid = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
            saddle = solve_saddle_point(mesh, space, rhs=rhs)
            assert max(saddle.residual_flux, saddle.residual_balance) <= 1e-12, kind
            assert l2_scalar_diff(mesh, hybrid.u, saddle.u) <= 1e-8, kind
            assert l2_vector_diff(mesh, space, hybrid.p_local, saddle.p_local) <= 1e-8, kind
            assert abs((mesh.areas() * saddle.u).sum()) <= 1e-12, kind
    assert [str(w.message) for w in caught] == []


class TestConformingMatrices:
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_mass_matrix_is_symmetric(self, kind, sphere_meshes):
        mesh = sphere_meshes[8]
        space = mixed_space(kind)
        dofs = edge_dofs(mesh, space)
        a_mat, _ = conforming_matrices(dofs, assemble_local_blocks(mesh, space, zero_rhs(mesh)))
        assert a_mat.shape == (dofs.size, dofs.size)
        assert abs(a_mat - a_mat.T).max() <= 1e-14 * abs(a_mat).max()

    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_divergence_matrix_matches_facet_divergence(self, kind, sphere_meshes):
        """For a conforming field, the global divergence rows equal the
        facet-local divergence blocks applied to its local coefficients."""
        mesh = sphere_meshes[8]
        space = mixed_space(kind)
        blocks = assemble_local_blocks(mesh, space, zero_rhs(mesh))
        dofs = edge_dofs(mesh, space)
        _, b_mat = conforming_matrices(dofs, blocks)
        p_local = local_vector_coefficients(dofs, np.random.default_rng(42).normal(size=dofs.size))
        local_div = np.einsum("k,fk->f", blocks.div, p_local)
        got = b_mat @ global_vector_coefficients(dofs, p_local)
        assert np.abs(got - local_div).max() <= 1e-14 * np.abs(local_div).max()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# SHA-256 of the hybrid system and its solution on the n = 8 sphere mesh.
# Renumbering or re-signing the edge moments changes these bytes.
PINNED = {
    "rt0": {
        "matrix": "c98d1486f61b615ac3c19f199f8fad292783ef3aa59910abd4452ec2b9f90cdf",
        "rhs": "a5b8e6fb00439e889d97ec85cc30c42097d08f4dc30a43bbe05f7f8d646aea74",
        "p_local": "8b28be20ad732be4bfbece4c1ade600feeb44a7f667e444b96d54387155467f3",
        "u": "6cdfbf55862b7684893be4a5ddc8047a03901c3c49846ffdbd1d8a872e296400",
    },
    "bdm1": {
        "matrix": "cba65076d0e3ff5e2009d22afeac0f34d7342d2a158427f246277632541b1d7c",
        "rhs": "e498bdaa10bfd5b21d1f0d1983aaf64da146a7537d34c6a5ba54d88de1dfa8d0",
        "p_local": "65ff4cb7f8f75d9effeffa4c0c8c45dd01fafcc9b67bce8a6ea4a384d4a12569",
        "u": "b5612098b45062f089e58599ac3d3e6ce857ff96c00ea96a746dfda378822d9b",
    },
}


class TestSystemBytes:
    @pytest.mark.parametrize("kind", ["rt0", "bdm1"])
    def test_system_and_solution_bytes_pinned(self, kind, sphere, problem, sphere_meshes):
        mesh = sphere_meshes[8]
        system = condense_and_assemble(mesh, mixed_space(kind), rhs=build_rhs(problem.f, mesh, sphere))
        fields = solve_hybrid(system)
        m = system.matrix
        got = {
            "matrix": digest(m.data, m.indices, m.indptr),
            "rhs": digest(system.rhs),
            "p_local": digest(fields.p_local),
            "u": digest(fields.u),
        }
        assert got == PINNED[kind]


class TestNodePlacementStability:
    def test_errors_stable_under_lattice_shift(self, sphere, problem):
        from quasitrace.postprocess_errors import compute_errors, lift_exact, postprocess_neumann

        space = mixed_space("rt0")
        results = []
        for box in (
            ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
            ((-2.013, 1.987), (-2.007, 1.993), (-2.021, 1.979)),
        ):
            mesh = make_sphere_mesh(16, box=box)
            rhs = build_rhs(problem.f, mesh, sphere)
            fields = solve_hybrid(condense_and_assemble(mesh, space, rhs=rhs))
            star = postprocess_neumann(mesh, space, fields, rhs)
            results.append(compute_errors(mesh, space, lift_exact(mesh, sphere, problem), fields, u_star=star))
        for name in ("err_p", "err_u", "err_eu", "err_post"):
            ratio = getattr(results[0], name) / getattr(results[1], name)
            assert 1.0 / 1.3 <= ratio <= 1.3
