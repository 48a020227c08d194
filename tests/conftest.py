"""Shared fixtures and test utilities."""

from __future__ import annotations

import numpy as np
import pytest

from quasitrace.assembly import RhsField
from quasitrace.cli import StudyConfig, run_study
from quasitrace.elements import ASSEMBLY_DEGREE, AffineMap, eval_vector, triangle_rule
from quasitrace.geometry import Sphere
from quasitrace.postprocess_errors import manufactured_sphere
from quasitrace.trace_mesh import TraceMesh, bisect_quads, build_bulk_mesh, extract_trace_surface

from oracle import interpolate_hdiv, mesh_diagnostics

DEFAULT_BOX = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))


@pytest.fixture(scope="session")
def sphere():
    return Sphere(1.0)


@pytest.fixture(scope="session")
def problem():
    return manufactured_sphere()


def make_sphere_mesh(n: int, box=DEFAULT_BOX) -> TraceMesh:
    surface = Sphere(1.0)
    bulk = build_bulk_mesh(box, n)
    return bisect_quads(extract_trace_surface(bulk, surface.signed_distance), surface=surface)


@pytest.fixture(scope="session")
def sphere_meshes():
    """Extracted sphere meshes at n = 8, 16, 32, shared across tests."""
    return {n: make_sphere_mesh(n) for n in (8, 16, 32)}


@pytest.fixture(scope="session")
def sphere_diagnostics(sphere, sphere_meshes):
    """The oracle's geometric-error sups (``mesh_diagnostics``) of the shared sphere meshes."""
    return {n: mesh_diagnostics(mesh, sphere) for n, mesh in sphere_meshes.items()}


def tet_boundary_mesh() -> TraceMesh:
    """Boundary of a regular tetrahedron: 4 faces, 6 edges, no two coplanar."""
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return TraceMesh.from_arrays(verts, tris, parent_tet=np.full(len(tris), -1))


def zero_rhs(mesh: TraceMesh) -> RhsField:
    """An all-zero load sampled on the assembly rule of ``mesh``."""
    n_points = len(triangle_rule(ASSEMBLY_DEGREE)[1])
    return RhsField(values=np.zeros((mesh.n_triangles, n_points)), mean_correction=0.0)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def random_needle(rng: np.random.Generator, max_aspect: float = 1e4) -> np.ndarray:
    """Random 3D triangle with aspect ratio up to ``max_aspect``.

    Needle shape: one tiny angle and an obtuse apex that can approach (but
    never exceeds) 3 rad, so the family probes the maximum-angle bound at
    every aspect ratio.
    """
    length = rng.uniform(0.2, 1.0)
    aspect = 10.0 ** rng.uniform(0.0, np.log10(max_aspect))
    height = length / aspect
    # apex angle = pi - atan(h/x) - atan(h/(L-x)); x up to ~5h keeps it < 3
    apex_x = rng.uniform(0.0, 5.0) * height
    flat = np.array([[0.0, 0.0, 0.0], [length, 0.0, 0.0], [apex_x, height, 0.0]])
    return flat @ random_rotation(rng).T + rng.uniform(-1.0, 1.0, size=3)


def interpolate_facet(space, verts, field) -> np.ndarray:
    """Edge moments on one facet of a field mapping points (N, 3) to vectors (N, 3)."""

    def batched(pts, faces):
        return field(pts.reshape(-1, 3)).reshape(pts.shape)

    return interpolate_hdiv(np.asarray(verts, dtype=float)[None], space, batched)[0]


def l2_vector_diff(mesh: TraceMesh, space, coeffs_a, coeffs_b, degree: int = 6) -> float:
    maps = AffineMap.from_triangles(mesh.corner_points())
    pts, wts = triangle_rule(degree)
    cell = wts[None, :] * maps.jac[:, None]
    dv = eval_vector(maps, space, np.asarray(coeffs_a) - np.asarray(coeffs_b), pts)
    return float(np.sqrt((cell * (dv**2).sum(axis=-1)).sum()))


def l2_scalar_diff(mesh: TraceMesh, u_a, u_b) -> float:
    areas = mesh.areas()
    return float(np.sqrt((areas * (np.asarray(u_a) - np.asarray(u_b)) ** 2).sum()))


@pytest.fixture(scope="session")
def study_rt0():
    return run_study(StudyConfig(space="rt0", postprocess="neumann", n0=8, levels=4))


@pytest.fixture(scope="session")
def study_bdm1():
    return run_study(StudyConfig(space="bdm1", postprocess="neumann", n0=8, levels=4))
