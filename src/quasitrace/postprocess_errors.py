"""Local postprocessing of the scalar, manufactured data, and error norms.

Postprocessing solves, facet by facet, a 2x2 system on the mean-free linear
functions for a piecewise-linear scalar whose facet mean matches the raw
scalar unknown.  Two variants are provided: one driven by the sampled load
of ``build_rhs`` and the boundary fluxes of the vector unknown, one by its
interior values.  Both gain one order over the raw scalar.

Error norms compare against the manufactured solution transferred to the
facet mesh at the points of the error rule: the scalar through the
closest-point lift, the vector through the flux-preserving pull-back.  The
transfer does not depend on the discrete solution, so it is data:
``lift_exact`` samples it once per level and returns a future of the
samples, and ``compute_errors`` only evaluates the discrete fields against
them.  The lift runs on a private worker thread; on large meshes the caller
factors the hybrid system meanwhile.  SuperLU releases the GIL while it
factors but takes it back for each allocation, so the two overlap only as
long as the lift spends its time in numpy kernels, which release it too.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .elements import (
    ASSEMBLY_DEGREE,
    EDGE_GAUSS_POINTS,
    ERROR_DEGREE,
    AffineMap,
    MixedSpace,
    REF_EDGE_LENGTHS,
    REF_EDGE_NORMALS,
    edge_points,
    eval_p1,
    eval_vector,
    gauss_01,
    triangle_rule,
)
from .geometry import SurfaceField, facet_slices, frame_blocks, piola_from_surface
from .trace_mesh import TraceMesh, MeshStats
from .assembly import RhsField, SolutionFields

# Mean-free linear basis on the reference triangle: barycentric coordinates
# of the two non-origin vertices, shifted by their mean.  Vertex values and
# reference gradients are closed form.
_MEANFREE_VERTEX_VALUES = np.array([[-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
                                    [-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]])


@dataclass(frozen=True)
class ManufacturedProblem:
    """Exact solution data on the continuous surface.

    ``u`` and ``f`` take points on the surface; ``p`` is the negative
    tangential gradient of ``u`` (the exact vector unknown).
    """

    u: object
    p: object
    f: object


def manufactured_sphere() -> ManufacturedProblem:
    """Classic smooth test case on the unit sphere: u = sin(x) + y + z^3.

    The source comes from the surface Laplacian identity for ambient
    extensions, using that the sphere's curvatures sum to 2 at radius 1:
    surface_lap(u) = lap(u) - 2 du/dn - d2u/dn2.  Every term of u is odd in
    one coordinate, so u and the source both have zero surface mean.
    """

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x[..., 0]) + x[..., 1] + x[..., 2] ** 3

    def p(x):
        x = np.asarray(x, dtype=float)
        g = np.stack(
            [np.cos(x[..., 0]), np.ones(x.shape[:-1]), 3.0 * x[..., 2] ** 2], axis=-1
        )
        return -(g - np.einsum("...i,...i->...", x, g)[..., None] * x)

    def f(x):
        x = np.asarray(x, dtype=float)
        xx, yy, zz = x[..., 0], x[..., 1], x[..., 2]
        return (1.0 - xx**2) * np.sin(xx) + 2.0 * xx * np.cos(xx) + 2.0 * yy - 6.0 * zz + 12.0 * zz**3

    return ManufacturedProblem(u=u, p=p, f=f)


def _postprocess_common(rhs_meanfree: np.ndarray, u_mean: np.ndarray, maps: AffineMap) -> np.ndarray:
    """Solve the 2x2 mean-free systems and attach the facet means."""
    # Stiffness of the mean-free basis is |T| * metric_inv: the reference
    # gradients are the coordinate directions.  Its determinant is exactly
    # (|T| / jac)^2 = 1/4, independent of the facet shape.
    stiff = 0.5 * maps.jac[:, None, None] * maps.metric_inv
    c0 = 4.0 * (stiff[:, 1, 1] * rhs_meanfree[:, 0] - stiff[:, 0, 1] * rhs_meanfree[:, 1])
    c1 = 4.0 * (-stiff[:, 1, 0] * rhs_meanfree[:, 0] + stiff[:, 0, 0] * rhs_meanfree[:, 1])
    coeff = np.stack([c0, c1], axis=-1)
    return u_mean[:, None] + coeff @ _MEANFREE_VERTEX_VALUES


def postprocess_neumann(mesh: TraceMesh, space: MixedSpace, fields: SolutionFields, rhs: RhsField) -> np.ndarray:
    """Facet-local linear reconstruction driven by the load and boundary fluxes.

    Solves, per facet, grad u* . grad v = f v - (boundary flux of the vector
    unknown) v over the mean-free linears, then fixes the facet mean to match
    the raw scalar.  ``rhs`` holds f: the load sampled by ``build_rhs``,
    integrated on the assembly rule it was sampled on.  Returns
    reference-vertex values (F, 3).
    """
    maps = mesh.maps
    pts, wts = triangle_rule(ASSEMBLY_DEGREE)
    vbas = np.stack([pts[:, 0] - 1.0 / 3.0, pts[:, 1] - 1.0 / 3.0])      # (2, Q)
    rhs_local = np.einsum("q,fq,iq->fi", wts, rhs.values, vbas) * maps.jac[:, None]

    # Boundary term: the flux measure is invariant under the element map, so
    # the edge integrals reduce to reference-edge quadrature.
    t, w = gauss_01(EDGE_GAUSS_POINTS)
    bas_ref = space.basis
    for e in range(3):
        epts = edge_points(e, t)
        phi = bas_ref(epts)                                              # (nq, q, 2)
        flux = np.einsum("kqd,d->kq", phi, REF_EDGE_NORMALS[e])
        ph_flux = np.einsum("fk,kq->fq", fields.p_local, flux)
        vedge = np.stack([epts[:, 0] - 1.0 / 3.0, epts[:, 1] - 1.0 / 3.0])
        rhs_local -= REF_EDGE_LENGTHS[e] * np.einsum("q,fq,iq->fi", w, ph_flux, vedge)
    return _postprocess_common(rhs_local, fields.u, maps)


def postprocess_gradient(mesh: TraceMesh, space: MixedSpace, fields: SolutionFields) -> np.ndarray:
    """Facet-local linear reconstruction driven by the interior vector values.

    Same mean handling as the flux-driven variant; the right-hand side is the
    (sign-flipped) pairing of the vector unknown with the test gradients,
    which collapses to a reference-element integral.
    """
    pts, wts = triangle_rule(ASSEMBLY_DEGREE)
    phat = np.einsum("kqd,fk->fqd", space.basis(pts), fields.p_local)
    rhs = -np.einsum("q,fqi->fi", wts, phat)
    return _postprocess_common(rhs, fields.u, mesh.maps)


@dataclass(frozen=True)
class ErrorNorms:
    """Facet-mesh L2 errors of one solve."""

    err_p: float
    err_u: float
    err_eu: float
    err_post: float
    err_post_alt: float | None


# On meshes with fewer facets, ``lift_exact`` waits for the lift before it
# returns.  There the lift outlasts the factorization it would overlap, and
# the caller would then wait on the thread for up to one GIL switch interval
# between its own stages: a traced rt0 study from 12 subdivisions spent 74.5%
# of each level inside its stages when every lift overlapped, against 98.9%
# with this threshold, at the same wall time.
LIFT_THREAD_MIN_FACETS = 8192

# One worker: the lift of a level overlaps that level's factorization, and
# a second lift would only compete with it for the GIL.  The worker stays
# numpy-bound, because the factorization takes the GIL back for every
# allocation: at n = 96 (rt0, 2-vCPU VM, median of 5) the factor took 1.30 s
# alone, 1.32 s beside the lift and 1.40 s (up to 2.16 s) beside a thread
# running a pure-Python loop.  The worker calls only module-level functions
# that callers cannot rebind, and allocates nothing that outlives a facet
# block: SuperLU stays on the caller's thread, where its factor is returned
# to the allocator when it is freed.
_LIFT_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="quasitrace-lift")


def _lift_blocks(mesh: TraceMesh, surface: SurfaceField, problem: ManufacturedProblem,
                 ref_points: np.ndarray, p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    for facets, frames in frame_blocks(surface, mesh, ref_points):
        closest = frames.closest
        p[facets] = piola_from_surface(frames, problem.p(closest))
        u[facets] = problem.u(closest)
    return p, u


def lift_exact(mesh: TraceMesh, surface: SurfaceField, problem: ManufacturedProblem) -> Future:
    """Sample the exact solution on the error rule (degree ``ERROR_DEGREE``) of every facet.

    The vector unknown is pulled back to the facets by the flux-preserving
    map and the scalar lifted from the closest points, on the worker thread.
    Returns a future of the samples ``(p, u)``, (F, Q, 3) and (F, Q), which
    the calling thread allocates; on meshes of fewer than
    ``LIFT_THREAD_MIN_FACETS`` facets it is done when the call returns.  A
    lift error is raised by ``result()``.
    """
    pts, _ = triangle_rule(ERROR_DEGREE)
    p = np.empty((mesh.n_triangles, len(pts), 3))
    u = np.empty((mesh.n_triangles, len(pts)))
    lifted = _LIFT_WORKER.submit(_lift_blocks, mesh, surface, problem, pts, p, u)
    if mesh.n_triangles < LIFT_THREAD_MIN_FACETS:
        wait([lifted])
    return lifted


def compute_errors(
    mesh: TraceMesh,
    space: MixedSpace,
    exact: Future,
    fields: SolutionFields,
    u_star: np.ndarray,
    u_star_alt: np.ndarray | None = None,
) -> ErrorNorms:
    """L2 error norms over the facet mesh on the error rule (degree ``ERROR_DEGREE``).

    ``u_star`` is the postprocessed scalar whose error is ``err_post``;
    ``u_star_alt``, if given, a second one for ``err_post_alt``.
    ``exact`` is the future ``lift_exact`` returned for this mesh.  Waits
    for it and re-raises a lift error; samples taken on another rule or
    another number of facets raise ``ValueError``.
    """
    p_exact, u_lift = exact.result()
    maps = mesh.maps
    pts, wts = triangle_rule(ERROR_DEGREE)
    if u_lift.shape != (len(maps), len(wts)):
        raise ValueError(
            f"exact samples of shape {u_lift.shape} do not match "
            f"the degree-{ERROR_DEGREE} error rule on {len(maps)} facets"
        )
    cell = wts[None, :] * maps.jac[:, None]
    p_gap = np.empty(cell.shape)
    for facets in facet_slices(len(maps)):
        p_h = eval_vector(maps[facets], space, fields.p_local[facets], pts)
        p_gap[facets] = ((p_exact[facets] - p_h) ** 2).sum(axis=-1)

    err_p = math.sqrt(float((cell * p_gap).sum()))

    err_u = math.sqrt(float((cell * (u_lift - fields.u[:, None]) ** 2).sum()))

    u_proj = 2.0 * np.einsum("q,fq->f", wts, u_lift)
    areas = 0.5 * maps.jac
    err_eu = math.sqrt(float((areas * (u_proj - fields.u) ** 2).sum()))

    err_post, err_post_alt = (
        None if star is None else math.sqrt(float((cell * (u_lift - eval_p1(star, pts)) ** 2).sum()))
        for star in (u_star, u_star_alt)
    )
    return ErrorNorms(err_p=err_p, err_u=err_u, err_eu=err_eu, err_post=err_post, err_post_alt=err_post_alt)


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level of a convergence study."""

    level: int
    n: int
    stats: MeshStats
    errors: ErrorNorms | None
    rhs_mean_correction: float


def eoc(errors, hs) -> list[float | None]:
    """Observed convergence orders between consecutive levels.

    ``None`` marks undefined entries (a vanishing error), never infinity.
    """
    errors = list(errors)
    hs = list(hs)
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error/size sequences of length >= 2")
    rates: list[float | None] = []
    for e0, e1, h0, h1 in zip(errors, errors[1:], hs, hs[1:]):
        if e0 <= 0.0 or e1 <= 0.0:
            rates.append(None)
        else:
            rates.append(math.log(e0 / e1) / math.log(h0 / h1))
    return rates


@dataclass
class ErrorReport:
    """Collected study levels with convergence-rate accessors."""

    space: str
    records: list[LevelRecord] = field(default_factory=list)

    def column(self, name: str) -> list[float]:
        return [getattr(r.errors, name) for r in self.records]

    def hs(self) -> list[float]:
        return [r.stats.h for r in self.records]

    def rates(self, name: str) -> list[float | None]:
        if len(self.records) < 2:
            return [None] * len(self.records)
        return [None] + eoc(self.column(name), self.hs())
