"""Reference tools of the analysis that the method itself never computes.

The canonical H(div) interpolant (edge moments of a tangential field), the
L2 projection of the scalar onto facet constants and the inverse of the
flux-preserving pull-back (Brezzi & Fortin, Mixed and Hybrid Finite Element
Methods, 1991) back acceptance criteria 5, 7 and 8 and the unit tests.  So
does the geometric error of a trace mesh that the error analysis bounds
(Dziuk & Elliott, Acta Numerica 2013): the consistency gap |P - B| in closed
form and as a 3x3 stack, and the sups of it, of the area mismatch and of
the normal gap over a mesh (criteria 4 and 7).  So do the plain
closest-point map, the surface and facet tangent projectors, the inverse
facet map, the two-sided conformity defect of broken edge moments, the
facets on each side of a mesh edge, the shifted level values that
extraction cuts, and the assembled conforming mass and divergence matrices
whose products the solves' residual checks scatter from the local blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from quasitrace.assembly import LocalBlocks, SolutionFields
from quasitrace.elements import (
    ASSEMBLY_DEGREE,
    EDGE_GAUSS_POINTS,
    ERROR_DEGREE,
    REF_EDGES,
    AffineMap,
    EdgeDofs,
    MixedSpace,
    edge_dofs,
    gauss_01,
    global_vector_coefficients,
    local_vector_coefficients,
    triangle_rule,
)
from quasitrace.geometry import (
    SurfaceField,
    TangentFrame,
    _resolvent_weights,
    area_ratio,
    facet_slices,
    frame_at,
    frame_blocks,
    piola_from_surface,
)
from quasitrace.postprocess_errors import ManufacturedProblem
from quasitrace.trace_mesh import ZERO_VALUE_SHIFT, BulkMesh, TraceMesh

_EDGE_START, _EDGE_END = np.array(REF_EDGES).T


def closest_point(surface: SurfaceField, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    d = surface.signed_distance(points)
    return points - d[..., None] * surface.derivatives(points)[1]


def edge_incidence(mesh: TraceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Facets [agreeing, opposing] on each edge of ``mesh`` and the edge's local index in them, (E, 2) each.

    The sort of ``TraceMesh.from_arrays``: the edges come in the order of
    ``mesh.edges``, and the agreeing facet traverses its edge with
    increasing vertex ids.
    """
    triangles = mesh.triangles
    u = triangles[:, [1, 2, 0]].ravel()
    v = triangles[:, [2, 0, 1]].ravel()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    agree = u < v
    pairs = np.lexsort((~agree, hi, lo)).reshape(-1, 2)
    return pairs // 3, pairs % 3


def shifted_level_values(bulk: BulkMesh, psi) -> np.ndarray:
    """Values of ``psi`` at the bulk vertices as extraction cuts them.

    Values within ``ZERO_VALUE_SHIFT * h_bulk`` of zero are shifted positive.
    """
    values = np.asarray(psi(bulk.vertices), dtype=float)
    tiny = ZERO_VALUE_SHIFT * bulk.h_bulk
    return np.where(np.abs(values) < tiny, tiny, values)


def tangent_projector(frame: TangentFrame) -> np.ndarray:
    eye = np.broadcast_to(np.eye(3), frame.normal.shape[:-1] + (3, 3))
    return eye - frame.normal[..., :, None] * frame.normal[..., None, :]


def face_projector(frame: TangentFrame) -> np.ndarray:
    eye = np.broadcast_to(np.eye(3), frame.face_normal.shape[:-1] + (3, 3))
    return eye - frame.face_normal[..., :, None] * frame.face_normal[..., None, :]


def consistency_matrix(frame: TangentFrame) -> np.ndarray:
    """Symmetric matrix B comparing exact and pulled-back tangential mass.

    B = mu K^T K with K = S (I - d H)^-1 P and the oblique projector
    S = I - nu nu_h^T / c, c = nu . nu_h; because H P = H, the resolvent
    times P is M = P + a H + b H^2 and B = mu (M^2 + w w^T) with
    w = M nu_h / c.  ``consistency_gap`` gives |P - B| from scalars and two
    matrix-vector products per point.
    """
    mu = area_ratio(frame)
    a, b = _resolvent_weights(frame)
    h = frame.hessian
    m = tangent_projector(frame) + a[..., None, None] * h + b[..., None, None] * (h @ h)
    w = np.einsum("...ij,...j->...i", m, frame.face_normal) / frame.transversality[..., None]
    return mu[..., None, None] * (m @ m + w[..., :, None] * w[..., None, :])


def consistency_gap(frame: TangentFrame) -> np.ndarray:
    """Frobenius norm |P - B| of the geometric-consistency defect, per point.

    B is the symmetric matrix comparing exact and pulled-back tangential
    mass: for tangent fields p, q the mismatch between the surface mass form
    and the facet mass form of their pulled-back versions is the mass form
    of (P - B) p against q, with P the tangent projector.  |P - B| shrinks at
    second order in the mesh size; used for diagnostics only.

    By definition B = mu K^T K with K = S (I - d H)^-1 P and the oblique
    projector S = I - nu nu_h^T / c, c = nu . nu_h.  Because H P = H, the
    resolvent times P is

        M = P + a H + b H^2,  a = d (1 - d t) / D,  b = d^2 / D,

    symmetric with M nu = 0.  Then K = M - nu w^T with w = M nu_h / c
    tangent, the cross terms of K^T K vanish, and B = mu (M^2 + w w^T).  By
    Cayley-Hamilton on the tangent plane, H^2 = t H - g P with g = k1 k2,
    so M = alpha P + beta H with eigenvalues m_i = alpha + beta k_i on the
    principal directions.  With x_i = 1 - mu m_i^2 the eigenvalues of
    P - mu M^2,

        |P - B|^2 = x_1^2 + x_2^2 - 2 mu (|w|^2 - mu |M w|^2) + mu^2 |w|^4,

    where the middle term is w^T (P - mu M^2) w.  The curvatures enter only
    through t and the split (k1 - k2)^2 = 2 |H - t P / 2|^2, never through
    a square root, and the split is formed from the deviator entries, so it
    vanishes with them; g = (t^2 - split) / 4.  With s = m_1 + m_2 and
    e^2 = (m_1 - m_2)^2 = beta^2 split,

        x_1 + x_2 = 2 - mu (s^2 + e^2) / 2,  (x_1 - x_2)^2 = mu^2 s^2 e^2,

    and x_1^2 + x_2^2 is half the sum of their squares.  No O(1) terms
    cancel down to the O(h^4) square, so the gap is accurate to round-off
    even where it vanishes.
    """
    mu = area_ratio(frame)
    a, b = _resolvent_weights(frame)
    t, nu = frame.trace, frame.normal
    dev = frame.hessian + (0.5 * t)[..., None, None] * (nu[..., :, None] * nu[..., None, :])
    np.einsum("...ii->...i", dev)[...] -= 0.5 * t[..., None]
    split = 2.0 * np.einsum("...ij,...ij->...", dev, dev)
    alpha = 1.0 - 0.25 * b * (t * t - split)
    beta = a + b * t

    def apply_m(v):
        """M v for a tangent vector v."""
        return alpha[..., None] * v + beta[..., None] * np.einsum("...ij,...j->...i", frame.hessian, v)

    c = frame.transversality
    w = apply_m(frame.face_normal - c[..., None] * nu) / c[..., None]
    mw = apply_m(w)
    s2 = (2.0 * alpha + beta * t) ** 2
    e2 = beta * beta * split
    x_sum = 2.0 - 0.5 * mu * (s2 + e2)
    x_squares = 0.5 * (x_sum * x_sum + mu * mu * s2 * e2)
    ww = np.einsum("...i,...i->...", w, w)
    mixed = ww - mu * np.einsum("...i,...i->...", mw, mw)
    return np.sqrt(np.maximum(x_squares - 2.0 * mu * mixed + mu * mu * ww * ww, 0.0))


def mesh_diagnostics(mesh: TraceMesh, surface: SurfaceField) -> dict[str, float]:
    """Sups of the geometric error of ``mesh`` against ``surface``.

    Over the assembly-rule points: the area mismatch |1 - mu|, the
    consistency gap |P - B| and, with the cosines at the facet centroids,
    the smallest cosine between surface and facet normals.  Per facet: the
    normal gap |nu - nu_h| at the centroid and the area.
    """
    pts, wts = triangle_rule(ASSEMBLY_DEGREE)
    mu, gap_norm, cos_q = (np.empty((mesh.n_triangles, len(wts))) for _ in range(3))
    for facets, frames in frame_blocks(surface, mesh, pts):
        mu[facets] = area_ratio(frames)
        gap_norm[facets] = consistency_gap(frames)
        cos_q[facets] = frames.transversality

    nu_c = surface.derivatives(mesh.corner_points().mean(axis=1))[1]
    normal_gap = np.linalg.norm(nu_c - mesh.face_normals, axis=-1)
    cos_all = min(float(cos_q.min()), float(np.einsum("fi,fi->f", nu_c, mesh.face_normals).min()))

    return {
        "max_normal_gap": float(normal_gap.max()),
        "min_transversality": cos_all,
        "max_area": float(mesh.areas().max()),
        "max_area_mismatch": float(np.abs(1.0 - mu).max()),
        "max_consistency_gap": float(gap_norm.max()),
    }


def to_reference(amap: AffineMap, x: np.ndarray) -> np.ndarray:
    """Pull physical points (F, Q, 3) on the facet planes back to (F, Q, 2)."""
    rel = np.asarray(x, dtype=float) - amap.origin[:, None, :]
    return np.einsum("fde,fie,fqi->fqd", amap.metric_inv, amap.A, rel)


def piola_to_surface(frame: TangentFrame, p_face: np.ndarray) -> np.ndarray:
    """Push a facet-tangential vector to a surface-tangential vector.

    ``p_face`` must be tangent to the facet (``face_projector`` fixes it).
    Flux preserving: together with ``piola_from_surface`` it is the exact
    inverse pair on tangent fields.  The result is evaluated at the closest
    point of ``frame.point``.
    """
    mu = area_ratio(frame)
    mat = tangent_projector(frame) - frame.dist[..., None, None] * frame.hessian
    out = np.einsum("...ij,...j->...i", mat, np.asarray(p_face, dtype=float))
    return out / mu[..., None]


def project_l2(mesh, fn) -> np.ndarray:
    """Elementwise L2 projection of a scalar onto facet constants: its facet means (F,).

    ``fn(points, faces)`` evaluates the scalar at physical points (f, Q, 3)
    of the error rule on the facets (f, Q), called once per block of facets
    (``geometry.facet_slices``) with global facet ids.
    """
    maps = mesh.maps
    pts, wts = triangle_rule(ERROR_DEGREE)
    vals = np.empty((len(maps), len(wts)))
    for facets in facet_slices(len(maps)):
        x = maps[facets].to_physical(pts)
        vals[facets] = fn(x, np.broadcast_to(np.arange(facets.start, facets.stop)[:, None], x.shape[:2]))
    return 2.0 * (vals @ wts)


def interpolate_hdiv(corners: np.ndarray, space: MixedSpace, field) -> np.ndarray:
    """Edge-moment interpolation of a tangential field, facet by facet.

    ``corners`` holds the facet vertices (F, 3, 3).  ``field(points,
    faces)`` evaluates the field at edge points (f, 3, q, 3) of the facets
    (f, 3, q), called once per block of facets (``geometry.facet_slices``)
    with global facet ids.  Returns the local coefficients (F, nq) in each
    facet's own edge orientation; conormal-continuous fields give
    conforming ones.
    """
    corners = np.asarray(corners, dtype=float)
    t, w = gauss_01(EDGE_GAUSS_POINTS)
    weights = np.stack([w, w * (2.0 * t - 1.0)])[: space.edge_dofs]
    moments = np.empty((len(corners), 3, len(weights)))
    for facets in facet_slices(len(corners)):
        block = corners[facets]
        start = block[:, _EDGE_START]
        vec = block[:, _EDGE_END] - start                        # (f, 3, 3)
        length = np.linalg.norm(vec, axis=-1)
        normal = np.cross(block[:, 1] - block[:, 0], block[:, 2] - block[:, 0])
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
        conormal = np.cross(vec / length[..., None], normal[:, None, :])
        pts = start[:, :, None, :] + t[:, None] * vec[:, :, None, :]
        faces = np.broadcast_to(np.arange(facets.start, facets.stop)[:, None, None], pts.shape[:3])
        flux = np.einsum("fkqi,fki->fkq", field(pts, faces), conormal)
        moments[facets] = length[..., None] * np.einsum("fkq,mq->fkm", flux, weights)
    return moments.reshape(len(corners), -1)


def transformed_exact_flux(surface: SurfaceField, problem: ManufacturedProblem, mesh: TraceMesh):
    """Facet-side evaluator of the pulled-back exact vector unknown."""

    def evaluator(points, faces):
        frames = frame_at(surface, points, mesh.face_normals[np.asarray(faces)])
        return piola_from_surface(frames, problem.p(frames.closest))

    return evaluator


def injected_exact_fields(
    mesh: TraceMesh, surface: SurfaceField, space: MixedSpace, problem: ManufacturedProblem
) -> SolutionFields:
    """Best-approximation stand-in for a solve: projected scalar, interpolated vector.

    Each edge moment is taken on the facet running along the edge direction
    and shared with the facet across the edge.
    """
    u_proj = project_l2(mesh, lambda x, f: problem.u(closest_point(surface, x)))
    dofs = edge_dofs(mesh, space)
    moments = interpolate_hdiv(mesh.corner_points(), space, transformed_exact_flux(surface, problem, mesh))
    p_local = local_vector_coefficients(dofs, global_vector_coefficients(dofs, moments))
    return SolutionFields(p_local=p_local, u=u_proj)


def conformity_defect(dofs: EdgeDofs, p_local: np.ndarray) -> float:
    """Largest disagreement of shared edge moments read from the two sides."""
    return float(np.abs(p_local - local_vector_coefficients(dofs, global_vector_coefficients(dofs, p_local))).max())


def conforming_matrices(dofs: EdgeDofs, blocks: LocalBlocks) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Assemble the conforming vector mass and divergence matrices from local blocks.

    Global vector dofs are the edge moments numbered by ``dofs``; rows of
    the divergence matrix correspond to facets (constant scalars).
    """
    ids, sign, n_p = dofs.ids, dofs.conforming, dofs.size
    nf = len(blocks.load)

    a_blocks = sign[:, :, None] * sign[:, None, :] * blocks.mass
    rows = np.broadcast_to(ids[:, :, None], a_blocks.shape)
    cols = np.broadcast_to(ids[:, None, :], a_blocks.shape)
    a_mat = sp.coo_matrix((a_blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n_p, n_p)).tocsr()

    b_data = sign * blocks.div
    b_rows = np.broadcast_to(np.arange(nf)[:, None], ids.shape)
    b_mat = sp.coo_matrix((b_data.ravel(), (b_rows.ravel(), ids.ravel())), shape=(nf, n_p)).tocsr()
    return a_mat, b_mat
