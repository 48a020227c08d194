"""Signed-distance surface descriptions and facet<->surface field transfer.

A closed C^2 surface is described by its signed distance function.  The
gradient of the distance is the outward unit normal (constant along normal
lines) and its Hessian carries the curvature of the surface and of all
parallel surfaces inside the tubular neighborhood.

``TangentFrame`` bundles the pointwise data needed to move fields between a
flat facet of an extracted mesh and the curved surface: scalars travel via
the closest-point map, tangential vector fields via flux-preserving
(Piola-type) maps.  All functions broadcast over arbitrary leading axes;
points have shape ``(..., 3)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurfaceField",
    "Sphere",
    "TangentFrame",
    "frame_at",
    "area_ratio",
    "piola_to_surface",
    "piola_from_surface",
    "consistency_matrix",
]


class SurfaceField:
    """Closed surface given through its signed distance function.

    Subclasses implement the distance and its first two derivatives; the
    closest-point map derives from them and need not be overridden.
    """

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Unit normal field, valid throughout the tubular neighborhood."""
        raise NotImplementedError

    def hessian(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def closest_point(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        d = self.signed_distance(points)
        return points - d[..., None] * self.gradient(points)


@dataclass(frozen=True)
class Sphere(SurfaceField):
    """Sphere of given radius centered at the origin."""

    radius: float = 1.0

    def signed_distance(self, points):
        points = np.asarray(points, dtype=float)
        return np.linalg.norm(points, axis=-1) - self.radius

    def gradient(self, points):
        points = np.asarray(points, dtype=float)
        r = np.linalg.norm(points, axis=-1, keepdims=True)
        if np.any(r <= 0.0):
            raise ValueError("normal undefined at the sphere center")
        return points / r

    def hessian(self, points):
        points = np.asarray(points, dtype=float)
        r = np.linalg.norm(points, axis=-1)
        if np.any(r <= 0.0):
            raise ValueError("curvature undefined at the sphere center")
        nu = points / r[..., None]
        eye = np.broadcast_to(np.eye(3), nu.shape[:-1] + (3, 3))
        return (eye - nu[..., :, None] * nu[..., None, :]) / r[..., None, None]


def _principal_curvatures(hessian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The distance Hessian has the normal in its kernel; its two remaining
    # eigenvalues follow from the trace identities, no eigensolve needed.
    t = np.einsum("...ii->...", hessian)
    q = np.einsum("...ij,...ji->...", hessian, hessian)
    disc = np.sqrt(np.maximum(2.0 * q - t * t, 0.0))
    return 0.5 * (t + disc), 0.5 * (t - disc)


@dataclass(frozen=True)
class TangentFrame:
    """Pointwise geometric data tying facet points to the surface.

    ``normal`` is the surface unit normal (constant along normal lines, so
    it equals the normal at the closest point), ``face_normal`` the unit
    normal of the flat facet carrying the point.
    """

    point: np.ndarray        # (..., 3)
    dist: np.ndarray         # (...,) signed distance to the surface
    normal: np.ndarray       # (..., 3)
    hessian: np.ndarray      # (..., 3, 3) distance Hessian
    face_normal: np.ndarray  # (..., 3)

    @property
    def closest(self) -> np.ndarray:
        """Closest point on the surface, where scalars are lifted from."""
        return self.point - self.dist[..., None] * self.normal

    @property
    def tangent_projector(self) -> np.ndarray:
        eye = np.broadcast_to(np.eye(3), self.normal.shape[:-1] + (3, 3))
        return eye - self.normal[..., :, None] * self.normal[..., None, :]

    @property
    def face_projector(self) -> np.ndarray:
        eye = np.broadcast_to(np.eye(3), self.face_normal.shape[:-1] + (3, 3))
        return eye - self.face_normal[..., :, None] * self.face_normal[..., None, :]

    @property
    def transversality(self) -> np.ndarray:
        """Cosine between surface and facet normals."""
        return np.einsum("...i,...i->...", self.normal, self.face_normal)


def frame_at(surface: SurfaceField, points: np.ndarray, face_normal: np.ndarray) -> TangentFrame:
    """Build frames at facet points, rejecting points outside the tube.

    The closest-point map is single valued only while |d| stays below the
    reciprocal of the largest principal curvature; points with
    |d| >= 0.5 / max|kappa| are rejected.
    """
    points = np.asarray(points, dtype=float)
    face_normal = np.broadcast_to(np.asarray(face_normal, dtype=float), points.shape)
    dist = surface.signed_distance(points)
    hess = surface.hessian(points)
    k1, k2 = _principal_curvatures(hess)
    kmax = np.maximum(np.abs(k1), np.abs(k2))
    if np.any(np.abs(dist) * kmax >= 0.5):
        raise ValueError("point outside the tubular neighborhood of the surface")
    return TangentFrame(
        point=points,
        dist=dist,
        normal=surface.gradient(points),
        hessian=hess,
        face_normal=face_normal,
    )


def area_ratio(frame: TangentFrame) -> np.ndarray:
    """Jacobian relating facet-area measure to surface-area measure.

    Equals (nu . nu_h)(1 - d k1)(1 - d k2) with the principal curvatures
    taken at the evaluation point; the curvature product is computed as the
    tangential determinant 1 - d tr(H) + d^2 (tr(H)^2 - tr(H^2)) / 2, which
    avoids an eigensolve per point.
    """
    cosang = frame.transversality
    if np.any(cosang <= 0.0):
        raise ValueError("facet normal not transverse to the surface normal")
    t = np.einsum("...ii->...", frame.hessian)
    q = np.einsum("...ij,...ji->...", frame.hessian, frame.hessian)
    d = frame.dist
    det_tangent = 1.0 - d * t + 0.5 * d * d * (t * t - q)
    return cosang * det_tangent


def piola_to_surface(frame: TangentFrame, p_face: np.ndarray) -> np.ndarray:
    """Push a facet-tangential vector to a surface-tangential vector.

    ``p_face`` must be tangent to the facet (face_projector fixes it).
    Flux preserving: together with ``piola_from_surface`` it is the exact
    inverse pair on tangent fields.  The result is evaluated at the closest
    point of ``frame.point``.
    """
    mu = area_ratio(frame)
    mat = frame.tangent_projector - frame.dist[..., None, None] * frame.hessian
    out = np.einsum("...ij,...j->...i", mat, np.asarray(p_face, dtype=float))
    return out / mu[..., None]


def piola_from_surface(frame: TangentFrame, p_surface: np.ndarray) -> np.ndarray:
    """Pull a surface-tangential vector (given at the closest point) to the facet.

    ``p_surface`` must be tangent to the surface at the closest point; the
    result is tangent to the facet.
    """
    mu = area_ratio(frame)
    cosang = frame.transversality
    p_surface = np.asarray(p_surface, dtype=float)
    eye = np.broadcast_to(np.eye(3), frame.hessian.shape)
    mat = eye - frame.dist[..., None, None] * frame.hessian
    y = np.linalg.solve(mat, p_surface[..., None])[..., 0]
    y = y - frame.normal * (np.einsum("...i,...i->...", frame.face_normal, y) / cosang)[..., None]
    return mu[..., None] * y


def consistency_matrix(frame: TangentFrame) -> np.ndarray:
    """Symmetric matrix B comparing exact and pulled-back tangential mass.

    For tangent fields p, q the mismatch between the surface mass form and
    the facet mass form of their pulled-back versions is the mass form of
    (P - B) p against q, with P the tangent projector.  |P - B| shrinks at
    second order in the mesh size; used for geometric-consistency
    diagnostics only.
    """
    mu = area_ratio(frame)
    cosang = frame.transversality
    eye = np.broadcast_to(np.eye(3), frame.hessian.shape)
    ainv = np.linalg.inv(eye - frame.dist[..., None, None] * frame.hessian)
    skew = eye - frame.normal[..., :, None] * frame.face_normal[..., None, :] / cosang[..., None, None]
    half = skew @ ainv @ frame.tangent_projector
    return mu[..., None, None] * (np.swapaxes(half, -1, -2) @ half)
