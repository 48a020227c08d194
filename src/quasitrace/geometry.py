"""Signed-distance surface descriptions and facet<->surface field transfer.

A closed C^2 surface is described by its signed distance function.  The
gradient of the distance is the outward unit normal (constant along normal
lines) and its Hessian carries the curvature of the surface and of all
parallel surfaces inside the tubular neighborhood.

``TangentFrame`` bundles the pointwise data needed to move fields between a
flat facet of an extracted mesh and the curved surface: scalars are lifted
from the closest point (``TangentFrame.closest``), tangential vector fields
are pulled back by a flux-preserving (Piola-type) map.  All functions
broadcast over arbitrary leading axes; points have shape ``(..., 3)``.

Every 3x3 kernel is in closed form.  The distance Hessian H is symmetric
with the normal nu in its kernel, so its characteristic polynomial is
x (x^2 - t x + g) with t = tr H and g = (t^2 - tr H^2) / 2.  By
Cayley-Hamilton the resolvent at distance d is

    (I - d H)^-1 = I + (d (1 - d t) H + d^2 H^2) / D,
    D = det(I - d H) = 1 - d t + d^2 g,

exact on every vector, not only on tangent ones.  ``frame_at`` computes t
and D once per frame; the tube check keeps D >= 1/4.  Consumers
evaluate points and frames facet block by facet block (``point_blocks``,
``frame_blocks``), so no (F, Q, 3, 3) stack of a whole mesh is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SurfaceField:
    """Closed surface given through its signed distance function.

    Subclasses implement two methods: the distance alone, which the lattice
    is cut by, and the distance with its first two derivatives in one pass,
    which everything on the mesh reads (the normal included).  The
    closest-point map is ``TangentFrame.closest``.
    """

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distance (...,), unit normal (..., 3) and distance Hessian (..., 3, 3).

        The distance equals what ``signed_distance`` returns at the same
        points, and the normal, its gradient, is valid throughout the
        tubular neighborhood.  Contract on the Hessian: symmetric, with the
        normal in its kernel (H nu = 0, since the gradient has unit length).
        The closed-form resolvent of this module is exact only under it.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Sphere(SurfaceField):
    """Sphere of given radius centered at the origin."""

    radius: float = 1.0

    def signed_distance(self, points):
        points = np.asarray(points, dtype=float)
        return np.linalg.norm(points, axis=-1) - self.radius

    def derivatives(self, points):
        points = np.asarray(points, dtype=float)
        r = np.linalg.norm(points, axis=-1)
        if np.any(r <= 0.0):
            raise ValueError("normal undefined at the sphere center")
        nu = points / r[..., None]
        # (I - nu nu^T) / r in place: 1 + (-a) rounds exactly like 1 - a.
        hess = nu[..., :, None] * nu[..., None, :]
        np.negative(hess, out=hess)
        np.einsum("...ii->...i", hess)[...] += 1.0
        hess /= r[..., None, None]
        return r - self.radius, nu, hess


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
    trace: np.ndarray        # (...,) t = tr H
    det_tangent: np.ndarray  # (...,) D = det(I - d H) = 1 - d t + d^2 (t^2 - tr H^2) / 2

    @property
    def closest(self) -> np.ndarray:
        """Closest point on the surface, where scalars are lifted from."""
        return self.point - self.dist[..., None] * self.normal

    @cached_property
    def transversality(self) -> np.ndarray:
        """Cosine between surface and facet normals; ``ValueError`` where it is not positive."""
        cosang = np.einsum("...i,...i->...", self.normal, self.face_normal)
        if np.any(cosang <= 0.0):
            raise ValueError("facet normal not transverse to the surface normal")
        return cosang


def frame_at(surface: SurfaceField, points: np.ndarray, face_normal: np.ndarray) -> TangentFrame:
    """Build frames at facet points, rejecting points outside the tube.

    The closest-point map is single valued only while |d| stays below the
    reciprocal of the largest principal curvature; points with
    |d| >= 0.5 / max|kappa| are rejected.
    """
    points = np.asarray(points, dtype=float)
    face_normal = np.broadcast_to(np.asarray(face_normal, dtype=float), points.shape)
    dist, normal, hess = surface.derivatives(points)
    # With nu in the kernel of H, the two principal curvatures follow from
    # the trace identities, no eigensolve needed.
    t = np.einsum("...ii->...", hess)
    q = np.einsum("...ij,...ji->...", hess, hess)
    disc = np.sqrt(np.maximum(2.0 * q - t * t, 0.0))
    kmax = np.maximum(np.abs(0.5 * (t + disc)), np.abs(0.5 * (t - disc)))
    if np.any(np.abs(dist) * kmax >= 0.5):
        raise ValueError("point outside the tubular neighborhood of the surface")
    return TangentFrame(
        point=points,
        dist=dist,
        normal=normal,
        hessian=hess,
        face_normal=face_normal,
        trace=t,
        det_tangent=1.0 - dist * t + 0.5 * dist * dist * (t * t - q),
    )


# Facets per block of frames.  At n = 96 (2-vCPU VM) blocks of 256-2048
# facets ran within 10% of each other; 4096 and whole-mesh blocks were slower.
# 512 ran the three frame consumers ~10% faster than 2048 there, and keeps
# the per-block temporaries of the exact-solution lift small while it runs
# beside the factorization (rt0 study peak RSS 309.2 -> 306.5 MB, medians of
# three lone studies, with freed heap pages returned before the factor).
FACET_BLOCK = 512


def facet_slices(count: int):
    """Consecutive slices of at most ``FACET_BLOCK`` facets covering ``range(count)``."""
    for start in range(0, count, FACET_BLOCK):
        yield slice(start, min(start + FACET_BLOCK, count))


def point_blocks(mesh, ref_points: np.ndarray):
    """Reference-triangle points mapped onto every facet, one block of facets at a time.

    Yields ``(facets, points)``: a facet slice and the (f, Q, 3) images of
    ``ref_points`` (Q, 2), the only physical points formed.  Consumers reduce
    per-point arrays whole, so their results do not depend on the block size.
    """
    maps = mesh.maps
    for facets in facet_slices(len(maps)):
        yield facets, maps[facets].to_physical(ref_points)


def frame_blocks(surface: SurfaceField, mesh, ref_points: np.ndarray):
    """``(facets, frame)`` at the points of ``point_blocks``, rejecting points outside the tube."""
    for facets, points in point_blocks(mesh, ref_points):
        yield facets, frame_at(surface, points, mesh.face_normals[facets, None, :])


def area_ratio(frame: TangentFrame) -> np.ndarray:
    """Jacobian relating facet-area measure to surface-area measure.

    Equals (nu . nu_h)(1 - d k1)(1 - d k2) with the principal curvatures
    taken at the evaluation point; the curvature product is the frame's
    ``det_tangent``, which avoids an eigensolve per point.  Raises
    ``ValueError`` where the facet is not transverse to the surface.
    """
    return frame.transversality * frame.det_tangent


def _resolvent_weights(frame: TangentFrame) -> tuple[np.ndarray, np.ndarray]:
    """Weights a, b with (I - d H)^-1 = I + a H + b H^2 (Cayley-Hamilton)."""
    d = frame.dist
    return d * (1.0 - d * frame.trace) / frame.det_tangent, d * d / frame.det_tangent


def piola_from_surface(frame: TangentFrame, p_surface: np.ndarray) -> np.ndarray:
    """Pull a surface-tangential vector (given at the closest point) to the facet.

    ``p_surface`` must be tangent to the surface at the closest point; the
    result is tangent to the facet.  The resolvent (I - d H)^-1 is applied
    in closed form as two matrix-vector products.
    """
    mu = area_ratio(frame)
    cosang = frame.transversality
    p_surface = np.asarray(p_surface, dtype=float)
    a, b = _resolvent_weights(frame)
    hp = np.einsum("...ij,...j->...i", frame.hessian, p_surface)
    hhp = np.einsum("...ij,...j->...i", frame.hessian, hp)
    y = p_surface + a[..., None] * hp + b[..., None] * hhp
    y = y - frame.normal * (np.einsum("...i,...i->...", frame.face_normal, y) / cosang)[..., None]
    return mu[..., None] * y
