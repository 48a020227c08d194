"""Reference elements, quadrature, affine facet maps, and the edge-moment dof map.

Vector unknowns live in the lowest Raviart-Thomas space (``rt0``) or the
lowest Brezzi-Douglas-Marini space (``bdm1``) on the reference triangle with
vertices (0,0), (1,0), (0,1), one ``MixedSpace`` each; scalars are facet
constants.  Linears appear only as the postprocessed scalar, given by its
reference-vertex values (``eval_p1``).  Vector degrees of freedom are
edge-normal moments against constants (rt0) or constants and the odd linear
weight 2*t - 1 (bdm1), which keeps the cross-facet orientation bookkeeping
to a single sign per edge even when adjacent facets are not coplanar.  ``edge_dofs`` is the one place that
numbers the moments globally and signs them per facet; every map between
facet-local and global coefficients goes through it.

Physical facets are images of the reference triangle under affine maps with
a 3x2 derivative; vector fields are pushed with the flux-preserving scaling
A / jac, scalars by plain composition.  A mesh builds its affine maps once,
with its other arrays (``TraceMesh.from_arrays``), and the physical points
of a triangle rule are formed one facet block at a time
(``geometry.point_blocks``), never for a whole mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# Local edge k is opposite vertex k, directed along the counterclockwise
# boundary: (1->2), (2->0), (0->1).
REF_EDGES = ((1, 2), (2, 0), (0, 1))
REF_EDGE_NORMALS = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
REF_EDGE_NORMALS[0] /= np.sqrt(2.0)
REF_EDGE_LENGTHS = np.array([np.sqrt(2.0), 1.0, 1.0])

# Triangle-rule degrees: the assembly rule integrates the piecewise-polynomial
# mass integrands exactly for both spaces and carries the load; the error
# rule over-integrates the lifted exact solution.  Edge integrands are of
# degree at most 2, so both Gauss-Legendre rules are exact: ``MixedSpace``
# takes its dof functionals with 6 points, ``postprocess_neumann`` its
# boundary fluxes with ``EDGE_GAUSS_POINTS``.  They stay apart: in round-off,
# 4 points would move bdm1's basis coefficients by up to 2.7e-15 and study.csv.
ASSEMBLY_DEGREE = 4
ERROR_DEGREE = 6
EDGE_GAUSS_POINTS = 4


@lru_cache(maxsize=None)
def gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1] with n points (exact to degree 2n-1)."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the reference triangle, exact for polynomials of ``degree``.

    Collapsed tensor Gauss rule: x = u (1 - v), y = v with the extra (1 - v)
    Jacobian absorbed into the weights.  All weights positive, summing to the
    reference area 1/2.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    xu, wu = gauss_01((degree + 2) // 2)
    xv, wv = gauss_01((degree + 3) // 2)
    u, v = np.meshgrid(xu, xv, indexing="ij")
    pts = np.stack([(u * (1.0 - v)).ravel(), v.ravel()], axis=-1)
    wts = (np.outer(wu, wv) * (1.0 - v)).ravel()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def edge_points(edge: int, t: np.ndarray) -> np.ndarray:
    """Points at parameters ``t`` along reference edge ``edge``, from its first vertex to its second."""
    a, b = REF_EDGES[edge]
    return (1.0 - t)[:, None] * REF_VERTICES[a] + t[:, None] * REF_VERTICES[b]


# Generating sets of the H(div) elements, one table c (G, 3, 2) per space:
# generator g is the vector field c[g, 0] + c[g, 1] x + c[g, 2] y on the
# reference triangle, so its divergence is c[g, 1, 0] + c[g, 2, 1].
GENERATOR_TABLES = {
    # (1, 0), (0, 1), (x, y)
    "rt0": np.array(
        [[[1, 0], [0, 0], [0, 0]],
         [[0, 1], [0, 0], [0, 0]],
         [[0, 0], [1, 0], [0, 1]]], dtype=float
    ),
    # (1, 0), (x, 0), (y, 0), (0, 1), (0, x), (0, y)
    "bdm1": np.array(
        [[[1, 0], [0, 0], [0, 0]],
         [[0, 0], [1, 0], [0, 0]],
         [[0, 0], [0, 0], [1, 0]],
         [[0, 1], [0, 0], [0, 0]],
         [[0, 0], [0, 1], [0, 0]],
         [[0, 0], [0, 0], [0, 1]]], dtype=float
    ),
}


class MixedSpace:
    """The H(div) element of the mixed method, ``rt0`` or ``bdm1``.

    Scalars are facet constants and need no element of their own.  The
    basis is assembled by inverting the matrix of degree-of-freedom
    functionals applied to the space's generating set, so the moments of the
    basis are the identity by construction (checked in the test suite).
    """

    def __init__(self, name: str):
        self._table = GENERATOR_TABLES[name]                  # (G, 3, 2)
        self.n_dofs = len(self._table)
        self.edge_dofs = self.n_dofs // 3
        dof = np.empty((self.n_dofs, self.n_dofs))
        t, w = gauss_01(6)
        for e in range(3):
            pts = edge_points(e, t)
            gen = self._generators(pts)                       # (G, q, 2)
            flux = gen @ REF_EDGE_NORMALS[e]                  # (G, q)
            m0 = REF_EDGE_LENGTHS[e] * (flux @ w)
            if self.edge_dofs == 1:
                dof[e] = m0
            else:
                m1 = REF_EDGE_LENGTHS[e] * (flux @ (w * (2.0 * t - 1.0)))
                dof[2 * e] = m0
                dof[2 * e + 1] = m1
        self._coeff = np.linalg.inv(dof)                      # (G, K)

    def _generators(self, pts: np.ndarray) -> np.ndarray:
        """Generator values (G, Q, 2) at reference points (Q, 2)."""
        x, y = pts[:, 0, None], pts[:, 1, None]
        c = self._table[:, :, None, :]
        return c[:, 0] + c[:, 1] * x + c[:, 2] * y

    def basis(self, pts: np.ndarray) -> np.ndarray:
        """Basis values at reference points, shape (n_dofs, Q, 2)."""
        gen = self._generators(np.asarray(pts, dtype=float))
        return np.einsum("gqd,gk->kqd", gen, self._coeff)

    def divergence(self) -> np.ndarray:
        """Reference divergence of each basis function (constant), shape (n_dofs,)."""
        return self._coeff.T @ (self._table[:, 1, 0] + self._table[:, 2, 1])


@lru_cache(maxsize=None)
def mixed_space(name: str) -> MixedSpace:
    """The ``MixedSpace`` called ``name``, built once per process."""
    return MixedSpace(name)


@dataclass(frozen=True)
class AffineMap:
    """Affine maps from the reference triangle onto facets, batched.

    ``A`` is the 3x2 derivative, ``jac`` its (positive) area Jacobian
    sqrt(det(A^T A)); ``metric``/``metric_inv`` are A^T A and its inverse.
    All arrays carry a leading batch axis of length F (one map per facet).
    """

    origin: np.ndarray      # (F, 3)
    A: np.ndarray           # (F, 3, 2)
    jac: np.ndarray         # (F,)
    metric: np.ndarray      # (F, 2, 2)
    metric_inv: np.ndarray  # (F, 2, 2)

    @classmethod
    def from_triangles(cls, verts: np.ndarray) -> "AffineMap":
        verts = np.asarray(verts, dtype=float)
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        a = np.stack([e1, e2], axis=-1)
        metric = np.einsum("fia,fib->fab", a, a)
        # det(A^T A) cancels catastrophically on needle facets; the cross
        # product gives the same area Jacobian stably.
        jac = np.linalg.norm(np.cross(e1, e2), axis=-1)
        if not np.all(np.isfinite(jac)):
            raise ValueError("non-finite triangle area: a corner is not finite")
        if np.any(jac <= 0.0):
            raise ValueError("degenerate triangle: zero area")
        inv = np.empty_like(metric)
        inv[:, 0, 0] = metric[:, 1, 1]
        inv[:, 1, 1] = metric[:, 0, 0]
        inv[:, 0, 1] = -metric[:, 0, 1]
        inv[:, 1, 0] = -metric[:, 1, 0]
        inv /= (jac * jac)[:, None, None]
        # a copy, so the maps do not pin the (F, 3, 3) corner array
        return cls(origin=verts[:, 0].copy(), A=a, jac=jac, metric=metric, metric_inv=inv)

    def __len__(self) -> int:
        return self.origin.shape[0]

    def __getitem__(self, facets) -> "AffineMap":
        """The maps of the facets selected by ``facets`` (a slice gives views)."""
        return AffineMap(*(getattr(self, f.name)[facets] for f in fields(self)))

    def to_physical(self, ref_pts: np.ndarray) -> np.ndarray:
        """Map reference points (Q, 2) to physical points (F, Q, 3)."""
        x, y = np.asarray(ref_pts, dtype=float).T
        a = self.A[:, None]
        return self.origin[:, None, :] + (a[..., 0] * x[:, None] + a[..., 1] * y[:, None])

    def push_vector(self, ref_vals: np.ndarray) -> np.ndarray:
        """Flux-preserving push of reference vectors (F, Q, 2) -> (F, Q, 3)."""
        return np.einsum("fid,fqd->fqi", self.A, ref_vals) / self.jac[:, None, None]


@dataclass(frozen=True)
class EdgeDofs:
    """Global numbering and per-facet signs of the vector edge moments.

    Global moments are numbered edge-major, the constant moment of an edge
    before its odd one, and oriented by the edge direction (increasing vertex
    ids).  A facet traversing an edge against that direction sees its
    constant moment flipped, while the odd moment keeps its sign because the
    weight 2*t - 1 and the conormal flip together.  The continuity constraint
    of the hybrid system carries the dual pattern: outward fluxes of the two
    facets cancel, so the sign sits on the odd moment instead.
    """

    ids: np.ndarray         # (F, nq) global moment of each local dof
    conforming: np.ndarray  # (F, nq) sign taking global to facet-local coefficients
    coupling: np.ndarray    # (F, nq) sign of each local dof in the continuity constraint
    plus: np.ndarray        # (F, nq) True where the facet runs along the edge direction
    size: int               # number of global moments


def edge_dofs(mesh, space: MixedSpace) -> EdgeDofs:
    """Number and sign the edge moments of ``space`` on every facet of ``mesh``."""
    m = space.edge_dofs
    moment = np.tile(np.arange(m), 3)       # 0: constant weight, 1: odd weight
    sign = np.repeat(mesh.face_edge_signs, m, axis=1)
    odd = moment == 1
    return EdgeDofs(
        ids=m * np.repeat(mesh.face_edges, m, axis=1) + moment,
        conforming=np.where(odd, 1.0, sign),
        coupling=np.where(odd, sign, 1.0),
        plus=sign > 0,
        size=m * mesh.n_edges,
    )


def local_vector_coefficients(dofs: EdgeDofs, global_coeffs: np.ndarray) -> np.ndarray:
    """Scatter globally oriented edge moments to per-facet local ones."""
    return dofs.conforming * np.asarray(global_coeffs, dtype=float)[dofs.ids]


def global_vector_coefficients(dofs: EdgeDofs, p_local: np.ndarray) -> np.ndarray:
    """Read globally oriented edge moments off the facets along each edge."""
    out = np.empty(dofs.size)
    out[dofs.ids[dofs.plus]] = p_local[dofs.plus]
    return out


def eval_vector(maps: AffineMap, space: MixedSpace, local_coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
    """Evaluate a broken H(div) field at reference points, giving (F, Q, 3)."""
    bas = space.basis(ref_pts)
    return maps.push_vector(np.einsum("kqd,fk->fqd", bas, local_coeffs))


def eval_p1(nodal: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
    """Evaluate facet-wise linear scalars given reference-vertex values (F, 3) -> (F, Q)."""
    x, y = np.asarray(ref_pts, dtype=float).T
    return np.einsum("fv,vq->fq", np.asarray(nodal, dtype=float), np.stack([1.0 - x - y, x, y]))
