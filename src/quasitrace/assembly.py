"""Assembly and solution of the mixed system on a trace mesh.

The discrete load is data: ``build_rhs`` samples the weighted lift of the
source once on the assembly rule, and the local blocks and the flux-driven
postprocessing integrate those mean-free samples.

The broken mixed saddle problem is solved by hybridization: per facet the
vector mass block A, the divergence row b and the load F form the symmetric
indefinite block K = [[A, -b^T], [-b, 0]].  Coupling to the per-edge
multiplier moments is a signed identity scatter (constant moments couple
with +1 on both sides of an edge, odd linear moments with the edge-direction
sign), so static condensation reduces to gathering sign-adjusted blocks of
K^{-1}.  The condensed matrix is symmetric positive semidefinite with the
constant multiplier in its kernel; a single dense bordering row enforces a
zero facet-mean of the scalar and makes the system nonsingular.

A direct solve of the full conforming indefinite system (with a scalar
Lagrange multiplier for the mean constraint) is provided as an independent
cross-check; hybridization and the direct solve are algebraically
equivalent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .elements import ASSEMBLY_DEGREE, AffineMap, MixedSpace, facet_quadrature, local_vector_coefficients
from .geometry import SurfaceField, area_ratio, frame_at
from .trace_mesh import TraceMesh

__all__ = [
    "RhsField",
    "build_rhs",
    "LocalBlocks",
    "assemble_local_blocks",
    "HybridSystem",
    "condense_and_assemble",
    "SolutionFields",
    "solve_hybrid",
    "solve_saddle_point",
    "conforming_matrices",
    "global_vector_coefficients",
    "conformity_defect",
    "effective_condition_number",
]

def _direct_solve(matrix: sp.csc_matrix, rhs: np.ndarray, refine: int = 2) -> np.ndarray:
    """Sparse LU solve with a few steps of iterative refinement.

    Anisotropic cut facets make the assembled systems poorly conditioned;
    refinement recovers small residuals at the cost of extra triangular
    solves on the same factorization.
    """
    lu = splu(matrix)
    x = lu.solve(rhs)
    for _ in range(refine):
        x += lu.solve(rhs - matrix @ x)
    return x


@dataclass(frozen=True)
class RhsField:
    """Discrete load: area-ratio-weighted lift of the source, minus its mean.

    The weighted lift integrates to the (zero) surface integral of the
    source, so the subtracted facet mean is pure quadrature error; it is
    removed to make the discrete load exactly mean free.  A mean larger than
    h^3 times the source norm signals an under-resolved quadrature or an
    incompatible source.
    """

    values: np.ndarray      # (F, Q) mean-free load at the assembly-rule facet points
    mean_correction: float  # facet mean subtracted from the weighted lift
    norm: float             # facet L2 norm of the weighted lift


def build_rhs(f, mesh: TraceMesh, surface: SurfaceField) -> RhsField:
    """Sample the mean-free discrete load of a compatible surface source."""
    quad = facet_quadrature(mesh, ASSEMBLY_DEGREE)
    frames = frame_at(surface, quad.points, quad.normals)
    weighted = area_ratio(frames) * f(frames.closest)
    cell = quad.cell
    total_area = float(cell.sum())
    mean_correction = float((cell * weighted).sum() / total_area)
    norm_f = float(np.sqrt((cell * weighted**2).sum()))
    if abs(mean_correction) > mesh.h**3 * max(norm_f, 1e-300):
        warnings.warn(
            "load mean correction exceeds h^3 * |f|; source may be incompatible "
            "or the assembly rule too coarse for it",
            stacklevel=2,
        )
    return RhsField(values=weighted - mean_correction, mean_correction=mean_correction, norm=norm_f)


@dataclass(frozen=True)
class LocalBlocks:
    """Per-facet blocks of the broken mixed system."""

    mass: np.ndarray   # (F, nq, nq) vector mass, symmetric positive definite
    div: np.ndarray    # (F, nq) divergence tested against the constant scalar
    load: np.ndarray   # (F,) source tested against the constant scalar
    maps: AffineMap


def assemble_local_blocks(mesh: TraceMesh, space: MixedSpace, rhs: RhsField | None = None) -> LocalBlocks:
    """Quadrature assembly of mass, divergence and load blocks on every facet.

    The assembly rule integrates the piecewise-polynomial mass integrands
    exactly for both supported spaces; the load integrates the samples of
    ``rhs`` on the same rule, and no ``rhs`` means a zero load.
    """
    quad = facet_quadrature(mesh, ASSEMBLY_DEGREE)
    maps, wts = quad.maps, quad.weights
    bas = space.vector.basis(quad.ref_points)
    mass = np.einsum("q,kqa,fab,lqb->fkl", wts, bas, maps.metric, bas, optimize=True)
    mass /= maps.jac[:, None, None]
    # Divergence against the constant test function: the Jacobians cancel,
    # so the row is the same reference constant on every facet.
    div_row = np.broadcast_to(0.5 * space.vector.divergence(), (len(maps), space.vector.n_dofs)).copy()
    if rhs is None:
        load = np.zeros(len(maps))
    else:
        load = np.einsum("q,fq->f", wts, rhs.values) * maps.jac
    return LocalBlocks(mass=mass, div=div_row, load=load, maps=maps)


def _multiplier_layout(mesh: TraceMesh, space: MixedSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-facet multiplier dof ids, coupling signs, and conforming signs.

    Coupling signs enter the continuity constraint (outward fluxes of the two
    facets cancel); conforming signs embed a globally oriented coefficient
    vector into facet-local coefficients.  The two patterns are dual: the
    sign sits on the constant moment in one and on the odd moment in the
    other.
    """
    ge = mesh.face_edges
    sg = mesh.face_edge_signs
    if space.vector.edge_dofs == 1:
        return ge.copy(), np.ones_like(sg), sg.copy()
    nf = len(mesh.triangles)
    gdof = np.empty((nf, 6), dtype=int)
    gdof[:, 0::2] = 2 * ge
    gdof[:, 1::2] = 2 * ge + 1
    csign = np.ones((nf, 6))
    msign = np.ones((nf, 6))
    csign[:, 0::2] = sg
    msign[:, 1::2] = sg
    return gdof, msign, csign


@dataclass
class HybridSystem:
    """Condensed edge-multiplier system plus the data to recover the fields."""

    matrix: sp.csc_matrix          # bordered symmetric system
    unbordered: sp.csr_matrix      # condensed multiplier matrix (PSD)
    rhs: np.ndarray
    kinv: np.ndarray               # (F, nq+1, nq+1) inverses of the local saddle blocks
    gdof: np.ndarray
    msign: np.ndarray
    areas: np.ndarray
    blocks: LocalBlocks
    mesh: TraceMesh
    space: MixedSpace
    n_multipliers: int


def condense_and_assemble(mesh: TraceMesh, space: MixedSpace, rhs: RhsField | None = None) -> HybridSystem:
    """Eliminate facet unknowns and assemble the global multiplier system."""
    blocks = assemble_local_blocks(mesh, space, rhs=rhs)
    nq = space.vector.n_dofs
    nf = len(mesh.triangles)
    k = np.zeros((nf, nq + 1, nq + 1))
    k[:, :nq, :nq] = blocks.mass
    k[:, :nq, nq] = -blocks.div
    k[:, nq, :nq] = -blocks.div
    # Needle facets give the mass block a condition number near the squared
    # aspect ratio; symmetric diagonal equilibration keeps the inverse
    # accurate there.
    scale = np.ones((nf, nq + 1))
    scale[:, :nq] = 1.0 / np.sqrt(np.einsum("fkk->fk", blocks.mass))
    k_eq = scale[:, :, None] * k * scale[:, None, :]
    try:
        kinv = np.linalg.inv(k_eq)
    except np.linalg.LinAlgError as exc:  # cannot happen for SPD mass blocks
        raise RuntimeError("singular local elimination block") from exc
    kinv = scale[:, :, None] * kinv * scale[:, None, :]

    gdof, msign, _ = _multiplier_layout(mesh, space)
    n_mult = space.multiplier_moments * mesh.n_edges

    s_blocks = msign[:, :, None] * msign[:, None, :] * kinv[:, :nq, :nq]
    rows = np.broadcast_to(gdof[:, :, None], s_blocks.shape)
    cols = np.broadcast_to(gdof[:, None, :], s_blocks.shape)
    s_mat = sp.coo_matrix(
        (s_blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n_mult, n_mult)
    ).tocsr()

    g_loc = -msign * blocks.load[:, None] * kinv[:, :nq, nq]
    g = np.zeros(n_mult)
    np.add.at(g, gdof.ravel(), g_loc.ravel())

    areas = 0.5 * blocks.maps.jac
    w_loc = -msign * areas[:, None] * kinv[:, :nq, nq]
    w = np.zeros(n_mult)
    np.add.at(w, gdof.ravel(), w_loc.ravel())
    w_shift = float((-blocks.load * areas * kinv[:, nq, nq]).sum())

    bordered = sp.bmat(
        [[s_mat, sp.csc_matrix(w[:, None])], [sp.csc_matrix(w[None, :]), None]], format="csc"
    )
    full_rhs = np.concatenate([g, [-w_shift]])
    return HybridSystem(
        matrix=bordered,
        unbordered=s_mat,
        rhs=full_rhs,
        kinv=kinv,
        gdof=gdof,
        msign=msign,
        areas=areas,
        blocks=blocks,
        mesh=mesh,
        space=space,
        n_multipliers=n_mult,
    )


@dataclass
class SolutionFields:
    """Recovered discrete fields: broken vector coefficients and facet scalars."""

    p_local: np.ndarray            # (F, nq)
    u: np.ndarray                  # (F,)
    multipliers: np.ndarray | None
    space: str
    mean_u: float
    residual_flux: float = np.nan      # relative defect of the flux equation
    residual_balance: float = np.nan   # relative defect of the balance equation


def _residuals(mesh: TraceMesh, space: MixedSpace, blocks: LocalBlocks, p_local: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    a_mat, b_mat = conforming_matrices(mesh, space, blocks)
    p_glob = global_vector_coefficients(mesh, space, p_local)
    r1 = a_mat @ p_glob - b_mat.T @ u
    scale1 = np.linalg.norm(a_mat @ p_glob) + np.linalg.norm(b_mat.T @ u)
    r2 = np.einsum("fk,fk->f", blocks.div, p_local) - blocks.load
    scale2 = np.linalg.norm(blocks.load)
    res1 = float(np.linalg.norm(r1) / max(scale1, 1e-300))
    res2 = float(np.linalg.norm(r2) / max(scale2, 1e-300)) if scale2 > 0 else float(np.linalg.norm(r2))
    return res1, res2


def solve_hybrid(system: HybridSystem, check_residuals: bool = True) -> SolutionFields:
    """Direct solve of the bordered multiplier system and facet-wise recovery."""
    try:
        sol = _direct_solve(system.matrix, system.rhs)
    except RuntimeError as exc:
        cond = "n/a"
        if system.n_multipliers <= 2000:
            cond = f"{effective_condition_number(system.unbordered):.3e}"
        raise RuntimeError(
            f"factorization of the multiplier system failed "
            f"({system.n_multipliers} unknowns, effective condition {cond})"
        ) from exc
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("multiplier solve produced non-finite values")
    lam = sol[:-1]
    nq = system.space.vector.n_dofs
    rhs_loc = np.empty((len(system.mesh.triangles), nq + 1))
    rhs_loc[:, :nq] = -system.msign * lam[system.gdof]
    rhs_loc[:, nq] = -system.blocks.load
    x = np.einsum("fij,fj->fi", system.kinv, rhs_loc)
    p_local = x[:, :nq]
    u = x[:, nq]
    fields = SolutionFields(
        p_local=p_local,
        u=u,
        multipliers=lam,
        space=system.space.name,
        mean_u=float((system.areas * u).sum()),
    )
    if check_residuals:
        res1, res2 = _residuals(system.mesh, system.space, system.blocks, p_local, u)
        fields.residual_flux = res1
        fields.residual_balance = res2
        # degenerate cut facets push the flux-equation residual above the
        # exact-arithmetic level; 1e-8 matches the conditioning slack of the
        # hybrid / direct equivalence
        if max(res1, res2) > 1e-8:
            warnings.warn(
                f"discrete equations satisfied only to {max(res1, res2):.3e} "
                "(ill-conditioned multiplier system)",
                stacklevel=2,
            )
    return fields


def conforming_matrices(mesh: TraceMesh, space: MixedSpace, blocks: LocalBlocks) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Assemble the conforming vector mass and divergence matrices from local blocks.

    Global vector dofs are edge moments ordered edge-major; rows of the
    divergence matrix correspond to facets (constant scalars).
    """
    gdof, _, csign = _multiplier_layout(mesh, space)
    n_p = space.multiplier_moments * mesh.n_edges
    nf = len(mesh.triangles)

    a_blocks = csign[:, :, None] * csign[:, None, :] * blocks.mass
    rows = np.broadcast_to(gdof[:, :, None], a_blocks.shape)
    cols = np.broadcast_to(gdof[:, None, :], a_blocks.shape)
    a_mat = sp.coo_matrix((a_blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n_p, n_p)).tocsr()

    b_data = csign * blocks.div
    b_rows = np.broadcast_to(np.arange(nf)[:, None], gdof.shape)
    b_mat = sp.coo_matrix((b_data.ravel(), (b_rows.ravel(), gdof.ravel())), shape=(nf, n_p)).tocsr()
    return a_mat, b_mat


def global_vector_coefficients(mesh: TraceMesh, space: MixedSpace, p_local: np.ndarray) -> np.ndarray:
    """Read globally oriented edge coefficients off the edge-agreeing facets."""
    plus_face = mesh.edge_faces[:, 0]
    plus_local = mesh.edge_local[:, 0]
    if space.vector.edge_dofs == 1:
        return p_local[plus_face, plus_local]
    out = np.empty(2 * mesh.n_edges)
    out[0::2] = p_local[plus_face, 2 * plus_local]
    out[1::2] = p_local[plus_face, 2 * plus_local + 1]
    return out


def conformity_defect(mesh: TraceMesh, space: MixedSpace, p_local: np.ndarray) -> float:
    """Largest disagreement of shared edge moments read from the two sides."""
    plus_face, minus_face = mesh.edge_faces[:, 0], mesh.edge_faces[:, 1]
    plus_local, minus_local = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
    if space.vector.edge_dofs == 1:
        gap = p_local[plus_face, plus_local] + p_local[minus_face, minus_local]
        return float(np.abs(gap).max())
    gap0 = p_local[plus_face, 2 * plus_local] + p_local[minus_face, 2 * minus_local]
    gap1 = p_local[plus_face, 2 * plus_local + 1] - p_local[minus_face, 2 * minus_local + 1]
    return float(max(np.abs(gap0).max(), np.abs(gap1).max()))


def solve_saddle_point(mesh: TraceMesh, space: MixedSpace, rhs: RhsField | None = None) -> SolutionFields:
    """Direct solve of the full conforming indefinite system.

    Cross-check for the hybrid path: same local blocks, no condensation, the
    facet-mean constraint enforced through one scalar Lagrange multiplier.
    Intended for moderate problem sizes.
    """
    blocks = assemble_local_blocks(mesh, space, rhs=rhs)
    a_mat, b_mat = conforming_matrices(mesh, space, blocks)
    nf = len(mesh.triangles)
    areas = 0.5 * blocks.maps.jac
    area_col = sp.csc_matrix(areas[:, None])
    system = sp.bmat(
        [
            [a_mat, -b_mat.T, None],
            [-b_mat, None, -area_col],
            [None, -area_col.T, None],
        ],
        format="csc",
    )
    full_rhs = np.concatenate([np.zeros(a_mat.shape[0]), -blocks.load, [0.0]])
    sol = _direct_solve(system, full_rhs)
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("saddle-point solve produced non-finite values")
    p_glob = sol[: a_mat.shape[0]]
    u = sol[a_mat.shape[0] : a_mat.shape[0] + nf]
    p_local = local_vector_coefficients(mesh, space, p_glob)
    fields = SolutionFields(
        p_local=p_local,
        u=u,
        multipliers=None,
        space=space.name,
        mean_u=float((areas * u).sum()),
    )
    res1, res2 = _residuals(mesh, space, blocks, p_local, u)
    fields.residual_flux = res1
    fields.residual_balance = res2
    return fields


def effective_condition_number(matrix, kernel_dim: int = 1, max_size: int = 4000) -> float:
    """Ratio of the largest eigenvalue to the smallest one above the kernel.

    Dense eigensolve; refuse on large systems.  Reported for diagnostics
    only, never asserted: node placement can make it arbitrarily poor.
    """
    n = matrix.shape[0]
    if n > max_size:
        raise ValueError(f"refusing dense eigensolve for n = {n} > {max_size}")
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    eigs = np.linalg.eigvalsh(dense)
    return float(eigs[-1] / eigs[kernel_dim])
