"""Assembly and solution of the mixed system on a trace mesh.

The discrete load is data: ``build_rhs`` samples the weighted lift of the
source once on the assembly rule, and the local blocks and the flux-driven
postprocessing integrate those mean-free samples.

The broken mixed saddle problem is solved by hybridization: per facet the
vector mass block A, the divergence row b and the load F form the symmetric
indefinite block K = [[A, -b^T], [-b, 0]].  Coupling to the per-edge
multiplier moments is a signed identity scatter whose numbering and signs
come from ``edge_dofs`` in ``elements`` (constant moments couple with +1 on both
sides of an edge, odd linear moments with the edge-direction sign), so
static condensation reduces to gathering sign-adjusted blocks of K^{-1}.
The condensed matrix is symmetric positive semidefinite with the constant
multiplier in its kernel; a single dense bordering row enforces a zero
facet-mean of the scalar and makes the system nonsingular.

A direct solve of the full conforming indefinite system is provided as an
independent cross-check; hybridization and the direct solve are
algebraically equivalent.  The cross-check writes the saddle-point matrix
from the local blocks in one sparse conversion, factors a quasi-definite
shift of it with a symmetric minimum-degree ordering and no pivoting,
refines against the exact matrix (Vanderbei, SIAM J. Optim. 1995; Gill,
Saunders & Shinnerl, SIAM J. Matrix Anal. Appl. 1996), and fixes the scalar
mean after the solve instead of through a dense bordering row.  Both solves
scatter their residuals from the local blocks: no global matrix is built to be multiplied once.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .elements import (
    ASSEMBLY_DEGREE,
    EdgeDofs,
    MixedSpace,
    edge_dofs,
    global_vector_coefficients,
    local_vector_coefficients,
    triangle_rule,
)
from .geometry import SurfaceField, area_ratio, frame_blocks
from .trace_mesh import TraceMesh

# Relative size of the shift that makes the saddle-point zero block negative
# definite, in units of the largest diagonal entry of the vector mass matrix.
SADDLE_REGULARIZATION = 1e-12

# SuperLU panel width of the saddle-point factor.  Best of 20 (n = 24) and of 7 (n = 48) on a
# 2-vCPU x86_64 VM, shifted lattice, rt0 / bdm1: the default took 9.1 / 24.1 and 50.4 / 165 ms, 4 took
# 7.2 / 21.4 and 40.5 / 155 ms, 2-8 about as little, 20 as much as the default; nnz(L+U) never changed.
SADDLE_PANEL_SIZE = 4

# Relative residual above which a solve warns; it matches the conditioning
# slack of the hybrid / direct equivalence (acceptance criterion 6).
RESIDUAL_WARNING = 1e-8

# glibc's malloc_trim, resolved once; None where the C library has none.
malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if malloc_trim is not None:
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int


def release_free_memory() -> None:
    """Return the free pages of every heap arena to the operating system, where the C library can.

    glibc keeps freed chunks resident: its trim threshold rises after large
    frees, and a thread's own arena is trimmed only from its top.  Called
    where a level's peak is made, so that the peak holds its live arrays and
    its factor, not the freed temporaries of earlier stages and levels.
    """
    if malloc_trim is not None:
        malloc_trim(0)


def _refined_solve(matrix: sp.csc_matrix, factored: sp.csc_matrix, rhs: np.ndarray, what: str,
                   **splu_options) -> np.ndarray:
    """Factor ``factored`` and solve ``matrix`` x = ``rhs`` with two steps of iterative refinement.

    Anisotropic cut facets make the assembled systems poorly conditioned;
    refinement recovers small residuals at the cost of extra triangular
    solves on the same factorization.  Residuals are taken against
    ``matrix``, so a factor of a nearby matrix converges to the solution of
    ``matrix`` itself.  A failed factorization and a non-finite solution
    raise ``RuntimeError`` naming the ``what`` system.  Freed heap pages are
    returned first, so that the factor, a level's largest allocation, does
    not stack on top of them.
    """
    release_free_memory()
    try:
        lu = splu(factored, **splu_options)
    except RuntimeError as exc:
        raise RuntimeError(f"factorization of the {what} system failed ({matrix.shape[0]} unknowns)") from exc
    x = lu.solve(rhs)
    for _ in range(2):
        x += lu.solve(rhs - matrix @ x)
    if not np.all(np.isfinite(x)):
        raise RuntimeError(f"{what} solve produced non-finite values")
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


def build_rhs(f, mesh: TraceMesh, surface: SurfaceField) -> RhsField:
    """Sample the mean-free discrete load of a compatible surface source."""
    pts, wts = triangle_rule(ASSEMBLY_DEGREE)
    cell = wts[None, :] * mesh.maps.jac[:, None]
    weighted = np.empty(cell.shape)
    for facets, frames in frame_blocks(surface, mesh, pts):
        weighted[facets] = area_ratio(frames) * f(frames.closest)
    total_area = float(cell.sum())
    mean_correction = float((cell * weighted).sum() / total_area)
    norm_f = float(np.sqrt((cell * weighted**2).sum()))
    if abs(mean_correction) > mesh.h**3 * max(norm_f, 1e-300):
        warnings.warn(
            "load mean correction exceeds h^3 * |f|; source may be incompatible "
            "or the assembly rule too coarse for it",
            stacklevel=2,
        )
    return RhsField(values=weighted - mean_correction, mean_correction=mean_correction)


@dataclass(frozen=True)
class LocalBlocks:
    """Per-facet blocks of the broken mixed system."""

    mass: np.ndarray   # (F, nq, nq) vector mass, symmetric positive definite
    div: np.ndarray    # (nq,) divergence tested against the constant scalar, on every facet
    load: np.ndarray   # (F,) source tested against the constant scalar


def assemble_local_blocks(mesh: TraceMesh, space: MixedSpace, rhs: RhsField) -> LocalBlocks:
    """Quadrature assembly of mass, divergence and load blocks on every facet.

    The assembly rule integrates the piecewise-polynomial mass integrands
    exactly for both supported spaces; the load integrates the samples of
    ``rhs`` on the same rule.
    """
    maps = mesh.maps
    pts, wts = triangle_rule(ASSEMBLY_DEGREE)
    bas = space.basis(pts)
    mass = np.einsum("q,kqa,fab,lqb->fkl", wts, bas, maps.metric, bas, optimize=True)
    mass /= maps.jac[:, None, None]
    load = np.einsum("q,fq->f", wts, rhs.values) * maps.jac
    # Divergence against the constant test function: the Jacobians cancel,
    # so the row is the same reference constant on every facet.
    return LocalBlocks(mass=mass, div=0.5 * space.divergence(), load=load)


@dataclass(frozen=True)
class HybridSystem:
    """Condensed edge-multiplier system plus the data to recover the fields."""

    matrix: sp.csc_matrix          # condensed multiplier matrix (PSD), bordered by the mean row
    rhs: np.ndarray
    kinv: np.ndarray               # (F, nq+1, nq+1) inverses of the local saddle blocks
    dofs: EdgeDofs
    blocks: LocalBlocks

    @property
    def n_multipliers(self) -> int:
        return self.dofs.size


def _saddle_blocks(blocks: LocalBlocks, corner: float) -> np.ndarray:
    """Per-facet blocks [[A, -b^T], [-b, corner]], (F, nq+1, nq+1)."""
    nf, nq = blocks.mass.shape[:2]
    k = np.empty((nf, nq + 1, nq + 1))
    k[:, :nq, :nq] = blocks.mass
    k[:, :nq, nq] = k[:, nq, :nq] = -blocks.div
    k[:, nq, nq] = corner
    return k


def _scatter_pattern(ids: np.ndarray, extra: int = 0) -> np.ndarray:
    """Rows and columns (2, F m^2 + extra) of per-facet blocks on the dofs ``ids`` (F, m), then free slots.

    C ints, SuperLU's index type, written in place: COO takes them uncopied, which keeps a level's peak down.
    """
    f, m = ids.shape
    pattern = np.empty((2, f * m * m + extra), dtype=np.intc)
    pattern[0, : f * m * m].reshape(f, m, m)[...] = ids[:, :, None]
    pattern[1, : f * m * m].reshape(f, m, m)[...] = ids[:, None, :]
    return pattern


def condense_and_assemble(mesh: TraceMesh, space: MixedSpace, rhs: RhsField) -> HybridSystem:
    """Eliminate facet unknowns and assemble the global multiplier system."""
    blocks = assemble_local_blocks(mesh, space, rhs)
    nf, nq = len(mesh.triangles), space.n_dofs
    # Needle facets give the mass block a condition number near the squared
    # aspect ratio; symmetric diagonal equilibration keeps the inverse
    # accurate there.
    scale = np.ones((nf, nq + 1))
    scale[:, :nq] = 1.0 / np.sqrt(np.einsum("fkk->fk", blocks.mass))
    k_eq = scale[:, :, None] * _saddle_blocks(blocks, 0.0) * scale[:, None, :]
    try:
        kinv = np.linalg.inv(k_eq)
    except np.linalg.LinAlgError as exc:  # cannot happen for SPD mass blocks
        raise RuntimeError("singular local elimination block") from exc
    kinv = scale[:, :, None] * kinv * scale[:, None, :]

    dofs = edge_dofs(mesh, space)
    ids, sign, n_mult = dofs.ids, dofs.coupling, dofs.size
    s_blocks = sign[:, :, None] * sign[:, None, :] * kinv[:, :nq, :nq]
    g = np.bincount(ids.ravel(), (-sign * blocks.load[:, None] * kinv[:, :nq, nq]).ravel(), minlength=n_mult)
    areas = mesh.areas()
    w = np.bincount(ids.ravel(), (-sign * areas[:, None] * kinv[:, :nq, nq]).ravel(), minlength=n_mult)
    w_shift = float((-blocks.load * areas * kinv[:, nq, nq]).sum())

    # One conversion: a duplicate sums two facet terms, in either order the
    # same bits, and exact zeros of w stay out, as a dense border's do.
    border = np.flatnonzero(w)
    last = np.full(len(border), n_mult)
    pattern = _scatter_pattern(ids, 2 * len(border))
    pattern[:, s_blocks.size :] = np.r_[border, last], np.r_[last, border]
    entries = np.concatenate([s_blocks.ravel(), w[border], w[border]])
    bordered = sp.coo_matrix((entries, tuple(pattern)), shape=(n_mult + 1, n_mult + 1)).tocsc()
    return HybridSystem(matrix=bordered, rhs=np.concatenate([g, [-w_shift]]), kinv=kinv, dofs=dofs, blocks=blocks)


@dataclass(frozen=True)
class SolutionFields:
    """Recovered discrete fields, broken vector coefficients and facet scalars, with both residuals."""

    p_local: np.ndarray      # (F, nq)
    u: np.ndarray            # (F,)
    residual_flux: float     # relative defect of the flux equation
    residual_balance: float  # relative defect of the balance equation


def _checked_fields(p_local: np.ndarray, u: np.ndarray, dofs: EdgeDofs, blocks: LocalBlocks,
                    what: str) -> SolutionFields:
    """The fields with both relative residuals; warns when either exceeds ``RESIDUAL_WARNING``.

    A p and B^T u are scattered from the local blocks, as the assembled conforming matrices would sum them.
    """
    ids, sign = dofs.ids.ravel(), dofs.conforming
    p_conf = local_vector_coefficients(dofs, global_vector_coefficients(dofs, p_local))
    a_p = np.bincount(ids, (sign * np.einsum("fkl,fl->fk", blocks.mass, p_conf)).ravel(), minlength=dofs.size)
    bt_u = np.bincount(ids, (sign * blocks.div * u[:, None]).ravel(), minlength=dofs.size)
    r1 = a_p - bt_u
    scale1 = np.linalg.norm(a_p) + np.linalg.norm(bt_u)
    r2 = np.einsum("k,fk->f", blocks.div, p_local) - blocks.load
    scale2 = np.linalg.norm(blocks.load)
    res1 = float(np.linalg.norm(r1) / max(scale1, 1e-300))
    res2 = float(np.linalg.norm(r2) / max(scale2, 1e-300)) if scale2 > 0 else float(np.linalg.norm(r2))
    # degenerate cut facets push the flux-equation residual above the
    # exact-arithmetic level
    worst = max(res1, res2)
    if worst > RESIDUAL_WARNING:
        warnings.warn(f"discrete equations satisfied only to {worst:.3e} (ill-conditioned {what})", stacklevel=3)
    return SolutionFields(p_local=p_local, u=u, residual_flux=res1, residual_balance=res2)


def solve_hybrid(system: HybridSystem) -> SolutionFields:
    """Direct solve of the bordered multiplier system and facet-wise recovery.

    The fields are returned with both of their residuals; a warning is
    raised when either exceeds 1e-8.
    """
    # COLAMD with partial pivoting, the SuperLU default: a symmetric ordering
    # would cut the fill, but it moves the solution at round-off, and
    # study.csv resolves that.
    lam = _refined_solve(system.matrix, system.matrix, system.rhs, "multiplier")[:-1]
    nf, nq = system.dofs.ids.shape
    rhs_loc = np.empty((nf, nq + 1))
    rhs_loc[:, :nq] = -system.dofs.coupling * lam[system.dofs.ids]
    rhs_loc[:, nq] = -system.blocks.load
    x = np.einsum("fij,fj->fi", system.kinv, rhs_loc)
    return _checked_fields(x[:, :nq], x[:, nq], system.dofs, system.blocks, "multiplier system")


def solve_saddle_point(mesh: TraceMesh, space: MixedSpace, rhs: RhsField) -> SolutionFields:
    """Direct solve of the full conforming indefinite system.

    Cross-check for the hybrid path: same local blocks, no condensation.
    On a closed surface every edge flux enters its two facets with opposite
    signs, so B^T 1 = 0 and the constant scalar (0, 1) spans the kernel of
    K = [[A, -B^T], [-B, 0]].  The load is mean free, so K x = (0, -load) is
    consistent, and the multiplier of a bordering mean constraint would be
    sum(load) / sum(areas) = 0: subtracting the area-weighted mean of the
    scalar after the solve gives the bordered solution.  The bordering row
    would couple to every facet, and minimum degree, unlike COLAMD, does not
    set dense rows aside: that row alone made the factor 1.7-2.8 times slower.

    K - delta diag(0, I), delta = ``SADDLE_REGULARIZATION`` * max diag(A),
    is quasi-definite, so every symmetric ordering has nonzero pivots: it is
    factored with a symmetric minimum-degree ordering, no pivoting and
    ``SADDLE_PANEL_SIZE``-column panels.  Refinement takes its residuals
    against K, so the error contracts by about delta * |K^{-1}| per step;
    the shifted matrix maps (0, 1) to a multiple of itself, so no step adds
    a kernel component.  The fields are returned with both of their
    residuals; a warning is raised when either exceeds 1e-8.  The shifted
    matrix is scattered from the local blocks in one COO to CSC conversion;
    K shares its pattern, with explicit zeros on the scalar diagonal.
    """
    blocks, dofs = assemble_local_blocks(mesh, space, rhs), edge_dofs(mesh, space)
    n_p, nf = dofs.size, mesh.n_triangles
    size = n_p + nf
    # each edge diagonal of A sums two facet terms, so delta has the assembled bits
    delta = SADDLE_REGULARIZATION * np.bincount(dofs.ids.ravel(), np.einsum("fkk->fk", blocks.mass).ravel()).max()
    ids, sign = np.column_stack([dofs.ids, n_p + np.arange(nf)]), np.column_stack([dofs.conforming, np.ones(nf)])
    k = sign[:, :, None] * sign[:, None, :] * _saddle_blocks(blocks, -delta)
    shifted = sp.coo_matrix((k.ravel(), tuple(_scatter_pattern(ids))), shape=(size, size)).tocsc()
    # sorted rows put the diagonal last in each scalar column
    system = sp.csc_matrix((shifted.data.copy(), shifted.indices, shifted.indptr), shape=(size, size))
    system.data[shifted.indptr[n_p + 1 :] - 1] = 0.0
    sol = _refined_solve(system, shifted, np.concatenate([np.zeros(n_p), -blocks.load]), "saddle-point",
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=SADDLE_PANEL_SIZE,
                         options={"SymmetricMode": True})
    areas = mesh.areas()
    u = sol[n_p:] - (areas * sol[n_p:]).sum() / areas.sum()
    return _checked_fields(local_vector_coefficients(dofs, sol[:n_p]), u, dofs, blocks, "saddle-point system")
