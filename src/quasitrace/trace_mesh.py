"""Background tetrahedral meshes and level-set facet extraction.

The background box is split into cubes and every cube into the six path
tetrahedra along its main diagonal; all cubes use the same diagonal, so the
decomposition is conforming.  The zero set of the piecewise linear
interpolant of a level function cuts each tetrahedron in a triangle or a
planar quadrilateral, read off a marching-tetrahedra case table indexed by
the number of negative corners.  Quadrilaterals are bisected along the
diagonal that minimizes the larger maximum interior angle, and full edge
connectivity is wired up.  Every step is a pass over whole arrays.

Facets are oriented by construction: each normal points to the psi > 0 side
of its parent tetrahedron, so a level function that is positive outside (a
signed distance) gives outward normals without any search over the mesh.
``TraceMesh.from_arrays`` checks that a hand-built soup is closed, connected
and consistently oriented, but does not repair it.

Cut vertices are deduplicated by the background edge that carries them (not
by floating-point position), so shared facets are exactly conforming and
repeated runs are bit-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceField, area_ratio, consistency_matrix, frame_at

__all__ = [
    "BulkMesh",
    "build_bulk_mesh",
    "RawTraceSurface",
    "extract_trace_surface",
    "split_quads",
    "bisect_quads",
    "TraceMesh",
    "MeshStats",
    "mesh_stats",
    "write_off",
    "read_vertex_values",
]

# Vertex values closer to zero than this (relative to the bulk mesh size)
# are nudged positive so every tetrahedron has a strict sign pattern and no
# extracted face degenerates to zero area.  The shift bounds the aspect
# ratio of the needle facets created when the surface passes through a
# bulk vertex by roughly its reciprocal; 1e-4 keeps their mass matrices
# invertible in double precision while staying orders of magnitude below
# the second-order geometric error at any practical resolution.
ZERO_VALUE_SHIFT = 1e-4

# Cut quadrilaterals are zero sets of affine functions and hence exactly
# planar; the bisection asserts this within an absolute tolerance.
PLANARITY_TOL = 1e-10

# Marching-tetrahedra case table.  With the corners of a cut tetrahedron
# sorted negative first (each group in tetrahedron order), row k - 1 lists
# the corner pairs whose edges carry the cut points when k corners are
# negative, in the cyclic order of the cut polygon.  Triangles leave the
# last slot unused.  In the 2 | 2 case consecutive cut edges share a
# tetrahedron face, so the quadrilateral does not cross itself.
_CUT_PAIRS = np.array(
    [
        [[0, 1], [0, 2], [0, 3], [0, 1]],  # the lone negative corner against the rest
        [[0, 2], [0, 3], [1, 3], [1, 2]],
        [[3, 0], [3, 1], [3, 2], [3, 0]],  # the lone positive corner against the rest
    ]
)

# The two bisections of a quadrilateral 0-1-2-3: along diagonal 0-2, then 1-3.
_QUAD_SPLITS = np.array([[[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]])


@dataclass(frozen=True)
class BulkMesh:
    """Tetrahedral decomposition of an axis-aligned box."""

    vertices: np.ndarray  # (V, 3)
    tets: np.ndarray      # (M, 4) vertex indices, positively oriented
    h_bulk: float         # maximum tetrahedron diameter


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def build_bulk_mesh(box, n: int) -> BulkMesh:
    """Kuhn subdivision of ``box`` into n^3 cubes of 6 tetrahedra each."""
    box = np.asarray(box, dtype=float).reshape(3, 2)
    if n < 1:
        raise ValueError("need at least one subdivision per axis")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("degenerate bounding box")
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in box]
    vertices = np.empty((n + 1, n + 1, n + 1, 3))
    vertices[..., 0] = axes[0][:, None, None]
    vertices[..., 1] = axes[1][:, None]
    vertices[..., 2] = axes[2]

    idx = np.arange(n)
    base = ((idx[:, None, None] * (n + 1) + idx[:, None]) * (n + 1) + idx).ravel()
    stride = np.array([(n + 1) * (n + 1), n + 1, 1])

    cubes = len(base)
    tets = np.empty((6 * cubes, 4), dtype=base.dtype)
    for k, perm in enumerate(itertools.permutations(range(3))):
        offsets = np.zeros((4, 3), dtype=int)
        for m, axis in enumerate(perm):
            offsets[m + 1 :, axis] = 1
        corner = offsets @ stride
        if _perm_sign(perm) < 0:
            corner = corner[[0, 1, 3, 2]]
        np.add(base[:, None], corner, out=tets[k * cubes : (k + 1) * cubes])
    spacing = (box[:, 1] - box[:, 0]) / n
    return BulkMesh(
        vertices=vertices.reshape(-1, 3), tets=tets, h_bulk=float(np.linalg.norm(spacing))
    )


@dataclass
class RawTraceSurface:
    """Per-tetrahedron cut polygons before quad bisection."""

    vertices: np.ndarray    # (W, 3) cut points, one per cut background edge
    faces: np.ndarray       # (C, 4) cut points in cyclic order; -1 in column 3 for triangles
    parent_tet: np.ndarray  # (C,) background element of each polygon
    inward: np.ndarray      # (C,) True where that cyclic order faces the psi < 0 side
    values: np.ndarray      # (V,) perturbed level values actually cut


def extract_trace_surface(bulk: BulkMesh, psi) -> RawTraceSurface:
    """Cut the zero set of the vertex-interpolated level function out of ``bulk``.

    ``psi`` is either a callable evaluated at the bulk vertices or an array of
    per-vertex values (ordering = bulk vertex order).  Vertex values within
    ``ZERO_VALUE_SHIFT * h_bulk`` of zero are shifted positive first, which
    makes the sign patterns exhaustive: one vertex against three yields a
    triangle, two against two a planar quadrilateral.  Each polygon records
    whether its cyclic order must be reversed for its normal to point to the
    psi > 0 side of its tetrahedron.
    """
    if callable(psi):
        values = np.asarray(psi(bulk.vertices), dtype=float)
    else:
        values = np.array(psi, dtype=float).ravel()
    if values.shape != (len(bulk.vertices),):
        raise ValueError("need one level value per bulk vertex")
    if not np.all(np.isfinite(values)):
        raise ValueError("level values must be finite")
    tiny = ZERO_VALUE_SHIFT * bulk.h_bulk
    values = np.where(np.abs(values) < tiny, tiny, values)

    neg = values < 0.0
    signs = np.ascontiguousarray(neg[bulk.tets])
    # the four sign bytes of a tetrahedron read as one word: cut unless all equal
    pattern = signs.view(np.uint32)[:, 0]
    cut_ids = np.nonzero((pattern != 0) & (pattern != 0x01010101))[0]
    n_minus = signs[cut_ids].sum(axis=1)
    corners = bulk.tets[cut_ids]
    rows = np.arange(len(corners))[:, None]
    corners = corners[rows, np.argsort(~neg[corners], axis=1, kind="stable")]
    ends = corners[rows[:, :, None], _CUT_PAIRS[n_minus - 1]]
    lo, hi = ends.min(axis=2), ends.max(axis=2)

    # Number the cut edges by first use, polygon by polygon: one point per edge.
    used = np.ones(lo.shape, dtype=bool)
    used[:, 3] = n_minus == 2
    n_bulk = len(bulk.vertices)
    edge_keys, first, inverse = np.unique(
        (lo * n_bulk + hi)[used], return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    faces = np.full(lo.shape, -1)
    faces[used] = rank[inverse]

    a, b = np.divmod(edge_keys[by_first], n_bulk)
    s = values[a] / (values[a] - values[b])
    verts = bulk.vertices
    points = verts[a] + s[:, None] * (verts[b] - verts[a])

    # Twice the vector area of each polygon (for a triangle the last corner
    # repeats the first), tested against the corner with the largest value,
    # which lies farthest on the psi > 0 side of the cut plane.
    p = points[np.where(used, faces, faces[:, :1])]
    area = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 1])
    top = corners[rows[:, 0], np.argmax(values[corners], axis=1)]
    inward = np.einsum("ci,ci->c", area, verts[top] - p[:, 0]) < 0.0

    return RawTraceSurface(
        vertices=points, faces=faces, parent_tet=cut_ids, inward=inward, values=values
    )


def _max_interior_angles(p: np.ndarray) -> np.ndarray:
    """Largest interior angle of each triangle of a (F, 3, 3) corner array."""
    angles = np.empty((len(p), 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.einsum("fi,fi->f", u, v) / (
            np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
        )
        angles[:, k] = np.arccos(np.clip(cosang, -1.0, 1.0))
    return angles.max(axis=1)


def split_quads(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Bisect planar quadrilaterals given in cyclic order.

    ``points`` is (Q, 4, 3) and ``ids`` the (Q, 4) vertex ids; returns the
    (Q, 2, 3) ids of the two triangles of each quadrilateral, in its cyclic
    orientation.  Each quadrilateral is split along the diagonal minimizing
    the larger of the two resulting maximum interior angles; exact ties
    (within 1e-12) go to the diagonal with the lexicographically smaller
    vertex-index pair.  Raises ``RuntimeError`` on a non-planar one.
    """
    p = np.asarray(points, dtype=float)
    ids = np.asarray(ids, dtype=int)
    diag_cross = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 1])
    nrm = np.linalg.norm(diag_cross, axis=-1)
    nrm[nrm <= 1e-300] = np.inf
    defect = np.abs(np.einsum("qi,qi->q", p[:, 1] - p[:, 0], diag_cross / nrm[:, None]))
    bad = np.flatnonzero(defect > PLANARITY_TOL)
    if len(bad):
        raise RuntimeError(f"cut quadrilateral is not planar (defect {defect[bad[0]]:.3e})")

    worst = _max_interior_angles(p[:, _QUAD_SPLITS].reshape(-1, 3, 3)).reshape(-1, 2, 2).max(axis=2)
    worst_a, worst_b = worst[:, 0], worst[:, 1]
    # the diagonals share no vertex, so their smaller ids decide the tie
    a_is_lower = np.minimum(ids[:, 0], ids[:, 2]) < np.minimum(ids[:, 1], ids[:, 3])
    pick_b = (worst_b < worst_a - 1e-12) | (~(worst_a < worst_b - 1e-12) & ~a_is_lower)
    return ids[np.arange(len(ids))[:, None, None], _QUAD_SPLITS[pick_b.astype(int)]]


@dataclass(frozen=True)
class TraceMesh:
    """Conforming triangulation of an extracted level surface.

    Triangles are stored counterclockwise with respect to the facet normals;
    for an extracted mesh these point to the psi > 0 side of each parent
    tetrahedron by construction.  Edges are stored with increasing vertex
    indices; for each edge the first adjacent face is the one traversing it
    in that direction (``face_edge_signs`` records the per-facet agreement,
    one sign per local edge).  Treated as immutable by all consumers.
    """

    vertices: np.ndarray           # (V, 3)
    triangles: np.ndarray          # (F, 3)
    edges: np.ndarray              # (E, 2), increasing vertex ids
    edge_faces: np.ndarray         # (E, 2): [agreeing face, opposing face]
    edge_local: np.ndarray         # (E, 2): local edge index within those faces
    face_edges: np.ndarray         # (F, 3): global edge id of each local edge
    face_edge_signs: np.ndarray    # (F, 3): +1 if local direction has increasing ids
    face_normals: np.ndarray       # (F, 3) unit normals, by the vertex order
    h: float                       # maximum triangle diameter
    parent_tet: np.ndarray         # (F,) background element, -1 if not applicable

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    def corner_points(self) -> np.ndarray:
        return self.vertices[self.triangles]

    def areas(self) -> np.ndarray:
        p = self.corner_points()
        return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=-1)

    def centroids(self) -> np.ndarray:
        return self.corner_points().mean(axis=1)

    def max_interior_angles(self) -> np.ndarray:
        return _max_interior_angles(self.corner_points())

    @staticmethod
    def from_arrays(
        vertices: np.ndarray,
        triangles: np.ndarray,
        parent_tet: np.ndarray | None = None,
    ) -> "TraceMesh":
        """Wire up a closed, connected, consistently oriented triangle soup.

        The vertex order of every triangle is kept and fixes its normal;
        nothing is flipped.  Raises ``RuntimeError`` when an edge does not
        border exactly two facets, when two facets traverse their shared edge
        in the same direction, or when the surface is disconnected, and
        ``ValueError`` on a facet of zero area.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=int)
        n_faces = len(triangles)
        if n_faces == 0:
            raise RuntimeError("empty surface")
        # local edge k is the one opposite corner k, traversed from u to v
        u = triangles[:, [1, 2, 0]].ravel()
        v = triangles[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        agree = u < v
        order = np.lexsort((~agree, hi, lo))
        new_edge = np.flatnonzero((np.diff(lo[order]) != 0) | (np.diff(hi[order]) != 0)) + 1
        runs = np.diff(np.concatenate(([0], new_edge, [len(order)])))
        if np.any(runs != 2):
            k = np.flatnonzero(runs != 2)[0]
            first = order[np.concatenate(([0], new_edge))[k]]
            raise RuntimeError(
                f"non-manifold surface: edge ({lo[first]}, {hi[first]}) borders {runs[k]} facet(s)"
            )
        pairs = order.reshape(-1, 2)
        if np.any(~agree[pairs[:, 0]] | agree[pairs[:, 1]]):
            raise RuntimeError("inconsistent facet orientation around an edge")
        edge_faces = pairs // 3
        adjacency = coo_matrix(
            (np.ones(len(pairs)), (edge_faces[:, 0], edge_faces[:, 1])), shape=(n_faces, n_faces)
        )
        if connected_components(adjacency, directed=False)[0] != 1:
            raise RuntimeError("surface is not connected")

        p = vertices[triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        areas2 = np.linalg.norm(cross, axis=-1)
        if np.any(areas2 <= 0.0):
            raise ValueError("degenerate triangle: zero area")

        edges = np.stack([lo[pairs[:, 0]], hi[pairs[:, 0]]], axis=1)
        face_edges = np.empty(3 * n_faces, dtype=int)
        face_edges[pairs] = np.arange(len(pairs))[:, None]
        edge_vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
        if parent_tet is None:
            parent_tet = np.full(n_faces, -1, dtype=int)
        return TraceMesh(
            vertices=vertices,
            triangles=triangles,
            edges=edges,
            edge_faces=edge_faces,
            edge_local=pairs % 3,
            face_edges=face_edges.reshape(-1, 3),
            face_edge_signs=np.where(agree, 1.0, -1.0).reshape(-1, 3),
            face_normals=cross / areas2[:, None],
            h=float(np.linalg.norm(edge_vec, axis=-1).max()),
            parent_tet=np.asarray(parent_tet, dtype=int),
        )


def bisect_quads(raw: RawTraceSurface, surface: SurfaceField | None = None) -> TraceMesh:
    """Turn the raw cut polygons into an oriented conforming triangulation.

    Polygons keep their order; a quadrilateral becomes two consecutive
    triangles (``split_quads``).  Polygons marked ``inward`` are reversed, so
    every normal points to the psi > 0 side.  With ``surface`` given, raises
    ``ValueError`` if the normals point against ``surface.gradient`` on
    balance, i.e. if the level function was positive inside.
    """
    is_quad = raw.faces[:, 3] >= 0
    sizes = 1 + is_quad
    start = np.cumsum(sizes) - sizes
    tris = np.empty((sizes.sum(), 3), dtype=int)
    tris[start[~is_quad]] = raw.faces[~is_quad, :3]
    quads = raw.faces[is_quad]
    tris[start[is_quad][:, None] + [0, 1]] = split_quads(raw.vertices[quads], quads)
    inward = np.repeat(raw.inward, sizes)
    tris[inward] = tris[inward][:, [0, 2, 1]]
    mesh = TraceMesh.from_arrays(raw.vertices, tris, parent_tet=np.repeat(raw.parent_tet, sizes))
    if surface is not None:
        flux = np.einsum(
            "f,fi,fi->", mesh.areas(), mesh.face_normals, surface.gradient(mesh.centroids())
        )
        if flux < 0.0:
            raise ValueError(
                "facet normals point against the surface gradient: "
                "the level function must be positive outside the surface"
            )
    return mesh


@dataclass(frozen=True)
class MeshStats:
    """Quality and geometric-consistency summary of a trace mesh."""

    h: float
    n_vertices: int
    n_edges: int
    n_triangles: int
    euler_characteristic: int
    max_interior_angle: float
    max_abs_dist: float
    max_normal_gap: float
    min_transversality: float
    min_area: float
    max_area: float
    max_area_mismatch: float       # sup |1 - area ratio| over quadrature points
    max_consistency_gap: float     # sup |P - B| (Frobenius) over quadrature points


def mesh_stats(mesh: TraceMesh, surface: SurfaceField, degree: int = 4) -> MeshStats:
    """Measure the mesh against the continuous surface at quadrature points."""
    from .elements import AffineMap, triangle_rule

    maps = AffineMap.from_triangles(mesh.corner_points())
    pts, _ = triangle_rule(degree)
    x = maps.to_physical(pts)
    nu_h = np.broadcast_to(mesh.face_normals[:, None, :], x.shape)
    frames = frame_at(surface, x, nu_h)

    mu = area_ratio(frames)
    bgap = frames.tangent_projector - consistency_matrix(frames)
    gap_norm = np.sqrt(np.einsum("...ij,...ij->...", bgap, bgap))

    nu_c = surface.gradient(mesh.centroids())
    normal_gap = np.linalg.norm(nu_c - mesh.face_normals, axis=-1)
    cos_all = min(float(frames.transversality.min()),
                  float(np.einsum("fi,fi->f", nu_c, mesh.face_normals).min()))

    areas = mesh.areas()
    return MeshStats(
        h=mesh.h,
        n_vertices=mesh.n_vertices,
        n_edges=mesh.n_edges,
        n_triangles=mesh.n_triangles,
        euler_characteristic=mesh.euler_characteristic,
        max_interior_angle=float(mesh.max_interior_angles().max()),
        max_abs_dist=float(np.abs(frames.dist).max()),
        max_normal_gap=float(normal_gap.max()),
        min_transversality=cos_all,
        min_area=float(areas.min()),
        max_area=float(areas.max()),
        max_area_mismatch=float(np.abs(1.0 - mu).max()),
        max_consistency_gap=float(gap_norm.max()),
    )


def write_off(mesh: TraceMesh, path) -> None:
    """ASCII OFF export for external viewers."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} {mesh.n_edges}"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vertex_values(path) -> np.ndarray:
    """Read whitespace-separated level values, one per bulk vertex."""
    with open(path) as fh:
        return np.array(fh.read().split(), dtype=float)
