"""Background tetrahedral meshes and level-set facet extraction.

The background box is split into cubes and every cube into the six path
tetrahedra along its main diagonal; all cubes use the same diagonal, so the
decomposition is conforming.  Only the lattice is stored: tetrahedron
``k * n^3 + cube`` is path ``k`` through its cube and is formed on demand,
and extraction subdivides only the cubes whose corners do not all share a
sign.  The zero set of the piecewise linear interpolant of a level function
cuts each tetrahedron in a triangle or a planar quadrilateral, read off a
marching-tetrahedra case table indexed by the number of negative corners.
Quadrilaterals are bisected along the diagonal that minimizes the larger
maximum interior angle, and full edge connectivity is wired up.  Every step
is a pass over whole arrays.

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

from .elements import ASSEMBLY_DEGREE, AffineMap, triangle_rule
from .geometry import SurfaceField, point_blocks

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


def _kuhn_corners() -> np.ndarray:
    """Corner offsets (6, 4, 3) of the path tetrahedra of the unit cube.

    Path ``k`` steps along the axes in the order of the k-th permutation;
    odd ones swap their last two corners to stay positively oriented.
    """
    out = np.zeros((6, 4, 3), dtype=int)
    for k, perm in enumerate(itertools.permutations(range(3))):
        for m, axis in enumerate(perm):
            out[k, m + 1 :, axis] = 1
        inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
        if inversions % 2:
            out[k, [2, 3]] = out[k, [3, 2]]
    return out


_KUHN_CORNERS = _kuhn_corners()


@dataclass(frozen=True)
class BulkMesh:
    """Lattice of an axis-aligned box, cut into n^3 cubes of 6 tetrahedra each.

    Vertex ``(ix * (n + 1) + iy) * (n + 1) + iz`` sits at lattice position
    (ix, iy, iz); cube ``(ix * n + iy) * n + iz`` has it as its lowest
    corner; tetrahedron ``k * n^3 + cube`` is path ``k`` through that cube.
    """

    vertices: np.ndarray  # ((n + 1)^3, 3)
    n: int                # cubes per axis
    h_bulk: float         # maximum tetrahedron diameter

    def tet_corners(self, tets: np.ndarray) -> np.ndarray:
        """Vertex ids (..., 4) of tetrahedra, positively oriented."""
        n = self.n
        path, cube = np.divmod(np.asarray(tets), n**3)
        ix, rest = np.divmod(cube, n * n)
        iy, iz = np.divmod(rest, n)
        lowest = (ix * (n + 1) + iy) * (n + 1) + iz
        return lowest[..., None] + _KUHN_CORNERS[path] @ np.array([(n + 1) * (n + 1), n + 1, 1])


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
    spacing = (box[:, 1] - box[:, 0]) / n
    return BulkMesh(vertices=vertices.reshape(-1, 3), n=n, h_bulk=float(np.linalg.norm(spacing)))


@dataclass
class RawTraceSurface:
    """Per-tetrahedron cut polygons before quad bisection."""

    vertices: np.ndarray    # (W, 3) cut points, one per cut background edge
    faces: np.ndarray       # (C, 4) cut points in cyclic order; -1 in column 3 for triangles
    parent_tet: np.ndarray  # (C,) background element of each polygon
    inward: np.ndarray      # (C,) True where that cyclic order faces the psi < 0 side


def extract_trace_surface(bulk: BulkMesh, psi) -> RawTraceSurface:
    """Cut the zero set of the vertex-interpolated level function out of ``bulk``.

    ``psi`` is a callable evaluated at the bulk vertices; it returns one
    finite value per vertex, in bulk vertex order.  Vertex values within
    ``ZERO_VALUE_SHIFT * h_bulk`` of zero are shifted positive first, which
    makes the sign patterns exhaustive: one vertex against three yields a
    triangle, two against two a planar quadrilateral.  Each polygon records
    whether its cyclic order must be reversed for its normal to point to the
    psi > 0 side of its tetrahedron.
    """
    values = np.asarray(psi(bulk.vertices), dtype=float)
    if values.shape != (len(bulk.vertices),):
        raise ValueError("need one level value per bulk vertex")
    if not np.all(np.isfinite(values)):
        raise ValueError("level values must be finite")
    tiny = ZERO_VALUE_SHIFT * bulk.h_bulk
    values = np.where(np.abs(values) < tiny, tiny, values)

    neg = values < 0.0
    # Only a cube whose eight corners do not all share a sign holds cut
    # tetrahedra; its six are the candidates, path-major like the global ids.
    n = bulk.n
    lattice = neg.reshape(n + 1, n + 1, n + 1)
    n_neg = np.zeros((n, n, n), dtype=np.uint8)
    for a, b, c in itertools.product((0, 1), repeat=3):
        n_neg += lattice[a : a + n, b : b + n, c : c + n]
    cubes = np.flatnonzero((n_neg > 0) & (n_neg < 8))
    candidates = (np.arange(6)[:, None] * n**3 + cubes).ravel()
    corners = bulk.tet_corners(candidates)
    signs = np.ascontiguousarray(neg[corners])
    # the four sign bytes of a tetrahedron read as one word: cut unless all equal
    pattern = signs.view(np.uint32)[:, 0]
    cut = (pattern != 0) & (pattern != 0x01010101)
    cut_ids, corners = candidates[cut], corners[cut]
    n_minus = signs[cut].sum(axis=1)
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

    return RawTraceSurface(vertices=points, faces=faces, parent_tet=cut_ids, inward=inward)


def max_interior_angles(corners: np.ndarray) -> np.ndarray:
    """Largest interior angle of each triangle of a (F, 3, 3) corner array."""
    angles = np.empty((len(corners), 3))
    for k in range(3):
        u = corners[:, (k + 1) % 3] - corners[:, k]
        v = corners[:, (k + 2) % 3] - corners[:, k]
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

    worst = max_interior_angles(p[:, _QUAD_SPLITS].reshape(-1, 3, 3)).reshape(-1, 2, 2).max(axis=2)
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
    indices; ``face_edge_signs`` records, one sign per local edge, whether
    the facet traverses its edge in that direction.  Treated as immutable
    by all consumers.
    """

    vertices: np.ndarray           # (V, 3)
    triangles: np.ndarray          # (F, 3)
    edges: np.ndarray              # (E, 2), increasing vertex ids
    face_edges: np.ndarray         # (F, 3): global edge id of each local edge
    face_edge_signs: np.ndarray    # (F, 3): +1 if local direction has increasing ids
    face_normals: np.ndarray       # (F, 3) unit normals, by the vertex order
    maps: AffineMap                # affine maps of the reference triangle onto the facets
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
        return 0.5 * self.maps.jac

    @staticmethod
    def from_arrays(vertices: np.ndarray, triangles: np.ndarray, parent_tet: np.ndarray) -> "TraceMesh":
        """Wire up a closed, connected, consistently oriented triangle soup.

        The vertex order of every triangle is kept and fixes its normal;
        nothing is flipped.  Raises ``RuntimeError`` when an edge does not
        border exactly two facets, when two facets traverse their shared edge
        in the same direction, or when the surface is disconnected, and
        ``ValueError`` on a facet of zero area or with a non-finite corner
        (``AffineMap.from_triangles``, which builds the facet maps).
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

        maps = AffineMap.from_triangles(vertices[triangles])
        edges = np.stack([lo[pairs[:, 0]], hi[pairs[:, 0]]], axis=1)
        face_edges = np.empty(3 * n_faces, dtype=int)
        face_edges[pairs] = np.arange(len(pairs))[:, None]
        edge_vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
        return TraceMesh(
            vertices=vertices,
            triangles=triangles,
            edges=edges,
            face_edges=face_edges.reshape(-1, 3),
            face_edge_signs=np.where(agree, 1.0, -1.0).reshape(-1, 3),
            face_normals=np.cross(maps.A[..., 0], maps.A[..., 1]) / maps.jac[:, None],
            maps=maps,
            h=float(np.linalg.norm(edge_vec, axis=-1).max()),
            parent_tet=np.asarray(parent_tet, dtype=int),
        )


def bisect_quads(raw: RawTraceSurface, surface: SurfaceField) -> TraceMesh:
    """Turn the raw cut polygons into an oriented conforming triangulation.

    Polygons keep their order; a quadrilateral becomes two consecutive
    triangles (``split_quads``).  Polygons marked ``inward`` are reversed, so
    every normal points to the psi > 0 side.  Raises ``ValueError`` if the
    normals point against the normal of ``surface`` on balance, i.e. if the
    level function was positive inside.
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
    normals = surface.derivatives(mesh.corner_points().mean(axis=1))[1]
    flux = np.einsum("f,fi,fi->", mesh.areas(), mesh.face_normals, normals)
    if flux < 0.0:
        raise ValueError(
            "facet normals point against the surface gradient: "
            "the level function must be positive outside the surface"
        )
    return mesh


@dataclass(frozen=True)
class MeshStats:
    """Quality summary of a trace mesh."""

    h: float
    n_triangles: int
    euler_characteristic: int
    max_interior_angle: float
    max_abs_dist: float


def mesh_stats(mesh: TraceMesh, surface: SurfaceField) -> MeshStats:
    """Summarize the mesh, with ``max_abs_dist`` from ``signed_distance`` at the assembly-rule points.

    No frames are built and no mesh is rejected here: the load's frames (``assembly.build_rhs``), at
    the same points, reject facet points outside the tube and facets not transverse to the surface.
    """
    pts = triangle_rule(ASSEMBLY_DEGREE)[0]
    max_abs_dist = max(float(np.abs(surface.signed_distance(x)).max()) for _, x in point_blocks(mesh, pts))
    return MeshStats(
        h=mesh.h,
        n_triangles=mesh.n_triangles,
        euler_characteristic=mesh.euler_characteristic,
        max_interior_angle=float(max_interior_angles(mesh.corner_points()).max()),
        max_abs_dist=max_abs_dist,
    )


def write_off(mesh: TraceMesh, path) -> None:
    """ASCII OFF export for external viewers."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} {mesh.n_edges}"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
