"""Bulk mesh construction, level-set extraction and mesh quality tests."""

import hashlib
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitrace.trace_mesh import (
    BulkMesh,
    TraceMesh,
    bisect_quads,
    build_bulk_mesh,
    extract_trace_surface,
    max_interior_angles,
    mesh_stats,
    split_quads,
    write_off,
)

from conftest import DEFAULT_BOX, make_sphere_mesh, random_rotation, tet_boundary_mesh
from oracle import edge_incidence, mesh_diagnostics, shifted_level_values

# The arrays of an extracted mesh in digest order: the stored fields, and
# the edge incidence the oracle derives from the triangles.
MESH_FIELDS = (
    "vertices",
    "triangles",
    "edges",
    "edge_faces",
    "edge_local",
    "face_edges",
    "face_edge_signs",
    "face_normals",
    "h",
    "parent_tet",
)


def mesh_arrays(mesh: TraceMesh) -> dict[str, np.ndarray]:
    """The arrays named in ``MESH_FIELDS``, by name."""
    edge_faces, edge_local = edge_incidence(mesh)
    derived = {"edge_faces": edge_faces, "edge_local": edge_local}
    return {name: derived[name] if name in derived else getattr(mesh, name) for name in MESH_FIELDS}


def mesh_digest(mesh: TraceMesh) -> str:
    """SHA-256 over every array of ``MESH_FIELDS``: name, dtype, shape and bytes.

    Float arrays are hashed with -0.0 read as +0.0: a normal computed as
    -(u x v) or as v x u has the same value, but an exact zero component
    can carry either sign.
    """
    sha = hashlib.sha256()
    for name, arr in mesh_arrays(mesh).items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind == "f":
            arr = arr + 0.0
        sha.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


UNIT_CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def all_tets(bulk: BulkMesh) -> np.ndarray:
    """Vertex ids of every tetrahedron of the lattice, by global id."""
    return bulk.tet_corners(np.arange(6 * bulk.n**3))


def tet_volumes(bulk: BulkMesh) -> np.ndarray:
    p = bulk.vertices[all_tets(bulk)]
    return np.einsum(
        "ti,ti->t", np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), p[:, 3] - p[:, 0]
    ) / 6.0


class TestBulkMesh:
    def test_single_cube(self):
        bulk = build_bulk_mesh(DEFAULT_BOX, 1)
        assert len(bulk.vertices) == 8
        assert len(np.unique(np.sort(all_tets(bulk), axis=1), axis=0)) == 6

    def test_two_per_axis(self):
        bulk = build_bulk_mesh(DEFAULT_BOX, 2)
        assert len(bulk.vertices) == 27
        assert len(np.unique(np.sort(all_tets(bulk), axis=1), axis=0)) == 48

    def test_volumes_partition_the_box(self):
        bulk = build_bulk_mesh(DEFAULT_BOX, 2)
        vols = tet_volumes(bulk)
        assert np.all(vols > 0.0)
        # each cube has volume 8, each of its six tets 4/3
        assert np.allclose(vols, 4.0 / 3.0, atol=1e-12)
        assert vols.sum() == pytest.approx(64.0, abs=1e-12)

    def test_h_is_the_cube_diagonal(self):
        bulk = build_bulk_mesh(DEFAULT_BOX, 8)
        assert bulk.h_bulk == pytest.approx(np.sqrt(3.0) * 0.5, rel=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_bulk_mesh(DEFAULT_BOX, 0)
        with pytest.raises(ValueError):
            build_bulk_mesh(((0, 0), (0, 1), (0, 1)), 2)

    def test_face_to_face_conformity(self):
        """Every interior triangular face is shared by exactly two tets."""
        bulk = build_bulk_mesh(DEFAULT_BOX, 2)
        counts = {}
        for tet in all_tets(bulk):
            for skip in range(4):
                face = tuple(sorted(v for i, v in enumerate(tet) if i != skip))
                counts[face] = counts.get(face, 0) + 1
        assert set(counts.values()) <= {1, 2}
        # boundary faces (count 1) must lie on the box surface
        box = np.asarray(DEFAULT_BOX)
        for face, count in counts.items():
            if count == 1:
                pts = bulk.vertices[list(face)]
                on_wall = [
                    np.all(pts[:, axis] == box[axis, side])
                    for axis in range(3)
                    for side in range(2)
                ]
                assert any(on_wall)


class TestExtraction:
    """Single-cube cuts: the lattice of the unit cube holds six tetrahedra."""

    def test_one_against_three_gives_midpoint_triangle(self):
        bulk = build_bulk_mesh(UNIT_CUBE, 1)
        values = np.ones(8)
        values[0] = -1.0
        raw = extract_trace_surface(bulk, lambda _: values)
        # every tetrahedron of the cube holds the origin, its lone negative corner
        assert raw.faces.shape == (6, 4) and np.all(raw.faces[:, 3] == -1)
        # one cut point per lattice edge leaving the origin, shared by its tetrahedra
        assert len(raw.vertices) == 7
        for face, tet, inward in zip(raw.faces, bulk.tet_corners(raw.parent_tet), raw.inward):
            expected = {tuple(0.5 * bulk.vertices[v]) for v in tet[1:]}
            got = {tuple(raw.vertices[v]) for v in face[:3]}
            assert got == expected
            # once oriented, the normal points away from the lone negative corner
            a, b, c = raw.vertices[face[[0, 2, 1] if inward else [0, 1, 2]]]
            assert np.cross(b - a, c - a) @ (a - bulk.vertices[0]) > 0.0

    def test_two_against_two_gives_quad(self):
        bulk = build_bulk_mesh(UNIT_CUBE, 1)
        # negative on the z = 0 face: the paths stepping along z second are cut 2 | 2
        values = np.where(bulk.vertices[:, 2] == 0.0, -1.0, 1.0)
        raw = extract_trace_surface(bulk, lambda _: values)
        n_minus = (values[bulk.tet_corners(raw.parent_tet)] < 0.0).sum(axis=1)
        is_quad = raw.faces[:, 3] >= 0
        assert np.array_equal(is_quad, n_minus == 2) and is_quad.sum() == 2
        for face in raw.faces[is_quad]:
            assert np.all(face >= 0) and len(np.unique(face)) == 4
            assert len(np.unique(raw.vertices[face], axis=0)) == 4

    def test_uncut_tet_contributes_nothing(self, sphere):
        bulk = build_bulk_mesh(UNIT_CUBE, 1)
        raw = extract_trace_surface(bulk, lambda _: np.ones(8))
        assert len(raw.faces) == 0
        assert raw.vertices.shape == (0, 3) and raw.faces.shape == (0, 4)
        with pytest.raises(RuntimeError, match="empty"):
            bisect_quads(raw, surface=sphere)

    @pytest.mark.parametrize("values, message", [(np.ones(7), "one level value"), (np.full(8, np.nan), "finite")])
    def test_rejects_level_values_it_cannot_cut(self, values, message):
        with pytest.raises(ValueError, match=message):
            extract_trace_surface(build_bulk_mesh(UNIT_CUBE, 1), lambda _: values)

    def test_vertices_on_interpolated_zero_set(self, sphere):
        """Reconstruct the linear interpolant in a parent element and check
        that the trace vertices sit on its zero level."""
        bulk = build_bulk_mesh(DEFAULT_BOX, 8)
        raw = extract_trace_surface(bulk, sphere.signed_distance)
        mesh = bisect_quads(raw, surface=sphere)
        values = shifted_level_values(bulk, sphere.signed_distance)
        worst = 0.0
        for face in range(0, mesh.n_triangles, 7):
            tet = bulk.tet_corners(mesh.parent_tet[face])
            corners = bulk.vertices[tet]
            system = np.vstack([corners.T, np.ones(4)])
            for vid in mesh.triangles[face]:
                bary = np.linalg.solve(system, np.append(mesh.vertices[vid], 1.0))
                worst = max(worst, abs(float(bary @ values[tet])))
        assert worst < 1e-13

    def test_determinism(self, sphere):
        bulk = build_bulk_mesh(DEFAULT_BOX, 8)
        raw1 = extract_trace_surface(bulk, sphere.signed_distance)
        raw2 = extract_trace_surface(bulk, sphere.signed_distance)
        assert np.array_equal(raw1.vertices, raw2.vertices)
        assert np.array_equal(raw1.faces, raw2.faces)
        assert np.array_equal(raw1.inward, raw2.inward)
        mesh1, mesh2 = bisect_quads(raw1, surface=sphere), bisect_quads(raw2, surface=sphere)
        assert np.array_equal(mesh1.triangles, mesh2.triangles)
        assert np.array_equal(mesh1.face_normals, mesh2.face_normals)

    def test_cut_cubes_only(self, sphere):
        """The cut stays below the size of the full 6 n^3 tetrahedron array."""
        n = 64
        tracemalloc.start()
        try:
            raw = extract_trace_surface(build_bulk_mesh(DEFAULT_BOX, n), sphere.signed_distance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(raw.faces) > 0
        assert peak < 6 * n**3 * 4 * 8

    def test_rejects_level_function_positive_inside(self, sphere):
        bulk = build_bulk_mesh(DEFAULT_BOX, 8)
        raw = extract_trace_surface(bulk, lambda x: -sphere.signed_distance(x))
        with pytest.raises(ValueError, match="positive outside"):
            bisect_quads(raw, surface=sphere)


def worst_angle(quad: np.ndarray, split) -> float:
    """Larger maximum interior angle of the two triangles of a split."""
    return float(max_interior_angles(quad[np.asarray(split)]).max())


class TestQuadSplit:
    IDS = np.array([[0, 1, 2, 3]])
    SPLITS = (((0, 1, 2), (0, 2, 3)), ((0, 1, 3), (1, 2, 3)))

    def test_unit_square_tie_breaks_to_low_diagonal(self):
        square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        tris = split_quads(square[None], self.IDS)[0]
        assert tris.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_anisotropic_trapezoid_prefers_better_diagonal(self):
        quad = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [9.0, 1.0, 0.0], [0.5, 1.0, 0.0]])
        chosen = split_quads(quad[None], self.IDS)[0]
        chosen_local = tuple(tuple(int(i) for i in t) for t in chosen)
        other = (set(self.SPLITS) - {chosen_local}).pop()
        assert worst_angle(quad, chosen_local) < worst_angle(quad, other)

    def test_choice_minimizes_max_angle_on_random_quads(self):
        rng = np.random.default_rng(21)
        quads = []
        for _ in range(50):
            # convex planar quad from a random ellipse parameterization
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=4))
            if np.min(np.diff(angles)) < 0.3:
                continue
            a, b = rng.uniform(0.5, 3.0, size=2)
            flat = np.stack([a * np.cos(angles), b * np.sin(angles), np.zeros(4)], axis=-1)
            quads.append(flat @ random_rotation(rng).T)
        quads = np.array(quads)
        chosen = split_quads(quads, np.tile(self.IDS, (len(quads), 1)))
        for quad, split in zip(quads, chosen):
            best = min(worst_angle(quad, s) for s in self.SPLITS)
            assert worst_angle(quad, split) <= best + 1e-12

    def test_rejects_non_planar_quad(self):
        quad = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1e-3]])
        with pytest.raises(RuntimeError, match="not planar"):
            split_quads(quad[None], self.IDS)


class TestSphereMesh:
    def test_topology_and_conformity(self, sphere_meshes):
        mesh = sphere_meshes[16]
        assert mesh.euler_characteristic == 2
        # each edge has one agreeing and one opposing facet
        assert np.array_equal(np.sort(mesh.face_edges.ravel()), np.repeat(np.arange(mesh.n_edges), 2))
        signs = np.zeros(mesh.n_edges)
        np.add.at(signs, mesh.face_edges.ravel(), mesh.face_edge_signs.ravel())
        assert np.all(signs == 0.0)

    def test_outward_orientation(self, sphere, sphere_meshes):
        mesh = sphere_meshes[16]
        cos = np.einsum("fi,fi->f", sphere.derivatives(mesh.corner_points().mean(axis=1))[1], mesh.face_normals)
        assert cos.min() > 0.0

    def test_max_angle_bounded(self, sphere_meshes):
        for mesh in sphere_meshes.values():
            assert max_interior_angles(mesh.corner_points()).max() <= np.pi - 0.05

    def test_positive_areas(self, sphere_meshes):
        for mesh in sphere_meshes.values():
            assert mesh.areas().min() > 0.0

    def test_maps_own_their_origins(self, sphere_meshes):
        """The maps keep the first corners, not a view pinning the (F, 3, 3) corner array."""
        mesh = sphere_meshes[8]
        assert mesh.maps.origin.flags.owndata
        assert np.array_equal(mesh.maps.origin, mesh.corner_points()[:, 0])

    def test_stats_decrease_under_refinement(self, sphere, sphere_meshes, sphere_diagnostics):
        stats = {n: mesh_stats(sphere_meshes[n], sphere) for n in (8, 16, 32)}
        diag = sphere_diagnostics
        assert stats[8].max_abs_dist / stats[16].max_abs_dist >= 3.5
        assert stats[16].max_abs_dist / stats[32].max_abs_dist >= 3.5
        assert diag[8]["max_normal_gap"] / diag[16]["max_normal_gap"] >= 1.8
        assert diag[16]["max_normal_gap"] / diag[32]["max_normal_gap"] >= 1.8
        for n, s in stats.items():
            assert s.euler_characteristic == 2
            assert diag[n]["min_transversality"] > 0.0

    def test_closed_surface_at_each_level(self, sphere_meshes):
        for mesh in sphere_meshes.values():
            assert mesh.euler_characteristic == 2


class TestMeshBytes:
    """The extracted arrays are pinned to SHA-256 digests of a reference run."""

    @pytest.mark.parametrize(
        "n, offset, digest",
        [
            (12, (0.0, 0.0, 0.0), "a265a2ea7ece0ce1ae2f25eb71e32f9701686215b7a138c22034524ed304976e"),
            (16, (0.031, 0.117, 0.203), "054b03cab55f4d5151f2a72447dc4f63fb5069866913500865e3410f03387d93"),
            (16, (0.2, 0.05, 0.15), "f52faa5d583c6b3a4eec12288692c0d7d0d32f81335cb353a47dbd92738ab1f7"),
            (16, (0.125, 0.125, 0.125), "5f3f215898b17add6e03ac23872611c594fe4599dcb34ed5bade13965f75bb81"),
        ],
        ids=["n12", "n16-a", "n16-b", "n16-half-cell"],
    )
    def test_digest(self, n, offset, digest):
        box = np.asarray(DEFAULT_BOX) + np.asarray(offset)[:, None]
        assert mesh_digest(make_sphere_mesh(n, box)) == digest


def stats_bits(stats, diagnostics: dict) -> dict:
    """Every ``MeshStats`` value and every oracle diagnostic, floats as ``float.hex``."""
    values = {**asdict(stats), **diagnostics}
    return {name: value.hex() if isinstance(value, float) else value for name, value in values.items()}


class TestMeshStatsBytes:
    """Every mesh statistic and the oracle's diagnostics are pinned bit for bit to a reference run.

    The diagnostics were ``MeshStats`` fields when these values were
    recorded, so the pins also show that moving them changed no expression.
    """

    PINNED = {
        "n8": {
            "h": "0x1.8bb1dc490eec5p-1",
            "n_triangles": 360,
            "euler_characteristic": 2,
            "max_interior_angle": "0x1.157fdf69c5780p+1",
            "max_abs_dist": "0x1.5fff56c239f20p-4",
            "max_normal_gap": "0x1.e7b93aac7f08ep-2",
            "min_transversality": "0x1.c5e26445287ebp-1",
            "max_area": "0x1.89bc9d8d4a533p-4",
            "max_area_mismatch": "0x1.932c38a428ef8p-3",
            "max_consistency_gap": "0x1.5e6e63b70ece8p-3",
        },
        "n16-a": {
            "h": "0x1.a41b973051053p-2",
            "n_triangles": 1776,
            "euler_characteristic": 2,
            "max_interior_angle": "0x1.35da81c1d2858p+1",
            "max_abs_dist": "0x1.78ca5f8a99f20p-6",
            "max_normal_gap": "0x1.f797bc6947694p-3",
            "min_transversality": "0x1.f05b26caef0bep-1",
            "max_area": "0x1.1e9bce5c0d866p-5",
            "max_area_mismatch": "0x1.840564260bd00p-5",
            "max_consistency_gap": "0x1.679a813320003p-5",
        },
    }

    def test_zero_offset(self, sphere, sphere_meshes, sphere_diagnostics):
        bits = stats_bits(mesh_stats(sphere_meshes[8], sphere), sphere_diagnostics[8])
        assert bits == self.PINNED["n8"]

    def test_offset_lattice(self, sphere):
        box = np.asarray(DEFAULT_BOX) + np.asarray((0.031, 0.117, 0.203))[:, None]
        mesh = make_sphere_mesh(16, box)
        assert stats_bits(mesh_stats(mesh, sphere), mesh_diagnostics(mesh, sphere)) == self.PINNED["n16-a"]


class TestExtractedMeshProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(6, 16),
        frac=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    )
    def test_lattice_offsets(self, sphere, n, frac):
        box = np.asarray(DEFAULT_BOX) + (np.asarray(frac) * 4.0 / n)[:, None]
        mesh = make_sphere_mesh(n, box)
        edge_faces, edge_local = edge_incidence(mesh)
        first = mesh.face_edge_signs[edge_faces[:, 0], edge_local[:, 0]]
        second = mesh.face_edge_signs[edge_faces[:, 1], edge_local[:, 1]]
        assert np.all(first == 1.0) and np.all(second == -1.0)
        assert mesh.euler_characteristic == 2
        cos = np.einsum("fi,fi->f", sphere.derivatives(mesh.corner_points().mean(axis=1))[1], mesh.face_normals)
        assert cos.min() > 0.0
        assert max_interior_angles(mesh.corner_points()).max() <= np.pi - 0.05
        rebuilt = TraceMesh.from_arrays(mesh.vertices, mesh.triangles, parent_tet=mesh.parent_tet)
        got_arrays = mesh_arrays(rebuilt)
        for name, want in mesh_arrays(mesh).items():
            got, want = np.asarray(got_arrays[name]), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


class TestFromArrays:
    def test_tet_boundary(self):
        mesh = tet_boundary_mesh()
        assert mesh.n_triangles == 4 and mesh.n_edges == 6
        assert mesh.euler_characteristic == 2
        out = np.einsum("fi,fi->f", mesh.face_normals, mesh.corner_points().mean(axis=1))
        assert np.all(out > 0.0)

    def test_rejects_open_surface(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(RuntimeError):
            TraceMesh.from_arrays(verts, np.array([[0, 1, 2]]), parent_tet=np.full(1, -1))

    def test_rejects_flipped_facet(self):
        mesh = tet_boundary_mesh()
        tris = mesh.triangles.copy()
        tris[2] = tris[2, [0, 2, 1]]
        with pytest.raises(RuntimeError, match="orientation"):
            TraceMesh.from_arrays(mesh.vertices, tris, parent_tet=np.full(len(tris), -1))

    def test_rejects_non_manifold_edge(self):
        mesh = tet_boundary_mesh()
        # a fin on edge 0-1 makes it border three facets
        verts = np.vstack([mesh.vertices, [[3.0, 0.0, 0.0]]])
        tris = np.vstack([mesh.triangles, [[1, 0, 4]]])
        with pytest.raises(RuntimeError, match="non-manifold"):
            TraceMesh.from_arrays(verts, tris, parent_tet=np.full(len(tris), -1))

    def test_rejects_disjoint_tetrahedra(self):
        mesh = tet_boundary_mesh()
        verts = np.vstack([mesh.vertices, mesh.vertices + 5.0])
        tris = np.vstack([mesh.triangles, mesh.triangles + 4])
        with pytest.raises(RuntimeError, match="not connected"):
            TraceMesh.from_arrays(verts, tris, parent_tet=np.full(len(tris), -1))

    def test_rejects_a_zero_area_facet(self):
        mesh = tet_boundary_mesh()
        # corner 3 on the midpoint of edge 0-1 flattens facet (0, 3, 1)
        verts = mesh.vertices.copy()
        verts[3] = 0.5 * (verts[0] + verts[1])
        with pytest.raises(ValueError, match="zero area"):
            TraceMesh.from_arrays(verts, mesh.triangles, parent_tet=np.full(4, -1))

    def test_rejects_a_non_finite_corner(self):
        mesh = tet_boundary_mesh()
        verts = mesh.vertices.copy()
        verts[3, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            TraceMesh.from_arrays(verts, mesh.triangles, parent_tet=np.full(4, -1))


class TestOffExport:
    def test_header_and_counts(self, tmp_path):
        mesh = tet_boundary_mesh()
        path = tmp_path / "mesh.off"
        write_off(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "OFF"
        v, f, e = (int(s) for s in lines[1].split())
        assert (v, f, e) == (4, 4, 6)
        coords = np.array([[float(t) for t in ln.split()] for ln in lines[2 : 2 + v]])
        assert np.allclose(coords, mesh.vertices)
        faces = [ln.split() for ln in lines[2 + v :]]
        assert all(ln[0] == "3" for ln in faces) and len(faces) == f
