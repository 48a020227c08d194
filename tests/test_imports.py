"""Package structure: modules share only public names, one module numbers
and signs the vector edge moments, the geometry kernels stay in closed
form, the facet rule is mapped onto physical points one facet block at a
time, sparse factors, the facet maps and heap trims are made in fixed
places, every public name has a caller in the pipeline or the benchmark,
the package root re-exports only what the benchmark imports from it, and
every dataclass field has a reader there."""

import ast
from pathlib import Path

import quasitrace

PACKAGE = Path(quasitrace.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``from <package module> import _name`` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("quasitrace"):
            continue
        found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_private_names_across_modules():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)]
    assert offenders == []


def test_check_sees_a_private_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .elements import _hidden, visible\nfrom numpy import _private\n")
    assert private_imports(source) == ["mod.py: _hidden"]


def edge_dof_reads(path: Path) -> list[str]:
    """Reads of an ``edge_dofs`` attribute in one source file."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "edge_dofs"
    ]


def test_edge_moments_numbered_only_in_elements():
    """Every other module indexes the moments through ``elements.edge_dofs``."""
    offenders = [
        hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "elements.py" for hit in edge_dof_reads(path)
    ]
    assert offenders == []


def test_check_sees_an_edge_dof_read(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .elements import edge_dofs\n\nm = space.vector.edge_dofs\nd = edge_dofs(mesh, space)\n")
    assert edge_dof_reads(source) == ["mod.py:3"]


def dense_solver_calls(path: Path) -> list[str]:
    """Calls of an ``inv``, ``solve`` or ``eig*`` function in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("inv", "solve") or name.startswith("eig"):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_geometry_has_no_dense_solver():
    """The 3x3 resolvent and curvatures are closed forms."""
    assert dense_solver_calls(PACKAGE / "geometry.py") == []


def test_check_sees_a_dense_solver_call(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import numpy as np\nfrom numpy.linalg import inv\n\n"
        "a = np.linalg.inv(m)\nb = np.linalg.solve(m, v)\nc = np.linalg.eigh(m)\nd = inv(m)\ne = np.linalg.norm(v)\n"
    )
    assert dense_solver_calls(source) == ["mod.py:4", "mod.py:5", "mod.py:6", "mod.py:7"]


# The only function that maps a facet rule onto physical points, one facet
# block at a time.
POINT_MAPPERS = ("point_blocks",)


def facet_point_reads(path: Path) -> list[str]:
    """Reads of a ``points`` or ``to_physical`` attribute outside ``POINT_MAPPERS``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in POINT_MAPPERS
        for node in ast.walk(func)
    }
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("points", "to_physical") and id(node) not in allowed
    ]


def test_no_whole_mesh_facet_points():
    """No module builds the (F, Q, 3) points of a facet rule for a whole mesh."""
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in facet_point_reads(path)]
    assert offenders == []


def test_check_sees_a_facet_point_read(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def point_blocks(mesh, ref_points):\n"
        "    return mesh.maps[facets].to_physical(ref_points)\n\n"
        "def mesh_stats(mesh, surface):\n"
        "    pts, wts = triangle_rule(4)\n"
        "    x = mesh.points\n"
        "    y = mesh.maps.to_physical(pts)\n"
        "    return frame_at(surface, x, mesh.face_normals).point\n"
    )
    assert facet_point_reads(source) == ["mod.py:6", "mod.py:7"]


# The only functions that may call each name.  One helper factors a sparse
# matrix (``splu``) and applies the factor (``.solve``): it factors what each
# solve chooses, runs the refinement loop against the matrix it is given and
# checks the result.  A mesh builds its facet maps (``from_triangles``) once,
# with its other arrays.  One helper returns freed heap pages to the system
# (``malloc_trim``), at the points of a level whose peak it lowers.
FIXED_CALL_SITES = {
    "splu": ("_refined_solve",),
    "solve": ("_refined_solve",),
    "from_triangles": ("from_arrays",),
    "malloc_trim": ("release_free_memory",),
}


def stray_calls(path: Path) -> list[str]:
    """Calls of a name of ``FIXED_CALL_SITES`` outside the functions it allows there."""
    tree = ast.parse(path.read_text(), filename=str(path))
    enclosing: dict[int, set[str]] = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                enclosing.setdefault(id(node), set()).add(func.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in FIXED_CALL_SITES and not enclosing.get(id(node), set()) & set(FIXED_CALL_SITES[name]):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_factors_made_and_applied_in_fixed_places():
    """Sparse factors are made and applied by one helper, heap trims by another, the facet maps by the mesh constructor."""
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in stray_calls(path)]
    assert offenders == []


def test_check_sees_a_stray_factor_call(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def solve_hybrid(system):\n"
        "    return _refined_solve(system.matrix, system.matrix, system.rhs, 'multiplier')\n\n"
        "def _refined_solve(matrix, factored, rhs, what, **splu_options):\n"
        "    lu = splu(factored, **splu_options)\n"
        "    return lu.solve(rhs)\n\n"
        "def condense(k, b):\n"
        "    lu = scipy.sparse.linalg.splu(k)\n"
        "    return lu.solve(b)\n\n"
        "class TraceMesh:\n"
        "    def from_arrays(vertices, triangles):\n"
        "        return AffineMap.from_triangles(vertices[triangles])\n\n"
        "def mesh_stats(mesh):\n"
        "    return AffineMap.from_triangles(mesh.corner_points())\n\n"
        "def release_free_memory():\n"
        "    malloc_trim(0)\n\n"
        "def _lift_blocks(mesh):\n"
        "    ctypes.CDLL(None).malloc_trim(0)\n"
    )
    assert stray_calls(source) == ["mod.py:9", "mod.py:10", "mod.py:17", "mod.py:23"]


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class and of their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def uncalled_names(sources: list[Path], callers: list[Path]) -> list[str]:
    """Public names defined in ``sources`` that no code in ``sources`` or ``callers`` refers to.

    A reference is a name or an attribute spelled like the definition and
    lying outside it; imports and ``__all__`` entries are not references.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in [*sources, *callers]}
    references: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(id(node))
            elif isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(id(node))
    found = []
    for path in sources:
        for qualname, definition in public_definitions(trees[path]):
            inside = {id(node) for node in ast.walk(definition)}
            if all(ref in inside for ref in references.get(definition.name, [])):
                found.append(f"{path.name}: {qualname}")
    return found


def test_every_public_name_has_a_caller():
    """``src`` is the pipeline: each public function, class, method and property is used by it or by perfbench."""
    assert uncalled_names(sorted(PACKAGE.glob("*.py")), sorted(PERFBENCH.glob("*.py"))) == []


def test_check_sees_an_uncalled_name(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "__all__ = ['Map', 'frame_blocks', 'orphan']\n\n"
        "class Map:\n"
        "    def to_physical(self, x):\n"
        "        return x\n\n"
        "    def to_reference(self, x):\n"
        "        return self.to_reference(x)\n\n"
        "def frame_blocks(x):\n"
        "    return Map().to_physical(x)\n\n"
        "def orphan(x):\n"
        "    return orphan(x)\n"
    )
    caller = tmp_path / "bench.py"
    caller.write_text("from mod import frame_blocks, orphan\n\nframe_blocks(1)\n")
    assert uncalled_names([source], [caller]) == ["mod.py: Map.to_reference", "mod.py: orphan"]


def root_surplus(root_source: str, caller_sources: list[str]) -> list[str]:
    """Names the package root imports that no caller imports ``from quasitrace``."""
    wanted = {
        alias.name
        for source in caller_sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "quasitrace"
        for alias in node.names
    }
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.parse(root_source).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    return [name for name in bound if name not in wanted]


def test_root_exports_only_what_perfbench_imports():
    """The package root is no second home for a name: it re-exports what perfbench imports from it, no more."""
    callers = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert root_surplus((PACKAGE / "__init__.py").read_text(), callers) == []


def test_check_sees_a_surplus_root_name():
    root = '"""Doc."""\n\nfrom .geometry import Sphere, frame_at\nfrom .elements import mixed_space as space\nimport numpy\n'
    callers = [
        "import quasitrace.cli as cli\nfrom quasitrace import Sphere\n",
        "from quasitrace.geometry import frame_at\nfrom quasitrace import space\n",
    ]
    assert root_surplus(root, callers) == ["frame_at", "numpy"]


def is_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or the same through ``dataclasses.``."""
    target = node.func if isinstance(node, ast.Call) else node
    return (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")) == "dataclass"


def unread_fields(sources: list[Path], readers: list[Path]) -> list[str]:
    """Annotated fields of the top-level dataclasses in ``sources`` that no code in ``sources`` or ``readers`` reads.

    A read is an attribute in load context spelled like the field, inside
    or outside its class; a constructor keyword or an assignment is a
    write.  The scan is by name, not by type: a field that shares its name
    with any attribute read elsewhere passes (``RawTraceSurface.values``
    would pass on ``RhsField.values``, ``MeshStats.n_edges`` on
    ``TraceMesh.n_edges``), so a pass is necessary, not sufficient.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in [*sources, *readers]}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for path in sources:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or not any(map(is_dataclass_decorator, cls.decorator_list)):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in reads:
                        found.append(f"{cls.name}.{item.target.id}")
    return found


# Fields stored for the planned machine-readable run sidecar (``study.json``
# in ROADMAP.md), which will read them.  The list can only shrink: the guard
# fails when a listed field gains a reader or is gone, and when any other
# field has no reader.
AWAITING_READER = ("LevelRecord.rhs_mean_correction",)


def test_every_dataclass_field_has_a_reader():
    """No stored data that no consumer reads: each field is read by the pipeline or by perfbench."""
    unread = unread_fields(sorted(PACKAGE.glob("*.py")), sorted(PERFBENCH.glob("*.py")))
    assert [name for name in unread if name not in AWAITING_READER] == []
    # a listed field that is read now, or no longer exists, leaves the list
    assert [name for name in AWAITING_READER if name not in unread] == []


def test_check_sees_an_unread_field(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Stats:\n"
        "    h: float\n"
        "    n_edges: int\n"
        "    gap: float\n"
        "    LIMIT = 3\n\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.h\n\n"
        "@dataclass\n"
        "class Raw:\n"
        "    values: object\n"
        "    unused: object\n\n"
        "class Plain:\n"
        "    width: int\n\n"
        "def stats(mesh):\n"
        "    return Stats(h=mesh.h, n_edges=mesh.n_edges, gap=0.0)\n"
    )
    reader = tmp_path / "bench.py"
    reader.write_text("s = stats(mesh)\ns.gap = 1.0\nprint(s.size, rhs.values)\n")
    # n_edges passes on mesh.n_edges and values on rhs.values: the scan is by name
    assert unread_fields([source], [reader]) == ["Stats.gap", "Raw.unused"]
