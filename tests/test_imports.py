"""Package structure: modules share only public names, the ``CONFINED``
table names the functions that may use each of a few names (the moments per
edge, facet rule points, sparse factors, dense inverses and eigensolvers,
facet maps, heap trims), every public name has a caller in the pipeline or
the benchmark, the package root re-exports only what the benchmark imports
from it, every dataclass field has a reader there, and every dataclass is
frozen."""

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


# Where each name may be used: the qualified names of the functions that
# may use it, nested functions included.  A key ending in ``*`` covers every
# name with that prefix.
CONFINED = {
    # one function numbers and signs the edge moments; the others call ``edge_dofs``
    "moments_per_edge": ("MixedSpace.__init__", "edge_dofs"),
    # a facet rule's physical points are formed one facet block at a time
    "points": ("point_blocks",),
    "to_physical": ("point_blocks",),
    # one helper factors a sparse matrix and refines with the factor, checking the result
    "splu": ("_refined_solve",),
    "solve": ("_refined_solve",),
    # dense inverses only of the dof matrix and the local blocks; the 3x3
    # geometry kernels are closed forms, with no eigensolve anywhere
    "inv": ("MixedSpace.__init__", "condense_and_assemble"),
    "eig*": (),
    # a mesh builds its facet maps once, with its other arrays
    "from_triangles": ("TraceMesh.from_arrays",),
    # one helper returns freed heap pages to the system
    "malloc_trim": ("release_free_memory",),
}


def confined_uses(path: Path) -> list[str]:
    """Uses of a ``CONFINED`` name in one source file outside the functions its entry allows.

    A use is an attribute spelled like the name or a call of the bare name.
    """
    found = []

    def visit(node: ast.AST, qualname: str, scopes: frozenset[str]):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
            scopes |= {qualname}
        name = node.attr if isinstance(node, ast.Attribute) else ""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
        for key, allowed in CONFINED.items():
            matches = name.startswith(key[:-1]) if key.endswith("*") else name == key
            if name and matches and scopes.isdisjoint(allowed):
                found.append(f"{path.name}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, qualname, scopes)

    visit(ast.parse(path.read_text(), filename=str(path)), "", frozenset())
    return found


def test_confined_names_used_only_where_allowed():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in confined_uses(path)]
    assert offenders == []


def test_check_sees_a_misplaced_use(tmp_path):
    """Each key has one use inside a function it allows, which passes, and one outside, which fails."""
    source = tmp_path / "mod.py"
    source.write_text(
        "class MixedSpace:\n"
        "    def __init__(self, name):\n"
        "        self.moments_per_edge = m = 2\n"
        "        self._coeff = np.linalg.inv(dof)\n\n"
        "class Frame:\n"
        "    def __init__(self, h):\n"
        "        self.resolvent = inv(h)\n\n"
        "def edge_dofs(mesh, space):\n"
        "    return space.moments_per_edge\n\n"
        "def point_blocks(mesh, rule):\n"
        "    return mesh.maps.to_physical(rule.points)\n\n"
        "def _refined_solve(matrix, rhs):\n"
        "    lu = splu(matrix)\n\n"
        "    def refine(x):\n"
        "        return x + lu.solve(rhs - matrix @ x)\n"
        "    return refine(lu.solve(rhs))\n\n"
        "def condense_and_assemble(k):\n"
        "    return np.linalg.inv(k)\n\n"
        "class TraceMesh:\n"
        "    def from_arrays(vertices, triangles):\n"
        "        return AffineMap.from_triangles(vertices[triangles])\n\n"
        "def release_free_memory():\n"
        "    malloc_trim(0)\n\n"
        "def mesh_stats(mesh, space, rule, k):\n"
        "    m = space.moments_per_edge\n"
        "    x = mesh.maps.to_physical(rule.points)\n"
        "    lu = scipy.sparse.linalg.splu(k)\n"
        "    y = lu.solve(x)\n"
        "    w = np.linalg.inv(k) @ np.linalg.eigh(k)[0] @ eigvals(k)\n"
        "    maps = AffineMap.from_triangles(mesh.corner_points())\n"
        "    ctypes.CDLL(None).malloc_trim(0)\n"
    )
    assert confined_uses(source) == [
        "mod.py:8 inv", "mod.py:34 moments_per_edge", "mod.py:35 to_physical", "mod.py:35 points",
        "mod.py:36 splu", "mod.py:37 solve", "mod.py:38 inv", "mod.py:38 eigh", "mod.py:38 eigvals",
        "mod.py:39 from_triangles", "mod.py:40 malloc_trim",
    ]


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


def unfrozen_dataclasses(path: Path) -> list[str]:
    """Top-level classes of ``path`` with a dataclass decorator that is not ``dataclass(frozen=True)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{cls.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for deco in cls.decorator_list
        if is_dataclass_decorator(deco)
        and not (
            isinstance(deco, ast.Call)
            and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                    for kw in deco.keywords)
        )
    ]


def test_every_dataclass_is_frozen():
    """Every record is built whole: no dataclass in the package can be written after construction."""
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in unfrozen_dataclasses(path)]
    assert offenders == []


def test_check_sees_an_unfrozen_dataclass(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Raw:\n"
        "    values: object\n\n"
        "@dataclass(eq=False)\n"
        "class System:\n"
        "    matrix: object\n\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Stats:\n"
        "    h: float\n\n"
        "class Plain:\n"
        "    width: int\n"
    )
    assert unfrozen_dataclasses(source) == ["mod.py:Raw", "mod.py:System"]
