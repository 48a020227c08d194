"""Every statement of ``src`` has a run of the program that reaches it.

``reach_traffic.py`` runs what ``run_study``, ``main`` and perfbench run,
under a line trace, in a fresh process.  Each statement in a function body
of the package must be among the reached lines, except docstrings,
statements inside a raise (a ``raise``, and every statement of an ``if``,
``else`` or ``except`` block that ends in one) and the statements of
``REACHED_BY_TESTS``, which no input of the program reaches and a tier-1
test does.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import quasitrace

PACKAGE = Path(quasitrace.__file__).parent
TESTS = Path(__file__).resolve().parent

# Statement -> the test that reaches it.  The list can only shrink: the
# guard fails when a listed statement is reached by the traffic or is gone,
# and when its test does not exist.
REACHED_BY_TESTS = {
    "assembly.py build_rhs: warnings.warn(": "test_assembly.py::TestRhs::test_warns_on_incompatible_source",
    'assembly.py _record_residuals: warnings.warn(f"discrete equations satisfied only to {worst:.3e} '
    '(ill-conditioned {what})", stacklevel=3)': "test_assembly.py::TestBlockResiduals::test_perturbed_solution_warns",
    'cli.py main: print(f"error: {exc}", file=sys.stderr)': "test_cli.py::TestMain::test_unusable_out_exits_1",
    "cli.py main: return 1": "test_cli.py::TestMain::test_unusable_out_exits_1",
    "postprocess_errors.py eoc: rates.append(None)": "test_postprocess_errors.py::TestEoc::test_zero_error_marks_undefined",
}


def _ends_in_raise(block: list[ast.stmt]) -> bool:
    return bool(block) and isinstance(block[-1], ast.Raise)


def _block_statements(block: list[ast.stmt], qualname: str):
    """(qualname, statement) of ``block`` and of the blocks nested in it, raises left out."""
    for stmt in block:
        if isinstance(stmt, ast.Raise):
            continue
        yield qualname, stmt
        if isinstance(stmt, ast.FunctionDef):
            yield from _function_statements(stmt, f"{qualname}.{stmt.name}")
            continue
        for name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, name, [])
            if not (isinstance(stmt, ast.If) and _ends_in_raise(inner)):
                yield from _block_statements(inner, qualname)
        for handler in getattr(stmt, "handlers", []):
            if not _ends_in_raise(handler.body):
                yield from _block_statements(handler.body, qualname)


def _functions(tree: ast.Module):
    """(function, qualname) of the top-level functions and of the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, node.name
        elif isinstance(node, ast.ClassDef):
            yield from ((item, f"{node.name}.{item.name}") for item in node.body if isinstance(item, ast.FunctionDef))


def _function_statements(func: ast.FunctionDef, qualname: str):
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    yield from _block_statements(body, qualname)


def _statement_lines(stmt: ast.stmt) -> range:
    """Lines whose trace event means ``stmt`` ran: a compound statement's header, a simple statement's span."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    last = max(first, body[0].lineno - 1) if isinstance(body, list) else stmt.end_lineno
    return range(first, last + 1)


def unreached(sources: dict[str, str], reached: dict[str, set[int]]) -> list[tuple[str, str]]:
    """(key, finding) of each statement in a function body whose lines were not reached.

    The key is ``"<file> <function>: <first line>"``, the finding the same
    with the line number after the file name.
    """
    found = []
    for name, source in sources.items():
        lines = source.splitlines()
        for func, qualname in _functions(ast.parse(source)):
            for owner, stmt in _function_statements(func, qualname):
                if not reached.get(name, set()).intersection(_statement_lines(stmt)):
                    text = lines[stmt.lineno - 1].strip()
                    found.append((f"{name} {owner}: {text}", f"{name}:{stmt.lineno} {owner}: {text}"))
    return found


def defined_tests(test_sources: dict[str, str]) -> set[str]:
    """``file::function`` and ``file::Class::method`` of every test defined in ``test_sources``."""
    ids = set()
    for name, source in test_sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                ids.add(f"{name}::{node.name}")
            elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                ids |= {f"{name}::{node.name}::{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name.startswith("test")}
    return ids


def reach_faults(sources: dict[str, str], reached: dict[str, set[int]], allowlist: dict[str, str],
                 test_sources: dict[str, str]) -> list[str]:
    """Unreached statements off the allowlist, stale allowlist entries, and entries naming no test."""
    missed = unreached(sources, reached)
    faults = [finding for key, finding in missed if key not in allowlist]
    faults += [f"stale entry, reached or gone: {key}" for key in allowlist if key not in dict(missed)]
    tests = defined_tests(test_sources)
    faults += [f"no test {test} for: {key}" for key, test in allowlist.items() if test not in tests]
    return faults


def read_sources(directory: Path, pattern: str) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(directory.glob(pattern))}


def test_every_statement_is_reached(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, str(TESTS / "reach_traffic.py"), str(tmp_path)], env=env, check=True)
    reached = {name: set(lines) for name, lines in json.loads((tmp_path / "reached.json").read_text()).items()}
    faults = reach_faults(read_sources(PACKAGE, "*.py"), reached, REACHED_BY_TESTS, read_sources(TESTS, "test_*.py"))
    assert faults == [], "\n".join(faults)


PLANTED = '''\
def f(x):
    """Doc."""
    if x < 0:
        y = -x
        raise ValueError(y)
    if x == 0:
        return 0
    return x
'''


def test_check_sees_an_unreached_statement():
    # the docstring and the raise block count as reached
    assert reach_faults({"mod.py": PLANTED}, {"mod.py": {3, 6, 8}}, {}, {}) == ["mod.py:7 f: return 0"]
    assert reach_faults({"mod.py": PLANTED}, {"mod.py": {3, 6, 7, 8}}, {}, {}) == []


def test_check_sees_a_stale_entry():
    allowlist = {"mod.py f: return 0": "test_mod.py::test_zero"}
    tests = {"test_mod.py": "def test_zero():\n    assert f(0) == 0\n"}
    assert reach_faults({"mod.py": PLANTED}, {"mod.py": {3, 6, 8}}, allowlist, tests) == []
    assert reach_faults({"mod.py": PLANTED}, {"mod.py": {3, 6, 7, 8}}, allowlist, tests) == [
        "stale entry, reached or gone: mod.py f: return 0"
    ]


def test_check_sees_an_entry_naming_no_test():
    allowlist = {"mod.py f: return 0": "test_mod.py::TestF::test_zero"}
    tests = {"test_mod.py": "def test_zero():\n    assert f(0) == 0\n"}
    assert reach_faults({"mod.py": PLANTED}, {"mod.py": {3, 6, 8}}, allowlist, tests) == [
        "no test test_mod.py::TestF::test_zero for: mod.py f: return 0"
    ]
