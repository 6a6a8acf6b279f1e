"""Static checks over the package's source, by `ast`.

Every name a module of the package imports is used in that module. No
linter ships with the project, so this stands in for the unused-import
check. `__init__` is exempt: it imports names to re-export them.

No module enlarges the interpreter's stack or recursion limit, so a
walk that recurses along a spine cannot pass for an iterative one.

`sim` imports from `terms` alone: the search, its witnesses and
`trace_to_term` need nothing of the verifier.

`__all__` of the package lists each name `__init__` imports, once.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import commcheck

ALL_MODULES = sorted(Path(commcheck.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
STACK_RESIZERS = {"setrecursionlimit", "stack_size"}  # of sys and threading


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_name():
    source = "from .terms import Comm, End\nimport enum\n\ndef f():\n    return End()\n"
    assert unused_imports(source) == ["1: Comm", "2: enum"]


def package_imports(source: str) -> list[str]:
    """The modules of the package that `source` imports from, in order."""
    return [
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_sim_imports_from_terms_alone():
    sim = Path(commcheck.__file__).parent / "sim.py"
    assert package_imports(sim.read_text()) == ["terms"]


def test_the_check_sees_each_package_import():
    source = "import re\nfrom .terms import Comm\nfrom .typestate import step\nfrom typing import Any\n"
    assert package_imports(source) == ["terms", "typestate"]


def stack_resizers(source: str) -> list[str]:
    """Uses of `sys.setrecursionlimit` or `threading.stack_size`, called
    or not, and imports of either name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STACK_RESIZERS:
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if a.name in STACK_RESIZERS]
            found += [f"{node.lineno}: {name}" for name in names]
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_resizes_the_stack(path):
    assert stack_resizers(path.read_text()) == []


def test_the_check_sees_a_stack_resizer():
    source = (
        "import sys\nimport threading\nfrom sys import setrecursionlimit as grow\n"
        "sys.setrecursionlimit(10**6)\nthreading.stack_size(1 << 27)\ngrow(10**6)\n"
    )
    assert stack_resizers(source) == [
        "3: setrecursionlimit",
        "4: setrecursionlimit",
        "5: stack_size",
    ]


def export_drift(source: str) -> list[str]:
    """Names `__all__` lists twice, lists without importing them, or
    leaves out though imported."""
    tree = ast.parse(source)
    imported = {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}
    exported = next(
        ast.literal_eval(n.value)
        for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["__all__"]
    )
    return (
        [f"twice: {n}" for n in sorted({n for n in exported if exported.count(n) > 1})]
        + [f"not imported: {n}" for n in sorted(set(exported) - imported)]
        + [f"not exported: {n}" for n in sorted(imported - set(exported))]
    )


def test_the_export_list_is_exactly_what_init_imports():
    assert export_drift(Path(commcheck.__file__).read_text()) == []


def test_the_check_sees_export_drift():
    source = "from .a import x, y\nfrom .b import w as v\n__all__ = ['x', 'v', 'x', 'z']\n"
    assert export_drift(source) == ["twice: x", "not imported: z", "not exported: y"]
