"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this stands in for the unused-
import check. `__init__` is exempt: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import commcheck

MODULES = sorted(
    p for p in Path(commcheck.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
