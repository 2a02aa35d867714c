"""Every name a `trackfuse` module imports is used in that module.

No linter is installed, so this walks each module's syntax tree. The
package `__init__` only re-exports, and an import line marked
`# noqa: F401` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

import trackfuse

MODULES = sorted(p for p in Path(trackfuse.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no other node of `source`
    reads, except on lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_name_and_honours_the_marker():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from os import (\n    path,\n    sep,  # noqa: F401\n)\n"
              "from numpy import linalg as la\n"
              "x = la.norm\n")
    assert unused_imports(source) == [(2, "math"), (4, "path")]
