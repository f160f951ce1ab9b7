"""No module of the package imports a name it never uses.

A stdlib-ast check, since deleting code easily leaves its imports behind. A
name counts as used when the module reads it anywhere, as a bare name or as
the base of an attribute. An import statement whose first line carries
`# noqa: F401` is a deliberate re-export and is skipped, as is the package's
__init__, whose __all__ exports every name it imports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "peribond"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every imported name that source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\n"
              "import math  # noqa: F401\n"
              "import numpy as np\n"
              "@dataclass\nclass A:\n    x: float = np.pi\n")
    assert unused_imports(source) == [(1, "field")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
