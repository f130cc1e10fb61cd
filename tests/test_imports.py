"""No module imports a name it never uses.

This is pyflakes' unused-import check (F401) done with ``ast``, since the
test dependencies include no linter.  A name an import binds must occur as a
name somewhere in the module; an attribute chain ``a.b.c`` counts as a use
of ``a``.  ``from __future__`` imports and lines marked ``# noqa: F401`` are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kconnkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math, random\n"
        "from json import dumps as d, loads  # noqa: F401\n"
        "from itertools import (\n"
        "    chain as c,\n"
        "    count,  # noqa: F401\n"
        ")\n"
        "print(os.sep, math.pi)\n"
    )
    assert unused_imports(source) == [(3, "random"), (6, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
