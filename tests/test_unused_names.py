"""No module of ``src/kconnkit/`` defines a private name that nothing uses.

A module-level ``_name`` (function, class or assignment; dunders exempt)
counts as used when some module of the package loads it, as a bare name or
as an attribute, outside its own definition.  So a helper that only calls
itself, or is only imported, is dead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kconnkit").glob("*.py"))


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loaded(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    }


def dead_private_names(sources: dict[str, str], module: str) -> list[tuple[int, str]]:
    """(line, name) of every private name ``module`` defines and no module
    in ``sources`` loads outside that name's own definition."""
    tops = [(mod, node) for mod, src in sources.items() for node in ast.parse(src).body]
    loaded = [(node, _loaded(node)) for _, node in tops]
    dead = []
    for mod, node in tops:
        if mod != module:
            continue
        for name in _defined(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for other, names in loaded if other is not node):
                dead.append((node.lineno, name))
    return dead


def test_dead_private_names_are_found():
    sources = {
        "a": (
            "from b import _helper\n"
            "_used = 1\n"
            "_dead = 2\n"
            "def _rec(n):\n"
            "    return _rec(n - 1)\n"
            "def f():\n"
            "    return _used + b._attr()\n"
            "class _C:\n"
            "    def m(self):\n"
            "        return _C\n"
            "__all__ = ['f']\n"
        ),
        "b": "def _helper():\n    pass\ndef _attr():\n    pass\n_typed: int = 3\n",
    }
    assert dead_private_names(sources, "a") == [(3, "_dead"), (4, "_rec"), (8, "_C")]
    assert dead_private_names(sources, "b") == [(1, "_helper"), (5, "_typed")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_private_names(path):
    sources = {p.stem: p.read_text() for p in MODULES}
    assert dead_private_names(sources, path.stem) == []
