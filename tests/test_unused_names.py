"""No module of ``src/kconnkit/`` defines a name that nothing uses.

A module-level ``_name`` (function, class or assignment; dunders exempt)
counts as used when some module of the package loads it, as a bare name or
as an attribute, outside its own definition.  So a helper that only calls
itself, or is only imported, is dead.

A public module-level name counts as used when some top-level statement of
``src/``, ``tests/`` or ``perfbench/`` other than its own definition loads
it, as a name or an attribute, or imports it.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kconnkit").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


@functools.cache
def _statements(source: str) -> tuple[tuple[int, list[str], frozenset[str], frozenset[str]], ...]:
    """(line, names defined, names loaded, names imported) of each top-level
    statement of ``source``: a name loads as a bare name or as an attribute.
    Cached per source text, so all checks share one parse and walk of a file
    and keep no syntax tree."""
    out = []
    for node in ast.parse(source).body:
        loaded, imported = set(), set()
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute):
                loaded.add(n.attr)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.ImportFrom):
                imported.update(a.name for a in n.names)
        out.append((node.lineno, _defined(node), frozenset(loaded), frozenset(imported)))
    return tuple(out)


def _unused(sources: dict[str, str], module: str, public: bool) -> list[tuple[int, str]]:
    """(line, name) of every private (or public) name ``module`` defines and
    no top-level statement in ``sources`` uses outside its own definition;
    an import counts as a use of a public name only."""
    tops = [
        (mod, line, defined, loaded | imported if public else loaded)
        for mod, src in sources.items()
        for line, defined, loaded, imported in _statements(src)
    ]
    dead = []
    for i, (mod, line, defined, _) in enumerate(tops):
        if mod != module:
            continue
        for name in defined:
            if name.startswith("__") or name.startswith("_") == public:
                continue
            if not any(name in names for j, (_, _, _, names) in enumerate(tops) if j != i):
                dead.append((line, name))
    return dead


def dead_private_names(sources: dict[str, str], module: str) -> list[tuple[int, str]]:
    """(line, name) of every private name ``module`` defines and no module
    in ``sources`` loads outside that name's own definition."""
    return _unused(sources, module, public=False)


def unused_public_names(sources: dict[str, str], module: str) -> list[tuple[int, str]]:
    """(line, name) of every public name ``module`` defines and no file in
    ``sources`` loads or imports outside that name's own definition."""
    return _unused(sources, module, public=True)


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


def test_unused_public_names_are_found():
    sources = {
        "pkg/a.py": (
            "def used():\n"
            "    return CONST\n"
            "def unused():\n"
            "    pass\n"
            "def rec(n):\n"
            "    return rec(n - 1)\n"
            "class Attr:\n"
            "    pass\n"
            "CONST = 1\n"
            "IMPORTED = 2\n"
            "SPARE: int = 3\n"
            "_private = 4\n"
        ),
        "tests/t.py": "import a\nfrom a import IMPORTED as alias\nused()\na.Attr()\n",
    }
    assert unused_public_names(sources, "pkg/a.py") == [(3, "unused"), (5, "rec"), (11, "SPARE")]
    assert unused_public_names(sources, "tests/t.py") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_public_names(path):
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert unused_public_names(sources, str(path.relative_to(ROOT))) == []
