"""No module imports a name it never uses.

This is pyflakes' unused-import check (F401) done with ``ast``, since the
test dependencies include no linter.  A name an import binds must occur as a
name somewhere in the module; an attribute chain ``a.b.c`` counts as a use
of ``a``.  ``from __future__`` imports and lines marked ``# noqa: F401`` are
exempt.  In ``src/`` that mark may exempt only a name that
``perfbench/tracing.py`` wraps on that module (``_LAYER_TARGETS``), so a
shim the tracer no longer wraps is flagged.
"""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "kconnkit").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"


@functools.cache
def _scan(source: str) -> tuple[tuple[tuple[int, str, bool], ...], frozenset[str]]:
    """(line, bound name, marked ``# noqa: F401``) of every import, and every
    name that occurs; one parse per source text."""
    lines = source.splitlines()
    found, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                noqa = "# noqa: F401" in lines[alias.lineno - 1]
                found.append((alias.lineno, alias.asname or alias.name.split(".")[0], noqa))
    return tuple(found), frozenset(used)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never uses."""
    found, used = _scan(source)
    return [(line, name) for line, name, noqa in found if not noqa and name not in used]


def stale_exemptions(source: str, wrapped: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every ``# noqa: F401`` import outside ``wrapped``."""
    return [(line, name) for line, name, noqa in _scan(source)[0] if noqa and name not in wrapped]


@functools.cache
def _tracer_targets() -> tuple[tuple[str, str], ...]:
    """(module name, attribute) of every target of the benchmark's tracer,
    loaded once."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tuple((owner.__name__, attr) for owner, attr, _ in tracing._LAYER_TARGETS)


def wrapped_names(module: str) -> set[str]:
    """The attributes of ``kconnkit.<module>`` the benchmark's tracer wraps."""
    return {attr for owner, attr in _tracer_targets() if owner == f"kconnkit.{module}"}


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


def test_stale_exemptions_are_found():
    # a tracer that stops wrapping menger leaves its shim import stale, and a
    # mark on a shared line exempts every name on it
    source = (
        "from .graph_core import menger, menger_count  # noqa: F401\n"
        "from .graph_core import Graph, _bits  # noqa: F401\n"
        "print(Graph, _bits)\n"
    )
    assert stale_exemptions(source, {"menger", "menger_count"}) == [(2, "Graph"), (2, "_bits")]
    assert stale_exemptions(source, {"menger_count"}) == [(1, "menger"), (2, "Graph"), (2, "_bits")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_noqa_exempts_only_tracer_shims(path):
    assert stale_exemptions(path.read_text(), wrapped_names(path.stem)) == []
