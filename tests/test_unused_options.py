"""Every parameter with a default in ``src/`` is passed by some call.

A parameter with a default that no call in ``src/`` or ``perfbench/``
passes, by keyword or by position, is an option nothing uses: its default is
the only value that runs, so the parameter and the code it selects can go.
Calls in tests do not count.  Calls are matched by name (``f(...)`` and
``x.f(...)``); one that unpacks ``*args`` or ``**kwargs`` passes everything,
and a call of a method skips its receiver.
"""

import ast
import collections
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kconnkit").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _calls(sources: list[str]) -> dict[str, list[ast.Call]]:
    calls = collections.defaultdict(list)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    return calls


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (index is not None and len(call.args) > index) or any(k.arg == name for k in call.keywords)


@functools.cache
def _repo_calls() -> dict[str, list[ast.Call]]:
    return _calls([p.read_text() for p in CALLERS])


def unused_options(definitions: str, calls: dict[str, list[ast.Call]]) -> list[tuple[int, str]]:
    """(line, "function.parameter") of every parameter with a default of a
    function in ``definitions`` that no call in ``calls`` passes."""
    tree = ast.parse(definitions)
    methods = {
        id(f)
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if isinstance(f, ast.FunctionDef)
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        receiver = 1 if id(node) in methods else 0
        first = len(positional) - len(args.defaults)
        options = [(i - receiver, p) for i, p in enumerate(positional) if i >= first]
        options += [(None, p) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        unused += [
            (p.lineno, f"{node.name}.{p.arg}")
            for index, p in options
            if not any(_passes(call, index, p.arg) for call in calls[node.name])
        ]
    return sorted(unused)


def test_unused_options_are_found():
    definitions = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "def g(x=0):\n"
        "    pass\n"
        "def h(y=0):\n"
        "    pass\n"
        "class C:\n"
        "    def m(self, v=1, w=2):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(v=1, w=2):\n"
        "        pass\n"
        "def unused(z=0):\n"
        "    pass\n"
    )
    callers = ["f(1, 2, e=5)\ng(*args)\nobj.m(1)\n", "C.s(1)\nh(**kw)\n"]
    assert unused_options(definitions, _calls(callers)) == [
        (1, "f.c"),
        (1, "f.d"),
        (8, "m.w"),
        (11, "s.w"),
        (13, "unused.z"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_options(path):
    assert unused_options(path.read_text(), _repo_calls()) == []
