"""No function in ``src/`` has a parameter it never reads.

A parameter counts as read when its name is loaded anywhere in the
function's body, nested functions and lambdas included.  ``self`` and
``cls`` are exempt, since a method such as ``__bool__`` may not need its
receiver, and so are parameters on a line marked ``# noqa``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kconnkit").glob("*.py"))


def unused_parameters(source: str) -> list[tuple[int, str]]:
    """(line, name) of every parameter its function never reads."""
    lines = source.splitlines()
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [
            p
            for p in params
            if p.arg not in read | {"self", "cls"} and "# noqa" not in lines[p.lineno - 1]
        ]
    return [(p.lineno, p.arg) for p in sorted(unused, key=lambda p: (p.lineno, p.col_offset))]


def test_unused_parameters_are_found():
    source = (
        "def f(a, b, *args, c, **kw):\n"
        "    return a + kw['x']\n"
        "def g(x,\n"
        "      y):  # noqa\n"
        "    def h(z=x):\n"
        "        return z\n"
        "    return h\n"
        "k = lambda p, q: p\n"
        "class C:\n"
        "    def m(self, v, w):\n"
        "        x = v\n"
    )
    assert unused_parameters(source) == [(1, "b"), (1, "args"), (1, "c"), (8, "q"), (10, "w")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
