"""Every size guard in ``src/kconnkit/`` names its budget the same way.

A ``raise SizeGuardError(...)`` must pass one f-string that contains
``_MAX_X = {_MAX_X}``, where ``_MAX_X`` is assigned at module level in the
same module.  So every oversized search reports which constant stopped it and
that constant's value.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "kconnkit").glob("*.py"))


def _names_its_budget(call: ast.Call, budgets: set[str]) -> bool:
    if len(call.args) != 1 or call.keywords or not isinstance(call.args[0], ast.JoinedStr):
        return False
    pieces = call.args[0].values
    for text, value in zip(pieces, pieces[1:]):
        if not (isinstance(text, ast.Constant) and isinstance(value, ast.FormattedValue)):
            continue
        named = re.search(r"(_MAX_[A-Z0-9_]+) = $", text.value)
        if (
            named
            and isinstance(value.value, ast.Name)
            and value.value.id == named.group(1) in budgets
            and value.conversion == -1
            and value.format_spec is None
        ):
            return True
    return False


def size_guards(source: str) -> list[tuple[int, bool]]:
    """Each ``raise SizeGuardError(...)`` statement as (line, whether it names
    a module-level ``_MAX_*`` budget with its value)."""
    tree = ast.parse(source)
    budgets = {
        t.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name) and t.id.startswith("_MAX_")
    }
    return sorted(
        (node.lineno, _names_its_budget(node.exc, budgets))
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "SizeGuardError"
    )


def bad_size_guards(source: str) -> list[int]:
    return [line for line, ok in size_guards(source) if not ok]


def test_bad_size_guards_are_found():
    source = (
        "_MAX_N = 8\n"
        "_MAX_STEPS: int = 10\n"
        "def f(n):\n"
        "    _MAX_LOCAL = 3\n"
        "    if n > _MAX_N:\n"
        "        raise SizeGuardError(f'n <= _MAX_N = {_MAX_N}')\n"
        "    if n > _MAX_STEPS:\n"
        "        raise SizeGuardError(\n"
        "            f'more than '\n"
        "            f'_MAX_STEPS = {_MAX_STEPS} steps'\n"
        "        )\n"
        "    raise SizeGuardError('n <= _MAX_N = 8')\n"
        "    raise SizeGuardError(f'n <= {_MAX_N}')\n"
        "    raise SizeGuardError(f'n <= _MAX_STEPS = {_MAX_N}')\n"
        "    raise SizeGuardError(f'n <= _MAX_LOCAL = {_MAX_LOCAL}')\n"
        "    raise SizeGuardError(f'n <= _MAX_N = {_MAX_N!r}')\n"
        "    raise SizeGuardError()\n"
    )
    assert bad_size_guards(source) == [12, 13, 14, 15, 16, 17]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_size_guards_name_their_budget(path):
    assert bad_size_guards(path.read_text()) == []


def test_every_guard_is_checked():
    """No guard escapes the lint by being spelled another way, and today's
    four are all there."""
    texts = [path.read_text() for path in MODULES]
    spelled = sum(len(re.findall(r"(?<!class )SizeGuardError\(", t)) for t in texts)
    checked = sum(len(size_guards(t)) for t in texts)
    assert checked == spelled >= 4
