"""Import hygiene: every name a package module imports is used in it.

No linter ships with the test extras, so this walks each module's syntax
tree. An import whose line carries ``# noqa`` is exempt: it is loaded for
its side effect. Names listed in ``__all__`` count as used, so re-exports
pass.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tokenomics"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # a read of the name; a field or variable of the same name does not count
    used = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy  # noqa: F401\n"
        "@dataclass\n"
        "class A:\n"
        "    field: int\n"
    )
    assert unused_imports(source) == ["field (line 1)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
