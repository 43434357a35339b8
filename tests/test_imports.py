"""Import hygiene and dead code: every name a package module imports is
used in it, every module-level function, and every public method or
property of a module-level class, is read somewhere in the package, and
the grid oracles import no solver module.

No linter ships with the test extras, so this walks each module's syntax
tree. An import whose line carries ``# noqa`` is exempt: it is loaded for
its side effect. Names listed in ``__all__`` count as used, so re-exports
and the public API pass.
"""

import ast
from collections import Counter
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


def unread_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions that no module reads, by name or as an
    attribute, outside their own body, and that no ``__all__`` lists."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                or isinstance(n, ast.Attribute)
            }
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name))
                names.discard(node.name)  # a recursive call is no caller
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= set(ast.literal_eval(node.value))
            read |= names
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_detector_flags_an_unread_function():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef dead():\n    return dead()\n",
        "b.py": "from a import used\n\nX = used()\n",
    }
    assert unread_functions(sources) == ["a.py:dead"]


def test_every_function_is_read():
    assert unread_functions({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


#: methods that a base class calls, so no package module reads them by name
HOOKS = {"_Parser.error"}


def attribute_reads(node: ast.AST) -> Counter:
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def unread_methods(sources: dict[str, str]) -> list[str]:
    """Public methods and properties of module-level classes that no module
    reads as an attribute outside their own body, HOOKS aside."""
    defined: list[tuple[str, str, ast.FunctionDef]] = []
    reads: Counter = Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        reads += attribute_reads(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined.extend(
                    (module, cls.name, node)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                )
    return sorted(
        f"{module}:{cls}.{fn.name}"
        for module, cls, fn in defined
        if f"{cls}.{fn.name}" not in HOOKS and reads[fn.name] <= attribute_reads(fn)[fn.name]
    )


def test_detector_flags_an_unread_method():
    sources = {
        "a.py": (
            "class A:\n"
            "    def used(self):\n        return 1\n"
            "    @property\n    def dead(self):\n        return self.dead\n"
            "    def _private(self):\n        return 2\n"
            "class _Parser:\n"
            "    def error(self):\n        return 3\n"
        ),
        "b.py": "from a import A\n\nX = A().used()\n",
    }
    assert unread_methods(sources) == ["a.py:A.dead"]


def test_every_method_is_read():
    assert unread_methods({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def runtime_package_imports(source: str) -> set[str]:
    """Package modules a module imports when it loads: its relative imports
    outside ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(source)
    type_only = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for n in ast.walk(node)
    }
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in type_only:
            modules |= {node.module} if node.module else {a.name for a in node.names}
    return modules


def test_detector_lists_runtime_package_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import econ_core as ec\n"
        "from .errors import OracleError\n"
        "if TYPE_CHECKING:\n"
        "    from .equilibrium import SteadyStateEquilibrium\n"
    )
    assert runtime_package_imports(source) == {"econ_core", "errors"}


def test_oracle_imports_no_solver():
    # the oracles cross-check the solvers, so they share no solution logic
    # with them: only the primitives and the error types
    source = (SRC / "oracle.py").read_text()
    assert runtime_package_imports(source) == {"econ_core", "errors"}
