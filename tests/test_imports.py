"""Import hygiene and dead code: every name a package module imports is
used in it, every module-level function and constant, and every public
method or property of a module-level class, is read somewhere in the
package, and
the grid oracles import no solver module, and which private names a
module imports from another is pinned. Also what a fresh interpreter
loads: ``import tokenomics`` no submodule, each CLI subcommand only the
modules it runs, and none of them ``dataclasses``.

No linter ships with the test extras, so this walks each module's syntax
tree. An import whose line carries ``# noqa`` is exempt: it is loaded for
its side effect. Names listed in ``__all__``, the keys of the package's
``_MODULE_OF`` table, count as used, so re-exports and the public API pass.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tokenomics"
CONFIGS = SRC.parents[1] / "configs"


def public_names(node: ast.stmt) -> set[str]:
    """The names of ``__all__`` if node is the package's table of them, the
    ``_MODULE_OF`` dict literal whose sorted keys ``__all__`` is; else none."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_MODULE_OF" for t in node.targets
    ):
        return set(ast.literal_eval(node.value))
    return set()


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
        used |= public_names(node)
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


#: module-level functions that the interpreter calls (PEP 562), so no
#: package module reads them by name
MODULE_HOOKS = {"__getattr__"}


def names_read(node: ast.AST) -> set[str]:
    """The names node reads, by name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def unread_definitions(sources: dict[str, str], defines) -> list[str]:
    """The module-level names defines(statement) gives that no module
    reads outside the statement defining them, that no ``__all__`` lists,
    and that are not in MODULE_HOOKS."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = defines(node)
            defined.extend((module, name) for name in names)
            # a recursive call, or a name read where it is assigned, is no reader
            read |= (names_read(node) - set(names)) | public_names(node)
    return sorted(
        f"{module}:{name}" for module, name in defined if name not in read | MODULE_HOOKS
    )


def unread_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions that no module reads outside their own body."""
    return unread_definitions(
        sources, lambda node: [node.name] if isinstance(node, ast.FunctionDef) else [])


def assigned_names(node: ast.stmt) -> list[str]:
    """The names a module-level assignment binds, dunders such as
    ``__all__`` aside (the interpreter reads those)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        n.id for t in targets for n in ast.walk(t)
        if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))
    ]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level constants (every name a module-level assignment binds)
    that no module reads outside their own assignment."""
    return unread_definitions(sources, assigned_names)


def test_detector_flags_an_unread_function():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef dead():\n    return dead()\n",
        "b.py": "from a import used\n\nX = used()\n",
    }
    assert unread_functions(sources) == ["a.py:dead"]


def test_detector_reads_the_public_names_from_the_module_table():
    sources = {
        "__init__.py": '_MODULE_OF = {"api": "a"}\n__all__ = sorted(_MODULE_OF)\n',
        "a.py": "def api():\n    return 1\n\ndef dead():\n    return 2\n",
    }
    assert unread_functions(sources) == ["a.py:dead"]


def test_every_function_is_read():
    assert unread_functions({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_detector_flags_an_unread_constant():
    sources = {
        "a.py": (
            "import logging\n"
            "LIMIT = 3\n"
            "TINY, HUGE = 1e-300, 1e300\n"
            "STEPS: int = 2\n"
            "DEAD = [DEAD] if False else []\n"
            "__all__ = ['f']\n"
            "log = logging.getLogger(__name__)\n"
            "def f(x):\n    return min(x, LIMIT) * TINY\n"
        ),
        "b.py": "import a\n\na.log.info(a.STEPS)\nCOPY = a.LIMIT\n",
    }
    assert unread_constants(sources) == ["a.py:DEAD", "a.py:HUGE", "b.py:COPY"]


def test_every_constant_is_read():
    assert unread_constants({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


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


def private_imports(sources: dict[str, str]) -> dict[tuple[str, str], set[str]]:
    """The private names (one leading underscore) that each module imports
    from another package module, anywhere in it: (importer, source) -> names."""
    found: dict[tuple[str, str], set[str]] = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                names = {a.name for a in node.names
                         if a.name.startswith("_") and not a.name.startswith("__")}
                if names:
                    found.setdefault((module, node.module), set()).update(names)
    return found


def test_detector_lists_private_imports():
    sources = {
        "a": "from ._roots import find_log_root\nfrom .b import _kernel, public\n",
        "c": "def f():\n    from .b import _kernel\n    from . import b\n    from .b import __all__\n",
    }
    assert private_imports(sources) == {("a", "b"): {"_kernel"}, ("c", "b"): {"_kernel"}}


def test_private_names_cross_modules_only_where_pinned():
    # the market kernel is first_best's and equilibrium clears through it;
    # the rtsafe step rule is _roots', and equilibrium's burn identity steps
    # by it; the sweep grid is welfare's, and cli and verify build sweeps
    # with it. A new reach into another module's private names must be
    # added here.
    assert private_imports({p.stem: p.read_text() for p in SRC.glob("*.py")}) == {
        ("equilibrium", "first_best"): {"_clear_blockspace", "_clear_demands"},
        ("equilibrium", "_roots"): {"_rtsafe_step"},
        ("cli", "welfare"): {"_grid"},
        ("verify", "welfare"): {"_grid"},
    }


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_detector_lists_absolute_imports():
    source = (
        "import os.path, json\n"
        "from . import econ_core\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
    )
    assert absolute_imports(source) == {"os", "json", "dataclasses"}


def test_no_module_imports_dataclasses():
    # records are NamedTuples: importing dataclasses, and the methods it
    # generates with exec, cost every CLI process several milliseconds
    assert [p.name for p in SRC.glob("*.py") if "dataclasses" in absolute_imports(p.read_text())] == []


def test_no_module_imports_cli():
    # under `python -m tokenomics.cli` the CLI runs as __main__, so importing
    # tokenomics.cli would compile and run it a second time
    assert [p.name for p in SRC.glob("*.py") if "cli" in runtime_package_imports(p.read_text())] == []


# ---------------------------------------------------------------------------
# what a fresh interpreter loads
# ---------------------------------------------------------------------------


def loaded_after(code: str) -> set[str]:
    """The modules in sys.modules after a fresh interpreter runs code, which
    must end by printing those it names on the last line of stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


PRINT_LOADED = (
    "print(*(m for m in sys.modules if m.partition('.')[0] in ('tokenomics', 'dataclasses')))\n"
)


def test_import_tokenomics_loads_no_submodule():
    assert loaded_after("import sys, tokenomics\n" + PRINT_LOADED) == {"tokenomics"}


@pytest.mark.parametrize(
    "argv, runs, unloaded",
    [
        (["path", "--rule", "fixed_supply", "--M0", "100", "--T", "3"], "policy",
         {"cli", "welfare", "oracle", "verify"}),
        (["scenario", "--regime", "deterministic", "--theta", "0.02"], "welfare",
         {"cli", "policy", "verify"}),
        (["sweep", "--regime", "deterministic", "--theta-max", "0.1", "--points", "3"],
         "welfare", {"cli", "policy", "verify"}),
        (["verify"], "verify", {"cli", "policy"}),
    ],
    ids=["path", "scenario", "sweep", "verify"],
)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, runs, unloaded, tmp_path):
    # runpy runs the CLI as `python -m tokenomics.cli` does: as __main__,
    # so tokenomics.cli is in sys.modules only if some module imports it
    argv = [*argv, "--config", str(CONFIGS / "deterministic.json"), "--out", str(tmp_path)]
    loaded = loaded_after(
        "import runpy, sys\n"
        f"sys.argv = ['tokenomics', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('tokenomics.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + PRINT_LOADED
    )
    assert f"tokenomics.{runs}" in loaded
    assert loaded & {f"tokenomics.{m}" for m in unloaded} == set()
    assert "dataclasses" not in loaded


def test_every_public_name_and_submodule_resolves_and_is_bound():
    loaded = loaded_after(
        "import pathlib, sys, tokenomics\n"
        "assert sorted(tokenomics.__all__) == sorted(tokenomics._MODULE_OF)\n"
        "modules = [p.stem for p in pathlib.Path(tokenomics.__file__).parent.glob('*.py')]\n"
        "assert sorted(tokenomics._SUBMODULES) == sorted(set(modules) - {'__init__'})\n"
        "for name in [*tokenomics.__all__, *tokenomics._SUBMODULES]:\n"
        "    value = getattr(tokenomics, name)\n"
        "    assert vars(tokenomics)[name] is value, name\n"
        "assert tokenomics.evaluate is tokenomics.welfare.evaluate\n"
        "assert tokenomics.proposition_report is tokenomics.verify.proposition_report\n"
        "assert tokenomics.certify is tokenomics.verify.certify\n"
        "assert tokenomics.shock_foc_residual is tokenomics.welfare.shock_foc_residual\n"
        + PRINT_LOADED
    )
    assert loaded == {f"tokenomics.{p.stem}" for p in SRC.glob("*.py")} - {
        "tokenomics.__init__"} | {"tokenomics"}


def test_an_unknown_name_raises_attribute_error_and_loads_nothing():
    loaded = loaded_after(
        "import sys, tokenomics\n"
        "for name in ('no_such_name', '__wrapped__', 'Regime'):\n"
        "    try:\n"
        "        getattr(tokenomics, name)\n"
        "    except AttributeError as exc:\n"
        "        assert repr(name) in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
        + PRINT_LOADED
    )
    assert loaded == {"tokenomics"}
