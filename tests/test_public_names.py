"""Every public name of the package has a caller outside its own module,
and no module imports or reads a private name from another."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oraclebench"
# check_advanced's return type: callers read its fields, not its name.
NO_CALLER_NEEDED = {"AdvancedCheck"}


def exported_names() -> dict[str, Path]:
    """Each name the package's __init__ imports, with the module defining it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: PACKAGE / f"{node.module}.py"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_exported_name_has_a_caller_outside_its_module() -> None:
    exports = exported_names()
    assert "Sample" in exports and exports["Sample"].name == "hypotheses.py"
    sources = {
        path: path.read_text()
        for folder in ("src", "demos", "tests")
        for path in (ROOT / folder).rglob("*.py")
        if path not in (PACKAGE / "__init__.py", Path(__file__).resolve())
    }
    uncalled = sorted(
        name
        for name, home in exports.items()
        if name not in NO_CALLER_NEEDED
        and not any(re.search(rf"\b{name}\b", text) for path, text in sources.items() if path != home)
    )
    assert uncalled == []


# a class's own engine, check_advanced and the game's referee share the ldim engine,
# which is not public API.
SHARED_PRIVATE = {"_DimensionEngine"}


def test_no_module_imports_a_private_name_from_a_sibling() -> None:
    private = sorted(
        f"{path.name}: {alias.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE
    )
    assert private == []


def _defined_names(tree: ast.Module) -> set[str]:
    """Every name a module binds: its functions, classes and methods, and
    the names and attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def private_attribute_reads(source: str) -> list[str]:
    """``x._name`` reads where ``x`` is not ``self`` or ``cls`` and the
    module defines no ``_name``: a private name of another module."""
    tree = ast.parse(source)
    own = _defined_names(tree)
    return [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and node.attr not in own
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_no_module_reads_a_private_attribute_another_module_defines() -> None:
    reads = sorted(
        f"{path.name}:{read}" for path in PACKAGE.glob("*.py") for read in private_attribute_reads(path.read_text())
    )
    assert reads == []


def test_the_private_attribute_check_flags_a_read_across_modules() -> None:
    source = "class A:\n    def f(self, learner):\n        self._own = learner._analyze(self._own)\n"
    assert private_attribute_reads(source) == ["3: ._analyze"]
