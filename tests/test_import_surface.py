"""Static checks of the package's import surface, with the standard library's
``ast`` and ``tomllib`` only: every name a module lists in ``__all__``
resolves, every name a module imports is used in it or re-exported by it, and
every runtime dependency in ``pyproject.toml`` is imported by the package. The
offline analytics module imports none of the modules that build, draft or
budget, and every record checks itself when built: no ``validate`` method."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import moebudget

PACKAGE_DIR = Path(moebudget.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def module_named(stem: str):
    return importlib.import_module("moebudget" if stem == "__init__" else f"moebudget.{stem}")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports, e.g. ``numpy`` for
    ``from numpy.linalg import norm``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including inside string
    annotations such as ``-> "DraftTree"``."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= used_names(ast.parse(ann.value, mode="eval"))
    return names


def test_every_module_is_checked():
    assert {"__init__", "coverage", "moe_core", "simulator", "toy_model"} <= set(MODULES)


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_resolve(stem):
    module = module_named(stem)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(module, name)] == []


# The package namespace re-exports everything it imports.
@pytest.mark.parametrize("stem", [m for m in MODULES if m != "__init__"])
def test_imported_names_are_used_or_reexported(stem):
    tree = ast.parse((PACKAGE_DIR / f"{stem}.py").read_text())
    exported = set(getattr(module_named(stem), "__all__", []))
    unused = imported_names(tree) - used_names(tree) - exported
    assert sorted(unused) == []


def test_every_runtime_dependency_is_imported():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((PACKAGE_DIR.parents[1] / "pyproject.toml").read_text())
    wanted = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in pyproject["project"]["dependencies"]
    }
    imported = set()
    for stem in MODULES:
        imported |= imported_modules(ast.parse((PACKAGE_DIR / f"{stem}.py").read_text()))
    assert wanted and sorted(wanted - imported) == []


def package_modules_imported(tree: ast.Module) -> set[str]:
    """The package modules a module imports directly, by relative import or
    by its ``moebudget.`` name."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    return {m.removeprefix("moebudget.") for m in modules}


def test_analysis_stays_offline():
    # Offline analytics read routing records and sweep rows; building models,
    # drafting trees and budgeting them stay with the modules that run them.
    tree = ast.parse((PACKAGE_DIR / "analysis.py").read_text())
    online = {"toy_model", "draft_tree", "coverage", "budgeting"}
    assert sorted(package_modules_imported(tree) & online) == []


@pytest.mark.parametrize("stem", MODULES)
def test_records_check_themselves_when_built(stem):
    # A record that exists is valid: its checks run in __post_init__, so no
    # class defines validate() and no caller has to remember to call it.
    tree = ast.parse((PACKAGE_DIR / f"{stem}.py").read_text())
    defined = [
        f"{node.name}.validate"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "validate"
    ]
    called = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    ]
    assert (defined, called) == ([], [])
