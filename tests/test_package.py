from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
from pathlib import Path

import pytest

import defsrl
from import_footprint import CHECKS, run_check
from defsrl.syntree import _refuse_assignment

SRC = Path(defsrl.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def _public_api(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


def test_the_package_exports_exactly_the_modules_public_functions_and_classes():
    # ``defsrl`` fills its namespace only as names are read, so the check
    # walks what it lists (``__all__`` and ``dir``), not ``vars(defsrl)``.
    listed = set(defsrl.__all__)
    assert listed <= set(dir(defsrl))
    for name in MODULES:
        module = importlib.import_module(f"defsrl.{name}")
        for exported in getattr(module, "__all__", ()):
            obj = getattr(module, exported)
            if _public_api(obj):
                assert exported in listed, f"defsrl.__all__ lacks {name}.{exported}"
                assert getattr(defsrl, exported, None) is obj, f"defsrl lacks {name}.{exported}"
    for exported in dir(defsrl):
        obj = getattr(defsrl, exported)
        if not exported.startswith("_") and _public_api(obj):
            in_module = getattr(importlib.import_module(obj.__module__), "__all__", ())
            assert exported in in_module, f"{obj.__module__}.__all__ lacks {exported}"


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_an_import_loads_only_what_it_uses(check):
    # Each check runs in a new interpreter that imports defsrl from src/.
    result = run_check(check, {**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert result.returncode == 0, result.stderr


def test_every_dataclass_in_src_is_a_sealed_record():
    # One record mechanism: ``syntree._seal``, which gives the class slots
    # and refuses assignment through ``_refuse_assignment``.
    records = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"defsrl.{name}")).values()
        if inspect.isclass(obj) and obj.__module__ == f"defsrl.{name}"
        and dataclasses.is_dataclass(obj)
    }
    assert len(records) >= 16
    for cls in records:
        assert "__slots__" in vars(cls), cls
        assert cls.__setattr__ is _refuse_assignment, cls
    # Nor is a class, at any level, decorated by ``dataclass`` itself.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                decorators = [getattr(d, "func", d) for d in node.decorator_list]
                assert [ast.unparse(d) for d in decorators] in ([], ["_seal"]), node.name


def _top_level_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def test_every_private_top_level_name_in_src_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    # Each reference as (file, line, name): a name, an attribute, or a name
    # imported from a module.
    references = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                references.extend((path, node.lineno, alias.name) for alias in node.names)
    orphans = []
    for path, tree in trees.items():
        for statement in tree.body:
            for name in _top_level_names(statement):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                # A use inside the name's own definition does not count.
                if not any(
                    used == name
                    and not (where == path and statement.lineno <= line <= statement.end_lineno)
                    for where, line, used in references
                ):
                    orphans.append(f"{path.name}: {name}")
    assert orphans == []


def test_packaged_data_files_break_lines_with_newlines_only():
    # ``packaged_data_text`` decodes their bytes with no newline translation.
    paths = sorted((SRC / "data").iterdir())
    assert paths
    for path in paths:
        assert b"\r" not in path.read_bytes(), path.name
