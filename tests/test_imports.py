"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import culturesim

MODULES = sorted(Path(culturesim.__file__).parent.glob("*.py"))


def imported_names(tree):
    """(name, line) for each name an import binds; ``import a.b`` binds a."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere, including inside string annotations such as
    ``-> "TemplateSet"``, and the names listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args)
                           if isinstance(a, ast.arg)] + [node.returns]
            for annotation in annotations:
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    used |= used_names(ast.parse(annotation.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List\n"
        "def f(x: List[int]) -> 'Sequence':\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("Dict", 3)]
    assert unused_imports("from typing import Sequence\ndef f() -> 'Sequence': pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
