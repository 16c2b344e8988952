"""The layout of the package: no module reads a private name of another.

Each module keeps its private helpers to itself, so a decision such as how
a row is stored sits in the one module that owns it.
"""

import ast
from pathlib import Path

import liepair

PACKAGE = Path(liepair.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_imports(path):
    """`module:line name` for each private name that the module at `path`
    imports from a module of the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "liepair"):
            for alias in node.names:
                if is_private(alias.name):
                    yield f"{path.name}:{node.lineno} {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_the_check_finds_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .linalg import _eliminate, rref\n"
                    "from liepair.weights import __doc__, _h_blocks\n"
                    "from math import _private\n")
    assert list(private_imports(path)) == ["mod.py:1 _eliminate",
                                           "mod.py:2 _h_blocks"]
