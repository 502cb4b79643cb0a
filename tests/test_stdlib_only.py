"""The package imports nothing outside itself and the standard library,
and no module takes a private name from another module."""

import ast
import sys
from pathlib import Path

import hotk

PACKAGE = Path(hotk.__file__).parent


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_hotk_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    outside = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _absolute_imports(tree):
            top = name.split(".")[0]
            if top != "hotk" and top not in sys.stdlib_module_names:
                outside.setdefault(str(path.relative_to(PACKAGE)), []).append(name)
    assert outside == {}


def test_no_module_imports_a_private_name_from_another_part():
    """Every module is a part here: a private name stays in its module, so
    nothing outside models/core.py reaches into the compiler, say."""
    crossings = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE.parent).with_suffix("")
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.startswith("hotk.")):
                crossings += [f"{rel}: {node.module}.{alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert crossings == []
