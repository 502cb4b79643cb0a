"""Every name a module under src/ imports is used in that module.

Each module is parsed with `ast`; a name bound by `import` or `from ...
import` must occur somewhere in the module as a `Name` (an attribute chain
counts by its root).  Package `__init__.py` files re-export what they
import, and `from __future__` imports are directives, so both are skipped.
"""

import ast
from pathlib import Path

import hotk

SRC = Path(hotk.__file__).parent


def unused_imports(tree: ast.Module):
    """(line, name) of each imported name the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os.path\nfrom re import compile as c, sub\n"
                     "sub(os.sep, '', '')\n")
    assert unused_imports(tree) == [(2, "c")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {str(p.relative_to(SRC)): got for p in modules
              if (got := unused_imports(ast.parse(p.read_text())))}
    assert unused == {}
