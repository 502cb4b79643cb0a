"""Every comparison in the package whose bound is the budget is listed
here, so that a new size guessed ahead of the work needs an edit to this
list.  A subset search is charged in graphs.first_unrealized alone, and a
quantifier in the compiler's checked_domain; the builders check what they
are about to build; check_set_axioms keeps its n^3 estimate for the
sentence rows.  A check of the budget itself, such as `args.budget < 0`,
has no budget as its bound."""

import ast
from pathlib import Path

import hotk

PACKAGE = Path(hotk.__file__).parent

BOUNDED = {
    "graphs.py: first_unrealized",
    "models/core.py: _Compiler.checked_domain",
    "models/builders.py: hierarchy_levels",
    "models/builders.py: build_fjt_canonical",
    "settheory.py: check_set_axioms",
}


def _is_budget(node: ast.AST) -> bool:
    """`budget` or `self.budget`."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "budget" and isinstance(node.value, ast.Name)
                and node.value.id == "self")
    return isinstance(node, ast.Name) and node.id == "budget"


def _bounded_by_budget(node: ast.AST, scope=()):
    """The dotted scope of each comparison with the budget as an operand."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif (isinstance(child, ast.Compare)
              and any(map(_is_budget, [child.left, *child.comparators]))):
            yield ".".join(scope)
        yield from _bounded_by_budget(child, inner)


def test_only_the_listed_sites_compare_with_the_budget():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{rel}: {site}" for site in _bounded_by_budget(tree))
    assert found == BOUNDED


def test_a_guess_ahead_of_the_work_is_found():
    tree = ast.parse("def scan(doms, budget):\n"
                     "    if 2 ** len(doms) > budget:\n"
                     "        return None\n"
                     "class Loop:\n"
                     "    def run(self, args):\n"
                     "        return args.budget < 0 or len(args.xs) <= self.budget\n")
    assert list(_bounded_by_budget(tree)) == ["scan", "Loop.run"]
