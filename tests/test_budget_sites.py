"""Every comparison in the package whose bound is the budget is listed
here, so that a new size guessed ahead of the work needs an edit to this
list.  A subset search is charged in graphs.first_unrealized alone, and a
quantifier in the compiler's checked_domain; the builders check what they
are about to build; check_set_axioms keeps its n^3 estimate for the
sentence rows.  A check of the budget itself, such as `args.budget < 0`,
has no budget as its bound.

Each of those sites words its stop `... N <unit>, above budget B`, with
N > B, and every SKIPPED row and exit-3 error quotes it."""

import ast
import json
import re
from pathlib import Path

import pytest

import hotk
from hotk.cli import main
from hotk.corpus import graph_fixture
from hotk.errors import BudgetExceeded
from hotk.graphs import first_unrealized
from hotk.models import build_pure_model
from hotk.settheory import build_V

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


# (the site or consumer whose stop the command reaches, its arguments after
# --budget 3); the files are those of the stop_files fixture.
STOPS = [
    ("first_unrealized, plain comprehension",
     ["model", "check", "--model", "short4.json", "--theory", "stt"]),
    ("first_unrealized, augmented comprehension",
     ["model", "check", "--model", "pure4.json", "--theory", "stt-down"]),
    ("first_unrealized, finitary comprehension",
     ["model", "check", "--model", "pure4.json", "--theory", "fjt"]),
    ("first_unrealized, separation-full",
     ["sets", "check", "lt", "v4_minus_rank3.json"]),
    ("first_unrealized, sets standard", ["sets", "standard", "v4_minus_rank3.json"]),
    ("checked_domain, a scheme row",
     ["model", "check", "--model", "pure4.json", "--theory", "pctt:w"]),
    ("checked_domain, eval", ["eval", "--model", "pure4.json", "all x^3. x^3 = x^3"]),
    ("hierarchy_levels, model build",
     ["model", "build", "--kind", "class", "--height", "4", "--urelements", "1"]),
    ("hierarchy_levels, sets build-v", ["sets", "build-v", "4"]),
    ("build_fjt_canonical", ["model", "build", "--kind", "fjt", "--height", "3"]),
    ("check_set_axioms, the n^3 rows", ["sets", "check", "zr", "V4.json"]),
]
STOP = re.compile(r"(\d+) [a-z ]+, above budget (\d+)$")


@pytest.fixture(scope="module")
def stop_files(tmp_path_factory):
    """pure 4, and pure 4 without its last type-3 entity, which misses a
    subset of type 2; V4, and the fixture v4_minus_rank3."""
    d = tmp_path_factory.mktemp("stops")
    pure4 = build_pure_model(4).dumps()
    short = json.loads(pure4)
    del short["apply"][short["domains"][3].pop()]
    for name, text in {"pure4.json": pure4, "short4.json": json.dumps(short),
                       "V4.json": build_V(4).dumps(),
                       "v4_minus_rank3.json":
                           graph_fixture("v4_minus_rank3.json").dumps()}.items():
        (d / name).write_text(text)
    return d


@pytest.mark.parametrize("site,argv", STOPS, ids=[site for site, _ in STOPS])
def test_every_stop_names_a_size_above_the_budget(site, argv, stop_files,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(stop_files)
    code = main(["--budget", "3", *argv])
    out = capsys.readouterr()
    stops = [line[line.index("[") + 1:-1] for line in out.out.splitlines()
             if line.startswith("SKIPPED")]
    stops += [line.removeprefix("budget exceeded: ")
              for line in out.err.splitlines()]
    assert code == 3 and stops, (out.out, out.err)
    for stop in stops:
        m = STOP.search(stop)
        assert m and int(m.group(2)) == 3 < int(m.group(1)), stop


def test_a_size_too_long_for_decimal_is_a_power_of_two(capsys):
    """Level 2 of 13 urelements holds 2^14 + 13 entities, so level 3 would
    hold 2^16397 + 13, a number of more digits than int prints."""
    assert main(["model", "build", "--kind", "class", "--height", "3",
                 "--urelements", "13"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: level 3 needs at least 2^16397 entities, "
        "above budget 1000000\n")
    with pytest.raises(BudgetExceeded) as e:
        first_unrealized([[str(i) for i in range(15000)]], set(), 10)
    assert str(e.value) == "at least 2^15000 tuples of subsets, above budget 10"
