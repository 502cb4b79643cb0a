"""The fixed formulas written in the notation against the hand-built oracle
(tests/formula_oracle.py), and a guard that keeps them in the notation."""

import ast
import inspect
import itertools
from pathlib import Path

import pytest

import formula_oracle as oracle
from hotk import settheory
from hotk.kernel import axioms
from hotk.kernel import syntax
from hotk.kernel.indices import fin, ordinal
from hotk.models import domains

INDICES = [fin(i) for i in range(5)] + [ordinal(1, 0), ordinal(1, 1), ordinal(2, 1)]
NATURALS = range(6)
SET_AXIOMS = ("extensionality_formula", "stratification_formula",
              "endless_formula", "infinity_formula")


def _outcome(build, *args):
    """build(*args), or the class and message of the error it raised."""
    try:
        return build(*args)
    except Exception as e:
        return type(e), str(e)


def _cases():
    for name in ("type_raising", "type_founded", "type_ext"):
        for args in itertools.product(INDICES, repeat=2):
            yield axioms, name, args
    for alpha in INDICES:
        yield axioms, "type_base", (alpha,)
    for name in ("up_inject", "up_possess", "up_founded",
                 "down_exists", "down_sim", "down_max"):
        for n in NATURALS:
            yield axioms, name, (n,)
    yield axioms, "type_purity", ()
    yield axioms, "up_base", ()
    for kind in domains.KINDS + ("no-such-kind",):
        for n, m in itertools.product(NATURALS, repeat=2):
            yield domains, "gen_domain_formula", (kind, n, m)
    for n in NATURALS:
        yield domains, "domain_const", (n,)
    for name in SET_AXIOMS:
        yield settheory, name, ()


def test_every_fixed_formula_equals_the_hand_built_one():
    checked, errors, builders = 0, 0, set()
    for module, name, args in _cases():
        got = _outcome(getattr(module, name), *args)
        assert got == _outcome(getattr(oracle, name), *args), (name, args)
        checked += 1
        errors += isinstance(got, tuple)
        builders.add(name)
    assert checked > 400 and 0 < errors < checked
    assert {fn.__name__ for fn, _, _ in axioms.AXIOMS.values()} < builders


# Every class whose instances make up a formula or a term.
NODE_CLASSES = {name for name, value in vars(syntax).items()
                if inspect.isclass(value) and value.__module__ == syntax.__name__}


@pytest.mark.parametrize("module", [axioms, domains])
def test_the_notation_modules_import_no_node_class(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == syntax.__name__
                for alias in node.names}
    assert imported and not imported & (NODE_CLASSES | {"conj"})


def test_the_set_axioms_use_no_node_class():
    assert {"Var", "Forall", "Sugar", "InSet"} <= NODE_CLASSES
    tree = ast.parse(Path(settheory.__file__).read_text())
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    for name in SET_AXIOMS:
        used = {node.id for node in ast.walk(functions[name])
                if isinstance(node, ast.Name)}
        assert not used & (NODE_CLASSES | {"_v"}), name
