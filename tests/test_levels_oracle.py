"""The level theory, which evaluates the Hist/Lev sugar and decides every
"all subsets realized" question with graphs.first_unrealized, against the
hand-written loops of levels_oracle.

Results must agree exactly, on the pure hierarchies V0-V4, the bundled
graph fixtures, seeded ill-founded graphs and seeded transitive graphs,
under several budgets.  The one allowed difference: when is_standard runs
out of budget, its BudgetExceeded names the typed expansion's domain
("domain of 2 entities at type 1") where the oracle named the graph's
stratum ("stratum of 2 nodes at rank 1").
"""

import random
import re

import pytest

import levels_oracle as oracle
from hotk import graphs, settheory
from hotk.corpus import graph_fixture, separation_corpus
from hotk.errors import HotkError
from hotk.graphs import (MembershipGraph, first_unrealized, graph_from_sets,
                         powerset)
from hotk.models import eval_formula
from hotk.settheory import (T_construction, build_V, check_set_axioms,
                            is_history, is_level, is_standard,
                            is_standard_typed, levels_of)

BUDGETS = (10 ** 6, 40, 8, 2)
FIXTURES = ["astruct.json", "chain3.json", "chain4.json", "pair_mix.json",
            "quine.json", "v2_plus_two.json", "v4_minus_rank3.json"]


def _ill_founded(rng):
    """A graph on up to eight plainly named nodes with a membership cycle."""
    while True:
        nodes = [f"n{j}" for j in range(rng.randint(1, 8))]
        edges = {(rng.choice(nodes), rng.choice(nodes))
                 for _ in range(rng.randint(1, 2 * len(nodes)))}
        g = MembershipGraph(tuple(nodes), frozenset(edges))
        if g.find_cycle():
            return g


def _transitive(rng):
    """A transitive graph of up to nine sets, each a random set of the
    sets made before it."""
    sets = [frozenset()]
    for _ in range(rng.randint(0, 8)):
        new = frozenset(s for s in sets if rng.random() < 0.5)
        if new not in sets:
            sets.append(new)
    return graph_from_sets(sets)


def _corpus():
    graphs_ = {f"V{n}": build_V(n) for n in range(5)}
    graphs_.update((name, graph_fixture(name)) for name in FIXTURES)
    rng = random.Random(8)
    for i in range(300):
        graphs_[f"ill-founded-{i}"] = _ill_founded(rng)
    for i in range(300):
        graphs_[f"transitive-{i}"] = _transitive(rng)
    return graphs_


CORPUS = _corpus()
SEPARATION = separation_corpus()


def _outcome(fn, *args):
    """fn's value, or the class and message of the package error it raises."""
    try:
        return fn(*args)
    except HotkError as e:
        return type(e).__name__, str(e)


def _standard_expected(g, budget):
    """The oracle's is_standard outcome, with its budget message worded as
    the typed expansion's."""
    got = _outcome(oracle.is_standard, g, budget)
    if isinstance(got, tuple) and got[0] == "BudgetExceeded":
        n, alpha = re.fullmatch(r"stratum of (\d+) nodes at rank (\d+)",
                                got[1]).groups()
        return got[0], f"domain of {n} entities at type {alpha}"
    return got


def _chunks(n):
    names = sorted(CORPUS)
    return [names[i::n] for i in range(n)]


@pytest.mark.parametrize("names", _chunks(4))
def test_histories_and_levels_agree_with_the_oracle(names):
    for name in names:
        g = CORPUS[name]
        assert levels_of(g) == oracle.levels_of(g), name
        for s in g.nodes:
            assert is_history(g, s) == oracle.is_history(g, s), (name, s)
            assert is_level(g, s) == oracle.is_level(g, s), (name, s)


@pytest.mark.parametrize("names", _chunks(4))
def test_standardness_agrees_with_the_oracle(names):
    for name in names:
        g = CORPUS[name]
        m = _outcome(T_construction, g)
        want = _outcome(oracle.T_construction, g)
        if isinstance(want, tuple):
            assert m == want, name
        else:
            assert m.dumps() == want.dumps(), name
        for budget in BUDGETS:
            assert (_outcome(is_standard, g, budget)
                    == _standard_expected(g, budget)), (name, budget)
            if not isinstance(m, tuple):
                assert (_outcome(is_standard_typed, m, budget)
                        == _outcome(oracle.is_standard_typed, m, budget)), \
                    (name, budget)


_TRUTHS = {}


def _remembered(g, f):
    """eval_formula for both suites, each (graph, formula) evaluated once:
    the reports differ only in how they use the truth values."""
    key = (id(g), f)
    if key not in _TRUTHS:
        _TRUTHS[key] = eval_formula(g, f)
    return _TRUTHS[key]


@pytest.mark.parametrize("names", _chunks(4))
def test_set_axiom_reports_agree_with_the_oracle(names, monkeypatch):
    monkeypatch.setattr(settheory, "eval_formula", _remembered)
    monkeypatch.setattr(oracle, "eval_formula", _remembered)
    for name in names:
        g = CORPUS[name]
        for which in ("lt", "zr"):
            for budget in BUDGETS:
                got = check_set_axioms(g, which, SEPARATION, budget).to_json()
                want = oracle.check_set_axioms(g, which, SEPARATION,
                                               budget).to_json()
                assert got == want, (name, which, budget)


def test_the_corpus_reaches_every_outcome():
    seen = set()
    for name, g in CORPUS.items():
        seen.add(("levels", bool(levels_of(g))))
        if g.transitive:
            for budget in BUDGETS:
                got = _outcome(is_standard, g, budget)
                seen.add(("standard", got if isinstance(got, bool) else got[0]))
        for budget in BUDGETS:
            rep = check_set_axioms(g, "lt", (), budget)
            seen.add(("separation-full", rep.status("separation-full")))
    assert seen == {("levels", True), ("levels", False),
                    ("standard", True), ("standard", False),
                    ("standard", "BudgetExceeded"),
                    ("separation-full", "PASS"), ("separation-full", "FAIL"),
                    ("separation-full", "SKIPPED")}


def test_a_full_count_walks_no_subset(monkeypatch):
    doms = [("a", "b"), ("c",)]
    every = {(frozenset(x), frozenset(y))
             for x in powerset(doms[0]) for y in powerset(doms[1])}
    missing = (frozenset("a"), frozenset("c"))

    def walked(items):
        raise AssertionError("subsets walked although every tuple is realized")

    assert first_unrealized(doms, every - {missing}) == (("a",), ("c",))
    monkeypatch.setattr(graphs, "powerset", walked)
    assert first_unrealized(doms, every) is None
