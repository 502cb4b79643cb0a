"""Differential test: sugar compiled where the compiler meets it, against
the expansion pass it replaces.

`eval_formula` and `counterexamples` compile a defined symbol as its
definiens (`kernel.expand.define`) in the scope where the walk meets it.
Every case here evaluates a formula f and `expand_abbreviations(f)` on the
same structure and assignment: both must give the same truth value, or
raise the same error class with the same message.  The cases are the
domain formulas, defined identity, coextensiveness and projection
equivalence (ill-formed ones included), kappa images of the separation
corpus, and `Lev`/`Hist`/`Rank`/`sub` sentences and separation instances
on graphs, under the default budget and under one small enough to trip.
"""

from itertools import islice

import pytest

from test_compile import outcome

from hotk import settheory
from hotk.corpus import graph_fixture, separation_corpus, transitive_fixture_names
from hotk.errors import DEFAULT_BUDGET, FormationError
from hotk.kernel import expand, fin, parse_formula
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.syntax import Not, Sugar, Var
from hotk.models import (build_class_model, build_pure_model, core,
                         counterexamples, eval_formula)
from hotk.models.domains import KINDS, domain_const, gen_domain_formula
from hotk.settheory import (S_construction, T_construction, build_V,
                            levels_of, separation_instance)
from hotk.translate import kappa_translate

BUDGETS = (DEFAULT_BUDGET, 5)
ENTITIES_PER_TYPE = 6


def agree(m, f, assignments, budgets=BUDGETS):
    expanded = outcome(expand_abbreviations, f)
    for env in assignments:
        for budget in budgets:
            got = outcome(eval_formula, m, f, env, budget)
            want = expanded if isinstance(expanded, tuple) else \
                outcome(eval_formula, m, expanded, env, budget)
            assert got == want, (f, env, budget)


def sweeps_agree(m, atoms, f):
    expanded = expand_abbreviations(f)
    for budget in BUDGETS:
        assert outcome(lambda: list(counterexamples(m, atoms, f, budget))) == \
            outcome(lambda: list(counterexamples(m, atoms, expanded, budget))), \
            (f, budget)


@pytest.fixture(scope="module")
def typed_models(pure4, pure4_up, fjt3, fjt3_down):
    return {"pure4": pure4, "pure4_up": pure4_up, "fjt3": fjt3,
            "fjt3_down": fjt3_down, "class1_3": build_class_model(1, 3),
            "pure2": build_pure_model(2)}


GRAPHS = [f"V{n}" for n in range(1, 5)] + transitive_fixture_names()


def graph(name):
    return build_V(int(name[1:])) if name.startswith("V") else graph_fixture(name)


@pytest.mark.parametrize("kind", KINDS)
def test_domain_formulas(typed_models, kind):
    for n in range(1, 4):
        for m_type in range(1, 4):
            f = outcome(gen_domain_formula, kind, n, m_type)
            if isinstance(f, tuple):
                assert f[0] == "FormationError"
                continue
            d = domain_const(n)
            for m in typed_models.values():
                entities = m.domains[n] if n <= m.max_type else ()
                envs = [{}] + [{(d.name, d.index): e}
                               for e in islice(entities, ENTITIES_PER_TYPE)]
                agree(m, f, envs)


@pytest.mark.parametrize("text", [
    "a^0 coext b^0", "a^2 coext_0 b^2", "a^1 downeq b^1", "a^2 downeq b^2",
    "a^w eq b^w", "all x^w. x^w eq x^w", "a^0 eq b^1", "a^1 in b^1",
    "all x^1. all y^1. (x^1 eq y^1 -> (x^1 coext y^1 | ~x^1 = y^1))",
    "all x^0 eq y^0. all z^1. (z^1(x^0) <-> z^1(y^0))",
    "some x^1 in y^2. x^1 downeq x^1",
    "(a^0 coext b^0) & (c^1 downeq c^1)",
    "all x^2. (x^2 downeq x^2 & x^2 coext_2 x^2)",
])
def test_defined_identity_coextension_and_projection(typed_models, text):
    f = parse_formula(text)
    for m in typed_models.values():
        envs = [{}]
        for n in range(min(m.max_type, 2) + 1):
            e = m.domains[n][-1]
            envs.append({(v, fin(n)): e for v in "abcy"})
        agree(m, f, envs)


def test_kappa_images_of_the_separation_corpus_on_T_V3():
    m = T_construction(build_V(3))
    for kappa in range(3):
        for phi in separation_corpus():
            agree(m, kappa_translate(separation_instance(phi), fin(kappa)), [{}],
                  budgets=(DEFAULT_BUDGET, 3))


SET_TEXTS = ["Lev(s)", "Hist(h)", "Rank(a, s)", "a sub s",
             "all s. Lev(s) -> some h. Hist(h) & s in h",
             "all a. some s. a sub s & Lev(s)",
             "all a. all s. Rank(a, s) -> Lev(s)"]


@pytest.mark.parametrize("name", GRAPHS)
def test_level_theory_on_graphs(name):
    g = graph(name)
    nodes = g.nodes[:ENTITIES_PER_TYPE]
    for text in SET_TEXTS:
        f = parse_formula(text, mode="set")
        agree(g, f, [{}] + [{v: x for v in "ahs"} for x in nodes])
    s, a = Var("s", None), Var("a", None)
    sweeps_agree(g, [s], Not(Sugar("level", (s,))))
    sweeps_agree(g, [a, s], Sugar("rank", (a, s)))
    for phi in separation_corpus():
        agree(g, separation_instance(phi), [{}])


@pytest.mark.parametrize("name", ["V3"] + transitive_fixture_names())
def test_slices_of_T_models(name):
    m = T_construction(graph(name))
    for kappa in range(min(m.max_type, 2)):
        k = fin(kappa)
        a, b = Var("a", k), Var("b", k)
        sweeps_agree(m, [a, b], Not(Sugar("in", (a, b))))


def test_evaluation_makes_no_expansion_pass(monkeypatch, pure4):
    """The compiler defines each sugar node it meets and never runs
    expand_abbreviations; nor do levels_of and S_construction."""
    calls, defined = [], []

    def counting(f, regime=None):
        calls.append(f)
        return expand_abbreviations(f, regime)

    def define(g, fresh):
        defined.append(g)
        return expand.define(g, fresh)

    monkeypatch.setattr(expand, "expand_abbreviations", counting)
    monkeypatch.setattr(settheory, "expand_abbreviations", counting,
                        raising=False)
    monkeypatch.setattr(core, "expand_abbreviations", counting, raising=False)
    monkeypatch.setattr(core, "define", define)
    d = domain_const(2)
    f = gen_domain_formula("m-russellian", 2, 2)
    eval_formula(pure4, f, {(d.name, d.index): pure4.domains[2][0]})
    list(counterexamples(pure4, [d], f))
    g = build_V(3)
    levels_of(g)
    S_construction(T_construction(g), 1)
    with pytest.raises(FormationError):
        eval_formula(pure4, parse_formula("a^0 coext b^0"))
    assert calls == [] and len(defined) > 4
