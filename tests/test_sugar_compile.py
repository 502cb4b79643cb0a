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

`top_type` and `decide_fjt` read each defined symbol as its definiens where
their walk meets it too; they are checked against the same walk of the
expanded formula, and against deciding by expanding first.
"""

from itertools import islice

import pytest

from genutil import FormulaGen, oracle_eval
from test_compile import outcome
from test_walks import ALL, EXPANDED

from hotk import settheory
from hotk.corpus import graph_fixture, separation_corpus, transitive_fixture_names
from hotk.errors import DEFAULT_BUDGET, EvalError, FormationError
from hotk.kernel import check_formation, expand, fin, fjt, parse_formula, parse_regime
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.syntax import (Not, StrictEq, Sugar, Var, free_atoms, parts,
                                subformulas)
from hotk.models import (axioms, build_class_model, build_fjt_canonical,
                         build_pure_model, check_axiom_suite, core,
                         counterexamples, decide, eval_formula)
from hotk.models.decide import decide_fjt, top_type
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


# Typed set sugar, which the corpora of test_walks hold only at type 2: an
# open and a closed formula of each kind in turn.
TYPED_SET_TEXTS = ["a^0 sub b^0", "all x^1. some y^1. x^1 sub y^1", "Lev(s^0)",
                   "some s^1. Lev(s^1)", "Hist(h^0)", "all h^1. Hist(h^1)",
                   "Rank(a^0, s^0)", "all a^1. some s^1. Rank(a^1, s^1)"]


def test_the_type_walk_reads_definientia_as_expansion_does():
    typed = [parse_formula(t) for t in TYPED_SET_TEXTS]
    for f in ALL + EXPANDED + typed:
        expanded = outcome(expand_abbreviations, f)
        want = expanded if isinstance(expanded, tuple) else outcome(top_type, expanded)
        assert outcome(top_type, f) == want, f


_OPEN = "decision procedure needs a closed sentence"


def expand_then_decide(f, height, budget, model):
    """decide_fjt as it was written with an expansion pass ahead of its
    type walk and evaluation."""
    verdict = check_formation(f, fjt())
    if not verdict:
        if free_atoms(f):
            raise EvalError(_OPEN)
        raise FormationError(verdict.reason)
    g = expand_abbreviations(f)
    need, closed = top_type(g)
    if not closed:
        raise EvalError(_OPEN)
    if need > height:
        raise EvalError(f"sentence uses type {need}, above height {height}")
    return eval_formula(model, g, budget=budget)


# Closed sentences with every sugar kind fjt admits, one that needs a type
# above every height, an open one and two that fjt rejects.
DECIDE_TEXTS = TYPED_SET_TEXTS[1::2] + [
    "all x^0. all y^0. x^0 eq y^0", "all x^0. some y^1. x^0 in y^1",
    "all x^1. all y^1. (x^1 coext y^1 -> x^1 eq y^1)",
    "all x^2. all y^2. (x^2 coext_2 y^2 <-> x^2 eq y^2)",
    "all x^1. all y^1 eq x^1. x^1 coext y^1", "some s^0. Lev(s^0) & Hist(s^0)",
    "all y^2. some x^0 in y^2. x^0 eq x^0", "all a^0. some s^0. Rank(a^0, s^0)",
    "all x^3. x^3 eq x^3", "x^0 eq y^0", "all a^1. all b^1. a^1 downeq b^1",
    "a^1 downeq b^1"]


def test_decide_agrees_with_deciding_the_expansion():
    models = [build_fjt_canonical(h) for h in range(4)]
    sentences = [parse_formula(t) for t in DECIDE_TEXTS]
    for height in (1, 2, 3):
        for seed in range(40):
            gen = FormulaGen(fjt(), seed=seed, max_type=height, max_depth=3)
            sentences.append(gen.sentence())
    seen = set()
    for f in sentences:
        for height, m in enumerate(models):
            # At height 3 the default budget would sweep the 2048 type-3
            # entities under other quantifiers.
            for budget in (10, 300 if height == 3 else DEFAULT_BUDGET):
                got = outcome(decide_fjt, f, height, budget, m)
                assert got == outcome(expand_then_decide, f, height, budget, m), \
                    (f, height, budget)
                seen.add(got if type(got) is bool else got[0])
    assert seen == {True, False, "EvalError", "FormationError", "BudgetExceeded"}


def test_the_generator_draws_height_0_formulas():
    """At max_type 0 every atom is a type-0 `=`, so height-0 sentences can
    be drawn, and decided, under every regime the generator knows."""
    m = build_fjt_canonical(0)
    for regime in ("ctt", "stt-up", "fjt", "stt-down"):
        for seed in range(20):
            gen = FormulaGen(parse_regime(regime), seed=seed, max_type=0)
            f, s = gen.formula(), gen.sentence()
            for g in (f, s):
                assert check_formation(g, parse_regime(regime)).ok
                atoms = [h for h in subformulas(g) if not parts(h)[2]]
                assert atoms and all(type(h) is StrictEq and h.left.index == fin(0)
                                     for h in atoms), g
            assert decide_fjt(s, 0, model=m) == oracle_eval(m, s, {})


def test_evaluation_makes_no_expansion_pass(monkeypatch, pure4, fjt3_down):
    """The compiler defines each sugar node it meets and never runs
    expand_abbreviations; nor do levels_of, S_construction, decide_fjt and
    the axiom suites."""
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
    for module in (core, decide, axioms):
        monkeypatch.setattr(module, "expand_abbreviations", counting, raising=False)
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
    decide_fjt(parse_formula("all x^1. some y^1. x^1 eq y^1"), 2)
    for held in vars(axioms).values():     # instances an earlier suite kept
        if hasattr(held, "cache_clear"):
            held.cache_clear()
    for theory in ("ctt:w", "stt-down"):
        check_axiom_suite(fjt3_down, parse_regime(theory), 3)
    assert calls == [] and len(defined) > 4
