"""Differential test: the compiled evaluator against the tree-walking oracles.

Every case compares `compile_formula` (one compiled function reused across
all of a formula's assignments, so the quantifier caches carry over between
them) with `tree_eval_formula` / `tree_eval_set_formula`: both must give
the same truth value, or raise the same error class with the same message.
"""

from itertools import islice

import pytest

from genutil import FormulaGen, all_env
from tree_eval import tree_eval_formula, tree_eval_set_formula

from hotk.corpus import graph_fixture, separation_corpus
from hotk.errors import BudgetExceeded, EvalError
from hotk.kernel import fin, parse_formula, parse_regime
from hotk.kernel.syntax import (Apply, Const, Forall, InSet, Or, Raised,
                                StrictEq, Var, free_atoms)
from hotk.models import (build_class_model, build_pure_model,
                         build_sttd_companion, build_sttu_companion,
                         compile_formula, eval_formula)
from hotk.settheory import (T_construction, build_V, endless_formula,
                            extensionality_formula, infinity_formula,
                            separation_instance, stratification_formula)

GRAPHS = ["astruct.json", "chain3.json", "chain4.json", "pair_mix.json",
          "quine.json", "v2_plus_two.json", "v4_minus_rank3.json"]
TRANSITIVE = ["chain3.json", "chain4.json", "pair_mix.json",
              "v2_plus_two.json", "v4_minus_rank3.json"]
ENVS_PER_FORMULA = 12


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:      # the oracle's error class and message
        return (type(e).__name__, str(e))


def envs(m, f):
    """The empty assignment, some full ones, and each full one minus its
    first key (so unassigned terms are met both reached and short-circuited)."""
    out = [{}]
    try:
        full = list(islice(all_env(m, free_atoms(f)), ENVS_PER_FORMULA))
    except EvalError:           # a free atom's type is missing from m
        return out
    out += full
    out += [dict(list(env.items())[1:]) for env in full[:3] if env]
    return out


def agree_typed(m, f, assignments):
    run = compile_formula(m, f)
    for env in assignments:
        assert outcome(run, env) == outcome(tree_eval_formula, m, f, env), \
            (f, env)


def agree_set(g, f, assignments):
    run = compile_formula(g, f)
    for env in assignments:
        assert outcome(run, env) == outcome(tree_eval_set_formula, g, f, env), \
            (f, env)


@pytest.fixture(scope="module")
def typed_models(pure4, pure4_up, fjt2, fjt3, fjt3_down):
    models = {"pure3": build_pure_model(3), "pure4": pure4,
              "pure4_up": pure4_up, "fjt2": fjt2, "fjt3": fjt3,
              "fjt3_down": fjt3_down,
              "fjt2_down": build_sttd_companion(fjt2),
              "class1_3": build_class_model(1, 3),
              "class1_3_up": build_sttu_companion(build_class_model(1, 3))}
    for name in TRANSITIVE:
        models[f"T:{name}"] = T_construction(graph_fixture(name))
    return models


def corpus(regime: str, seed: int, count: int = 8):
    gen = FormulaGen(parse_regime(regime), seed=seed, max_type=2)
    return [gen.formula() for _ in range(count)] + \
        [gen.sentence() for _ in range(count // 2)]


@pytest.mark.parametrize("regime", ["ctt", "stt-up", "fjt", "stt-down"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_corpora_on_every_model_kind(typed_models, regime, seed):
    formulas = corpus(regime, seed)
    for m in typed_models.values():
        for f in formulas:
            agree_typed(m, f, envs(m, f))


def test_error_cases_and_short_circuits(pure4, pure4_up, fjt3_down):
    a0 = {("a", fin(0)): "{}"}
    texts = ["a^0 = a^0 | x^0 = y^0", "~a^0 = a^0 & x^0 = y^0",
             "a^0 = a^0 -> x^0 = y^0", "x^0 = y^0 -> a^0 = a^0",
             "x^0 = y^0", "a^0 = a^0 | all z^9. z^9 = z^9",
             "all z^9. z^9 = z^9", "some z^0. z^0 = x^0",
             "all z^0. (z^0 = a^0 | z^0 = x^0)",
             "up(a^0) = b^1", "all b^3. b^3 = up(b^2)", "b^2 dn a^1",
             "all b^2. all c^1. (b^2 dn c^1 <-> b^2 dn c^1)",
             "b^2 downeq c^2", "a^0 eq b^1"]
    untyped = Var("u", None)
    raw = [InSet(Const("a", fin(0)), Const("a", fin(0))),
           Forall(untyped, StrictEq(untyped, untyped)),
           Or(StrictEq(Const("a", fin(0)), Const("a", fin(0))),
              Forall(untyped, StrictEq(untyped, untyped)))]
    for m in (pure4, pure4_up, fjt3_down):
        for f in [parse_formula(t) for t in texts] + raw:
            agree_typed(m, f, envs(m, f) + [a0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_set_language_on_V(n):
    check_set_language(build_V(n))


@pytest.mark.parametrize("name", GRAPHS)
def test_set_language_on_graph_fixtures(name):
    check_set_language(graph_fixture(name))


def check_set_language(g):
    sentences = [extensionality_formula(), stratification_formula(),
                 endless_formula(), infinity_formula()]
    phis = separation_corpus()
    for f in sentences + [separation_instance(phi) for phi in phis]:
        agree_set(g, f, [{}])
    nodes = g.nodes[:3]
    for phi in phis:
        names = sorted({a.name for a in free_atoms(phi)})
        assignments = [{}] + [{k: v for k in names} for v in nodes]
        assignments += [{(k, None): v for k in names[1:]} for v in nodes]
        agree_set(g, phi, assignments)


def test_set_language_errors_and_short_circuits():
    g = build_V(3)
    x = {"x": "{}"}
    for text in ["x = x | y in z", "~x = x & y in z", "y in z",
                 "all a. (a in x | a = y)", "some a. (a = x & a in y)",
                 "x sub y", "x = x | x sub y"]:
        f = parse_formula(text, mode="set")
        agree_set(g, f, [{}, x, {("x", None): "{{}}", "y": "{}", "z": "{{}}"}])
    b, a = Const("b", fin(1)), Const("a", fin(0))
    agree_set(g, Apply(b, a), [{}, {"a": "{}", "b": "{}"}])


def test_budget_is_checked_where_the_quantifier_is_reached(fjt3):
    f = parse_formula("all a^3. a^3 = a^3")
    with pytest.raises(BudgetExceeded):
        eval_formula(fjt3, f, budget=10)
    assert eval_formula(fjt3, f, budget=2048)
    lazy = parse_formula("b^0 = b^0 | all a^3. a^3 = a^3")
    assert eval_formula(fjt3, lazy, {("b", fin(0)): "o"}, budget=10)


def test_raised_term_in_a_graph_is_an_eval_error():
    f = InSet(Const("x", None), Const("x", None))
    raised = InSet(Raised(Const("x", None)), Const("x", None))
    g = build_V(2)
    assert eval_formula(g, f, {"x": "{}"}) is False
    with pytest.raises(EvalError, match="raised term"):
        eval_formula(g, raised, {"x": "{}"})
