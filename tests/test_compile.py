"""Differential test: the compiled evaluator against the tree-walking oracles.

Every case compares `eval_formula` (one compile per assignment, whose keys
it numbers first) with `tree_eval_formula` / `tree_eval_set_formula`: both
must give the same truth value, or raise the same error class with the
same message.  The tests of `counterexamples`, the one sweep over
assignments that round trips, axiom-row witnesses, slices and levels
share, reuse one compile across every assignment, so the quantifier caches
carry over between them; on a graph they are checked against
`tree_eval_set_formula` too.
"""

from dataclasses import fields
from itertools import islice, product

import pytest

from genutil import FormulaGen, all_env
from tree_eval import tree_eval_formula, tree_eval_set_formula

from hotk.corpus import graph_fixture, separation_corpus
from hotk.errors import BudgetExceeded, EvalError
from hotk.kernel import expand_abbreviations, fin, parse_formula, parse_regime
from hotk.kernel.syntax import (And, Apply, Const, Exists, Forall, Iff,
                                Implies, InSet, Or, Raised, StrictEq, Var,
                                free_atoms, subformulas)
from hotk.models import (Model, akey, build_class_model, build_pure_model,
                         build_sttd_companion, build_sttu_companion,
                         counterexamples, eval_formula)
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
    for env in assignments:
        assert outcome(eval_formula, m, f, env) == \
            outcome(tree_eval_formula, m, f, env), (f, env)


def agree_set(g, f, assignments):
    for env in assignments:
        assert outcome(eval_formula, g, f, env) == \
            outcome(tree_eval_set_formula, g, f, env), (f, env)


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
        assignments = [{}] + [{(k, None): v for k in names} for v in nodes]
        assignments += [{(k, None): v for k in names[1:]} for v in nodes]
        agree_set(g, phi, assignments)


def test_set_language_errors_and_short_circuits():
    g = build_V(3)
    x = {("x", None): "{}"}
    for text in ["x = x | y in z", "~x = x & y in z", "y in z",
                 "all a. (a in x | a = y)", "some a. (a = x & a in y)",
                 "x sub y", "x = x | x sub y"]:
        f = parse_formula(text, mode="set")
        agree_set(g, f, [{}, x, {("x", None): "{{}}", ("y", None): "{}",
                                 ("z", None): "{{}}"}])
    b, a = Const("b", fin(1)), Const("a", fin(0))
    agree_set(g, Apply(b, a), [{}, {("a", None): "{}", ("b", None): "{}"}])


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
    assert eval_formula(g, f, {("x", None): "{}"}) is False
    with pytest.raises(EvalError, match="raised term"):
        eval_formula(g, raised, {("x", None): "{}"})


def test_counterexamples_walk_the_product_in_order():
    """Each falsifying assignment in product order, first atom outermost,
    with its count; then the number of assignments and None."""
    m = build_pure_model(3)
    x, y = Var("x", fin(1)), Var("y", fin(2))
    f = parse_formula("~y^2(x^1)")
    got = list(counterexamples(m, [x, y], f))
    combos = list(product(m.domains[1], m.domains[2]))
    assert got == [(i, c) for i, c in enumerate(combos, 1)
                   if not eval_formula(m, f, {akey(x): c[0], akey(y): c[1]})] \
        + [(len(combos), None)]
    assert len(got) > 2


def test_counterexamples_of_a_closed_formula_are_empty_tuples():
    m = build_pure_model(3)
    assert list(counterexamples(m, [], parse_formula("some x^0. ~x^0 = x^0"))) \
        == [(1, ()), (1, None)]
    assert list(counterexamples(m, [], parse_formula("all x^0. x^0 = x^0"))) \
        == [(1, None)]


def test_counterexamples_look_domains_up_to_the_first_empty_one():
    m = Model(kind="pure", max_type=1, domains=((), ("a",)),
              members={"a": frozenset()}, cumulative=False)
    x, y = Var("x", fin(0)), Var("y", fin(5))     # the model has no type 5
    f = StrictEq(x, x)
    assert list(counterexamples(m, [x, y], f)) == [(0, None)]
    with pytest.raises(EvalError, match="model has no type 5"):
        next(counterexamples(m, [y, x], f))


def test_counterexamples_leave_the_others_unassigned():
    """A free atom of f that is not among the atoms stays unassigned."""
    m = build_pure_model(3)
    x, z = Var("x", fin(1)), Var("z", fin(1))
    assert next(counterexamples(m, [x], StrictEq(x, x))) == (2, None)
    with pytest.raises(EvalError, match=r"unassigned free term z\^1"):
        next(counterexamples(m, [x], StrictEq(x, z)))
    assert list(counterexamples(m, [x], Or(StrictEq(x, x), StrictEq(x, z)))) \
        == [(2, None)]


def test_a_typed_atom_on_a_graph_is_named_in_the_notation():
    f = parse_formula("all x^0 eq y^0. (a^0 eq b^0)")
    with pytest.raises(EvalError) as e:
        eval_formula(build_V(2), f)
    assert str(e.value) == "cannot evaluate set formula node v1^1(x^0)"


@pytest.mark.parametrize("name", ["chain3.json", "pair_mix.json", "quine.json"])
def test_counterexamples_sweep_a_graph_in_product_order(name):
    """On a graph every atom ranges over the nodes, first atom outermost,
    and the sweep agrees with tree_eval_set_formula at every assignment."""
    g = graph_fixture(name)
    x, y = Var("x", None), Var("y", None)
    combos = list(product(g.nodes, g.nodes))
    for text in ["x in y", "x sub y | y in x", "Lev(x) -> x = y",
                 "all z. (z in x -> z in y)"]:
        f = parse_formula(text, mode="set")
        got = list(counterexamples(g, [x, y], expand_abbreviations(f)))
        assert got == [(i, c) for i, c in enumerate(combos, 1)
                       if not tree_eval_set_formula(
                           g, f, {("x", None): c[0], ("y", None): c[1]})] \
            + [(len(combos), None)], text


# -- the compile's own paths: shared subtrees, vacuous binders, free atoms
# first met under a binder.

# A height-2 model whose type-0 domain is empty.
EMPTY_TYPE_0 = Model(kind="pure", max_type=2, domains=((), ("e",), ("e", "f")),
                     members={"e": frozenset(), "f": frozenset({"e"})},
                     cumulative=False)


@pytest.fixture(scope="module")
def compile_models(pure4_up, fjt2, fjt3_down):
    return {"pure4_up": pure4_up, "fjt2": fjt2, "fjt3_down": fjt3_down,
            "class1_3_up": build_sttu_companion(build_class_model(1, 3)),
            "empty_type_0": EMPTY_TYPE_0}


@pytest.mark.parametrize("regime", ["ctt", "stt-up", "fjt", "stt-down"])
def test_a_subtree_on_both_sides_of_a_connective(compile_models, regime):
    """f & f, f | f, f -> f and f <-> f share one object, so f compiles
    once and the connective runs it at most once."""
    for f in corpus(regime, seed=3):
        for conn in (And, Or, Implies, Iff):
            g = conn(f, f)
            for m in compile_models.values():
                agree_typed(m, g, envs(m, g))


def fresh_binders(f, n: int):
    v = Var("fresh", fin(n))            # a name FormulaGen never uses
    return [Forall(v, f), Exists(v, f)]


@pytest.mark.parametrize("regime", ["ctt", "stt-up", "fjt", "stt-down"])
def test_a_binder_its_body_never_reads(compile_models, regime):
    """On a non-empty domain the quantifier is its body, on an empty one a
    constant; a body that raises (unassigned, no such type, no raising map)
    raises only when the domain is non-empty."""
    bodies = corpus(regime, seed=4) + [parse_formula(t) for t in (
        "c^0 = c^0", "all z^9. z^9 = z^9", "up(c^0) = d^1", "c^0 = c^0 | d^1 = d^1")]
    for f in bodies:
        for n in (0, 1):
            for g in fresh_binders(f, n):
                for m in compile_models.values():
                    agree_typed(m, g, envs(m, g))


def test_a_vacuous_binder_still_checks_its_budget(fjt3):
    """The binder's domain is looked up and held to the budget before it
    is dropped: a budget below the domain's size raises where it is
    reached, and the empty type-0 domain stays under any budget."""
    for f in corpus("fjt", seed=5) + [parse_formula("c^0 = c^0")]:
        for n, budget in ((1, 1), (2, 3), (3, 100)):
            size = len(fjt3.domains[n])
            want = ("BudgetExceeded", f"quantifier over type {n} ranges over "
                    f"{size} entities, above budget {budget}")
            for g in fresh_binders(f, n):
                assert outcome(eval_formula, fjt3, g, {}, budget) == want
                assert outcome(lambda: next(counterexamples(
                    fjt3, [], expand_abbreviations(g), budget))) == want
        for g in fresh_binders(f, 0):
            assert eval_formula(EMPTY_TYPE_0, g, budget=0) is isinstance(g, Forall)
            swept = counterexamples(EMPTY_TYPE_0, [], expand_abbreviations(g), 0)
            assert (next(swept)[1] is None) is isinstance(g, Forall)


@pytest.mark.parametrize("text, assignment", [
    ("all x^0. c^1(x^0)", {("c", fin(1)): "{{}}"}),          # assigned
    ("some x^1. (c^2(x^1) & x^1 = x^1)", {}),                # reached
    ("all x^0. (x^0 = x^0 | c^1(x^0))", {}),                 # short-circuited
    ("some x^0. (~x^0 = x^0 & c^1(x^0))", {}),               # short-circuited
    ("all x^0. some y^1. (y^1(x^0) -> d^2(y^1))", {("d", fin(2)): "{}"}),
])
def test_a_free_atom_first_met_under_a_binder(pure4, text, assignment):
    f = parse_formula(text)
    agree_typed(pure4, f, [assignment])
    if not free_atoms(f) - {Const("c", fin(n)) for n in (1, 2)}:
        # c is no atom of the sweep, so it stays unassigned there too
        got = outcome(lambda: next(counterexamples(pure4, [], f))[1] is None)
        assert got == outcome(tree_eval_formula, pure4, f, {})


class CountingModel(Model):
    """A Model that counts its domain lookups."""
    lookups = 0

    def domain(self, index):
        self.lookups += 1
        return super().domain(index)


def counting(m: Model) -> CountingModel:
    return CountingModel(**{f.name: getattr(m, f.name) for f in fields(m)})


def test_one_walk_and_one_compile_per_evaluation(monkeypatch, pure4_up, fjt2):
    """decide_fjt never walks free_atoms for a well-formed sentence (its
    type walk tells whether the sentence is closed); a round trip whose
    image is its formula walks it once and looks each quantifier's domain
    up once (and each atom's, for the sweep); f & f looks them up as often
    as f."""
    from hotk import translate
    from hotk.models import decide
    walks = []

    def walk(f):
        walks.append(f)
        return free_atoms(f)

    for module in (translate, decide):
        monkeypatch.setattr(module, "free_atoms", walk)
    for f in corpus("fjt", seed=6, count=6):
        if not free_atoms(f):
            walks.clear()
            decide.decide_fjt(f, 2, model=fjt2)
            assert walks == [], f
    there, back = translate._ROUNDTRIPS[parse_regime("ctt").kind]
    texts = ["all x^1. some y^0. (x^1(y^0) & c^1(b^0))",
             "c^2(b^1) <-> all x^0. (some y^1. (y^1(x^0) | ~b^1(x^0)))",
             "some x^2. all y^1. x^2(y^1)"]
    for text in texts:
        f = parse_formula(text)
        assert back(there(f)) is f
        quantifiers = sum(isinstance(g, (Forall, Exists)) for g in subformulas(f))
        m = counting(pure4_up)
        walks.clear()
        report = translate.roundtrip_check(f, parse_regime("ctt"), m)
        assert report.semantic_equivalent and len(walks) == 1
        assert m.lookups == quantifiers + len(free_atoms(f))
        for conn in (And, Or, Implies, Iff):
            m = counting(pure4_up)
            outcome(lambda: next(counterexamples(m, [], conn(f, f))))
            assert m.lookups == quantifiers
