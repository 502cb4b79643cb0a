"""Differential test: defined identity compiled as an owner-set comparison.

On a typed model, `a eq b` and `all v^g. v(a) <-> v(b)` (v in neither a nor
b) compile to one comparison of a's and b's owner sets at type g, from the
model's converse member table.  The reference here is
`all v^g. (v(a) -> v(b)) & (v(b) -> v(a))`, which the compiler still
evaluates as a loop over the type-g domain: both must give the same truth
value, or raise the same error class with the same message, under the
default budget and under one below the domain's size.
"""

from dataclasses import replace
from itertools import islice, product

import pytest

from test_compile import outcome

from hotk.corpus import graph_fixture, transitive_fixture_names
from hotk.errors import DEFAULT_BUDGET, EvalError
from hotk.kernel import fin, parse_formula
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.indices import OMEGA
from hotk.kernel.syntax import (And, Apply, Const, Forall, Iff, Implies, Raised,
                                Sugar, Var, parts, rebuild, term_index)
from hotk.models import (Model, build_class_model, build_fjt_canonical,
                         build_graph_model, build_pure_model,
                         build_sttd_companion, build_sttu_companion,
                         eval_formula)
from hotk.settheory import T_construction, build_V


def typed_models():
    out = {}
    for h in (1, 2, 3, 4):
        pure = build_pure_model(h)
        out[f"pure{h}"] = pure
        out[f"pure{h}_up"] = build_sttu_companion(pure)
    for h in (0, 1, 2, 3):
        fjt = build_fjt_canonical(h)
        out[f"fjt{h}"] = fjt
        if h:
            out[f"fjt{h}_down"] = build_sttd_companion(fjt)
    out["class1_3"] = build_class_model(1, 3)
    out["class1_3_up"] = build_sttu_companion(out["class1_3"])
    graphs = {f"V{n}": build_V(n) for n in (1, 2, 3, 4)}
    graphs.update((name, graph_fixture(name)) for name in transitive_fixture_names())
    for name, g in graphs.items():
        out[f"T({name})"] = T_construction(g)
        out[f"graph({name})"] = build_graph_model(g)
    return out


MODELS = typed_models()
V = Var("v", None)


def forms(s, t, gamma):
    """(a eq b when gamma is its type, the quantifier the compiler reads as
    an identity, the loop it must agree with)."""
    v = replace(V, index=gamma)
    written = []
    if gamma == max(term_index(s), term_index(t)).succ():
        written.append(Sugar("eq", (s, t)))
    written.append(Forall(v, Iff(Apply(v, s), Apply(v, t))))
    loop = Forall(v, And(Implies(Apply(v, s), Apply(v, t)),
                         Implies(Apply(v, t), Apply(v, s))))
    return written, loop


def agree(m, s, t, gamma, envs, budgets=None):
    written, loop = forms(s, t, gamma)
    if budgets is None:
        try:
            size = len(m.domain(gamma))
        except EvalError:
            size = 1
        budgets = (DEFAULT_BUDGET, max(size - 1, 0))
    for env in envs:
        for budget in budgets:
            want = outcome(eval_formula, m, loop, env, budget)
            for f in written:
                assert outcome(eval_formula, m, f, env, budget) == want, \
                    (f, env, budget)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_entity_pair_at_every_pair_of_types(name):
    """Every pair of entities at types (i, j) up to the height, at the type
    above both, so one type above the height as well."""
    m = MODELS[name]
    a, b = Var("a", None), Var("b", None)
    for i, j in product(range(m.max_type + 1), repeat=2):
        s, t = replace(a, index=fin(i)), replace(b, index=fin(j))
        count = len(m.domains[i]) * len(m.domains[j])
        # every pair where there are few, else every k-th, about 100 in all
        pairs = islice(product(m.domains[i], m.domains[j]), 0, None,
                       1 if count <= 300 else count // 100 + 1)
        envs = [{("a", fin(i)): x, ("b", fin(j)): y} for x, y in pairs]
        agree(m, s, t, fin(max(i, j) + 1), envs)


@pytest.mark.parametrize("name", ["pure4_up", "class1_3_up", "fjt3", "pure2"])
def test_raised_terms(name):
    """up(x) against a term one type up, with and without a raising map,
    and with a map that misses the entity."""
    m = MODELS[name]
    x, y = Var("x", fin(0)), Var("y", fin(1))
    maps = [m] if m.up_map is None else [
        m, replace(m, up_map={k: e for k, e in m.up_map.items() if k[0] != 0})]
    for model in maps:
        envs = [{("x", fin(0)): e, ("y", fin(1)): f}
                for e, f in product(model.domains[0], model.domains[1])]
        agree(model, Raised(x), y, fin(2), envs)
        agree(model, y, Raised(x), fin(2), envs)
        agree(model, Raised(x), Raised(x), fin(2), envs[:1])


def test_missing_domains_budgets_and_unassigned_terms():
    fjt2 = MODELS["fjt2"]
    empty_1 = replace(fjt2, max_type=1, domains=(fjt2.domains[0], ()),
                      open_above=False)
    a0, b0, c0 = Var("a", fin(0)), Const("b", fin(0)), Const("c", fin(0))
    wa, wb = Const("a", OMEGA), Const("b", fin(0))
    e = fjt2.domains[0][0]
    envs = [{}, {("a", fin(0)): e}, {("b", fin(0)): e},
            {("a", fin(0)): e, ("b", fin(0)): e}]
    for m in (fjt2, empty_1, MODELS["pure4"], MODELS["graph(V2)"]):
        for gamma in (fin(1), fin(2), fin(3), fin(7), OMEGA, OMEGA.succ(), None):
            agree(m, a0, b0, gamma, envs, budgets=(DEFAULT_BUDGET, 1, 0))
            agree(m, c0, a0, gamma, envs, budgets=(DEFAULT_BUDGET, 0))
        # a transfinite term puts the identity at w+1
        agree(m, wa, wb, OMEGA.succ(), envs)
    # an empty type-1 domain makes a^0 eq b^0 true before either is read
    assert eval_formula(empty_1, parse_formula("a^0 eq b^0")) is True
    f = parse_formula("a^2 eq b^2")
    assert outcome(eval_formula, MODELS["pure4"], f, {}, 15) == (
        "BudgetExceeded", "quantifier over type 3 ranges over 16 entities, "
        "above budget 15")
    assert outcome(eval_formula, MODELS["pure4"], f, {}, 16) == (
        "EvalError", "unassigned free term a^2")


def test_formulas_that_hold_identities(pure4, fjt3):
    """Identities under binders, whose values the quantifier caches keep,
    and the quantifier forms the recognizer must leave to the loop."""
    texts = ["all x^1. all y^1. (x^1 eq y^1 -> x^1 = y^1)",
             "all x^0. some y^1. x^0 eq y^1", "some x^1. ~x^1 eq a^0",
             "all x^1. some y^2. (x^1 eq y^2 & y^2(b^0))",
             "all v^2. (v^2(v^2) <-> v^2(a^1))",
             "all v^2. (v^2(a^1) <-> v^2(v^2))",
             "all v^2. (v^2(up(v^2)) <-> v^2(a^1))",
             "all v^2. (w^2(a^1) <-> v^2(a^1))",
             "some v^2. (v^2(a^1) <-> v^2(b^1))",
             "all x^1. all v^2. (v^2(x^1) <-> v^2(x^1))",
             "all x^0. some y^1. x^0 in y^1", "some x^1 eq a^1. x^1(b^0)"]
    for m in (pure4, fjt3, MODELS["pure4_up"]):
        for text in texts:
            f = parse_formula(text)
            for env in ({}, {("a", fin(0)): m.domains[0][0],
                             ("a", fin(1)): m.domains[1][-1],
                             ("b", fin(0)): m.domains[0][0],
                             ("b", fin(1)): m.domains[1][0]}):
                got = outcome(eval_formula, m, f, env)
                want = outcome(eval_formula, m, _as_loops(f), env)
                assert got == want, (text, env)


def _as_loops(f):
    """f expanded, with every `l <-> r` between two applications written
    as `(l -> r) & (r -> l)`, which reads the same terms in the same order
    and which the compiler evaluates as written."""
    def go(g):
        terms, binder, bodies = parts(g)
        if type(g) is Iff and type(g.left) is Apply and type(g.right) is Apply:
            return And(Implies(g.left, g.right), Implies(g.right, g.left))
        if not bodies:
            return g
        return rebuild(g, terms, binder, [go(b) for b in bodies])
    return go(expand_abbreviations(f))


class CountingDomain(tuple):
    """A domain that counts how often it is iterated."""
    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_one_pass_over_the_domain_per_entity():
    """Each entity's owners are found in one pass over D_2, and kept: the
    loop would pass over D_2 once for each of the 9 pairs."""
    sets = ("{}", "{p}", "{q}", "{p,q}", "{p,r}", "{p,q,r}")
    members = {"o": frozenset(), "p": frozenset(), "q": frozenset(),
               "r": frozenset(), "{}": frozenset()}
    members.update((s, frozenset(s.strip("{}").split(",")) - {""}) for s in sets)
    top = CountingDomain(sets)
    m = Model(kind="test", max_type=2, domains=(("o",), ("p", "q", "r"), top),
              members=members, cumulative=False)
    f = parse_formula("all x^1. all y^1. (x^1 eq y^1 -> x^1 = y^1)")
    CountingDomain.iterations = 0
    assert eval_formula(m, f) is True
    assert CountingDomain.iterations <= 3
    assert eval_formula(m, f) is True and CountingDomain.iterations <= 3
    table = m.converse(2)
    assert {d for d, bit in zip(table.dom, table["q"]) if bit} == \
        {"{q}", "{p,q}", "{p,q,r}"}
    # the table is no part of the model's value
    assert m == replace(m) and "_tables" not in repr(m)
    assert m.to_json() == replace(m).to_json()
