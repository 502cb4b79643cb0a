"""Differential test: the walks built on parts/rebuild against the ladders.

`tests/ladder_walks.py` keeps the hand-written `isinstance` walks the kernel
used before `hotk.kernel.syntax.parts` and `rebuild` took over the node
layout.  Every case here runs a walk from `hotk` and its ladder on the same
input: both must give the same result, or raise the same error class with
the same message.
"""

import pytest

import ladder_walks as ladder
from genutil import FormulaGen

from hotk import translate
from hotk.corpus import formation_matrix, golden_cases, separation_corpus
from hotk.kernel import (check_formation, expand_abbreviations, fin,
                         parse_formula, parse_regime)
from hotk.kernel.syntax import (And, Apply, Const, Forall, Exists, Raised,
                                StrictEq, Sugar, Var, all_names,
                                alpha_normalize, free_atoms, parts, rebuild,
                                subformulas, substitute)
from hotk.models.decide import top_type
from hotk.proofkit.fixtures import fixture_manifest, load_fixture

REGIMES = ["stt", "stt-up", "stt-down", "fjt", "ctt:w", "ctt:3",
           "ctt-liberal:w", "pctt:w"]

# Binders that shadow, bounds that name an outer variable of the binder's
# own name, sugar under bounded quantifiers, and raised terms.
EDGE_CASES = [
    "all y^1. some y^1 eq y^1. y^1(a^0)",
    "all y^1. all x^1 eq y^1. all y^1 in x^1. y^1(x^0)",
    "all x^0. (x^0 = x^0 & all x^0. some x^1 eq x^1. x^1(x^0))",
    "some z^1 eq z^1. all z^2 dn z^1. z^2(z^1)",
    "all v^1 eq v^1. (v^1 coext_1 v^1 & v^2 downeq w^2)",
    "all s^2. (Lev(s^2) -> Rank(a^2, s^2) | x^2 sub s^2)",
    "all x^0. all y^1. (up(x^0) = y^1 & z^2(up(up(x^0))))",
    "all r1^1. all c^1. x^1(a^0) <-> c^1(r1^1)",
    "~~all x^(w+1). some y^w. x^(w+1)(y^w)",
    "all x^0 in y^2. all y^2 in x^3. x^3(y^2)",
    "a^2 coext_2 b^3",
    "Hist(h^2)",
]


def _built_edge_cases():
    """Formulas the parser cannot produce: free variables, among them a
    bounded quantifier whose bound is a free variable of its binder's name."""
    x, a = Var("x", fin(1)), Const("a", fin(0))
    body = Apply(x, a)
    return [body,
            Sugar("bounded", ("all", x, "eq", x, body)),
            Sugar("bounded", ("some", x, "in", Raised(Var("x", fin(0))), body)),
            Forall(Var("y", fin(1)), Sugar("bounded", ("all", x, "eq", x, body)))]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:      # the ladder's error class and message
        return (type(e).__name__, str(e))


def _generated():
    out = []
    for name in ("ctt", "stt-up", "fjt", "stt-down"):
        for seed in range(3):
            for depth in range(1, 6):
                gen = FormulaGen(parse_regime(name), seed=100 * seed + depth,
                                 max_type=3, max_depth=depth)
                out += [gen.formula() for _ in range(12)]
    return out


def _proof_formulas():
    manifest = fixture_manifest()
    names = manifest["positive"] + [item["file"] for item in manifest["negative"]]
    out = []
    for name in names:
        proof = load_fixture(name)
        out += proof.hypotheses + [s.formula for s in proof.steps]
        out += [proof.goal] if proof.goal is not None else []
    return out


TYPED = (_generated()
         + [parse_formula(e["formula"]) for e in formation_matrix()["formulas"]]
         + [parse_formula(c["input"]) for c in golden_cases()]
         + [parse_formula(t) for t in EDGE_CASES]
         + _built_edge_cases()
         + _proof_formulas())
SET = separation_corpus()
ALL = TYPED + SET
EXPANDED = [g for g in (outcome(expand_abbreviations, f) for f in ALL)
            if not isinstance(g, tuple)]


def test_inputs_cover_every_node_kind():
    kinds = {type(g).__name__ for f in ALL for g in subformulas(f)}
    sugar = {g.kind for f in ALL for g in subformulas(f) if isinstance(g, Sugar)}
    assert kinds == {"Apply", "StrictEq", "DownRel", "InSet", "Not", "And",
                     "Or", "Implies", "Iff", "Forall", "Exists", "Sugar"}
    assert sugar == {"eq", "in", "coext", "coext_k", "downeq", "bounded",
                     "subset", "level", "history", "rank"}
    assert len(TYPED) > 800


def test_rebuild_inverts_parts():
    for f in ALL:
        for g in subformulas(f):
            assert rebuild(g, *parts(g)) == g


def test_subformulas_free_atoms_and_all_names():
    for f in ALL + EXPANDED:
        assert list(subformulas(f)) == list(ladder.subformulas(f))
        assert free_atoms(f) == ladder.free_atoms(f)
        assert all_names(f) == ladder.all_names(f)


def test_check_formation_full_verdict():
    regimes = [parse_regime(r) for r in REGIMES]
    for f in ALL + EXPANDED:
        for r in regimes:
            assert outcome(check_formation, f, r) == \
                outcome(ladder.check_formation, f, r), (f, r)


def _substitutions(f):
    """(formula, variable, replacement) cases drawn from f: each binder's
    variable inside its own body, replaced by a constant, by another binder's
    variable (capture), by a raised term, and by a term of another type
    (substitute is type-blind)."""
    binders = [g.var for g in subformulas(f) if isinstance(g, (Forall, Exists))]
    binders += [g.args[1] for g in subformulas(f)
                if isinstance(g, Sugar) and g.kind == "bounded"]
    cases = []
    for g in subformulas(f):
        if isinstance(g, (Forall, Exists)):
            v, body = g.var, g.body
        elif isinstance(g, Sugar) and g.kind == "bounded":
            v, body = g.args[1], g.args[4]
        else:
            continue
        cases.append((f, v, Const("c", v.index)))
        cases.append((body, v, Const("c", v.index)))
        for w in binders:
            cases.append((body, v, w))
            cases.append((body, v, Var(w.name, v.index)))
        cases.append((body, v, Raised(Const("r1", v.index))))
        cases.append((body, v, Raised(Const("c", v.index))))
    return cases


def test_substitute_including_capture():
    count = 0
    for f in ALL:
        for args in _substitutions(f):
            assert outcome(substitute, *args) == outcome(ladder.substitute, *args), args
            count += 1
    assert count > 2000


def test_alpha_normalize():
    for f in ALL + EXPANDED:
        assert alpha_normalize(f) == ladder.alpha_normalize(f)


@pytest.mark.parametrize("regime", [None] + REGIMES)
def test_expand_abbreviations(regime):
    r = None if regime is None else parse_regime(regime)
    for f in TYPED:
        assert outcome(expand_abbreviations, f, r) == \
            outcome(ladder.expand_abbreviations, f, r), (f, regime)


def max_finite_type(f):
    """The height a model needs to evaluate f: the largest type index among
    the terms and binders of f's expansion."""
    return top_type(expand_abbreviations(f))[0]


def _allowed_max_type_change(f, got):
    """max_finite_type reads f's expansion, so it differs from the ladder,
    which added a fixed rise to defined identity and membership only, on
    typed set sugar (whose expansion goes through defined membership), and
    on the type-0 coext and downeq atoms, whose expansion raises the
    formation error they break (formation rejects both before decide_fjt
    reaches them)."""
    sugar = [g for g in subformulas(f) if isinstance(g, Sugar)]
    if isinstance(got, tuple):
        return got[0] == "FormationError" and any(
            g.kind in ("coext", "downeq") and g.args[0].index == fin(0)
            for g in sugar)
    return (any(g.kind in ("subset", "level", "history", "rank")
                and parts(g)[0][0].index is not None for g in sugar)
            and got == ladder.max_finite_type(expand_abbreviations(f)))


def test_max_finite_type():
    changed = 0
    for f in ALL + EXPANDED:
        got = outcome(max_finite_type, f)
        if got != outcome(ladder.max_finite_type, f):
            assert _allowed_max_type_change(f, got), f
            changed += 1
    assert changed == 6


def test_the_type_walk_also_tells_whether_a_formula_is_closed():
    """decide_fjt reads closedness off top_type, not off free_atoms."""
    seen = set()
    for g in EXPANDED:
        got = outcome(top_type, g)
        if got[0] != "FormationError":
            assert got == (max_finite_type(g), not free_atoms(g)), g
            seen.add(got[1])
    assert seen == {True, False}


# The regimes FormulaGen draws from, each at heights 0-3.
GEN_REGIMES = ["ctt:w", "ctt:3", "pctt:w", "stt-up", "stt-down", "fjt"]

# Transfinite and untyped indices, type-0 coext beside a transfinite index
# (expansion's error comes first, wherever the index is), raised terms and
# shadowed binders.
TYPE_WALK_CASES = [
    "all x^w. x^w = x^w",
    "a^(w+1)(b^w)",
    "all x^w. a^0 = a^0",
    "a^0 coext b^0 & c^w = c^w",
    "c^w = c^w & a^0 coext b^0",
    "all x^w. x^0 coext y^0",
    "all x^0. up(x^0) = y^1",
    "up(a^w) = b^(w+1)",
    "all x^0. all y^1. up(up(x^0)) = up(y^1)",
    "all x^0. some x^0. x^0 = y^0",
    "all x^1. ((x^1(a^0) & all x^1. x^1(b^0)) & x^1(c^0))",
    "all x^0. all x^1. x^1(x^0)",
    "some x^1. all y^1. (x^1 eq y^1 & all x^2. x^2 in y^3)",
]


def _built_type_walk_cases():
    """Untyped terms and binders, which the typed notation cannot write."""
    x, a = Var("x", None), Const("a", None)
    b0, c0 = Const("b", fin(0)), Const("c", fin(0))
    coext = Sugar("coext", (b0, c0))
    return [Forall(x, StrictEq(x, x)),
            Forall(x, Apply(Const("p", fin(1)), b0)),
            StrictEq(Raised(a), Const("d", fin(1))),
            And(StrictEq(a, a), coext),
            And(coext, StrictEq(a, a))]


def _type_walk_generated():
    out = []
    for name in GEN_REGIMES:
        for height in range(4):
            for seed in range(3):
                gen = FormulaGen(parse_regime(name), seed=10 * seed + height,
                                 max_type=height)
                out += [gen.sentence() for _ in range(4)]
                out += [gen.formula() for _ in range(4)]
    return out


TYPE_WALK = (_type_walk_generated()
             + [parse_formula(t) for t in TYPE_WALK_CASES]
             + _built_type_walk_cases())


def test_the_type_walk_agrees_with_the_set_walk():
    """top_type against the walk that kept its binders and indices in sets:
    the same (height, closed), or the same error class and message."""
    outcomes = []
    for f in ALL + EXPANDED + TYPE_WALK:
        got = outcome(top_type, f)
        assert got == outcome(ladder.top_type, f), f
        outcomes.append(got)
    assert ("FormationError", "finitary sentences need finite typed terms") \
        in outcomes
    assert {top for top, _ in outcomes if isinstance(top, int)} == {0, 1, 2, 3, 4, 5}
    assert {closed for _, closed in outcomes if isinstance(closed, bool)} == \
        {True, False}
    for text in ("a^0 coext b^0 & c^w = c^w", "c^w = c^w & a^0 coext b^0"):
        assert outcome(top_type, parse_formula(text)) == (
            "FormationError", "coextensiveness undefined at type 0 in a^0 coext b^0")


def test_free_atoms_over_the_type_walk_corpus():
    """free_atoms against the ladder on generated formulas under every
    regime at heights 0-3, raised terms and shadowed binders."""
    for f in TYPE_WALK:
        assert free_atoms(f) == ladder.free_atoms(f), f
    assert any(free_atoms(f) for f in TYPE_WALK)
    assert any(not free_atoms(f) for f in TYPE_WALK)


def test_map_formula_visits_atoms_in_the_same_order():
    def logging(log):
        def atom(g):
            log.append(g)
            return Forall(Var("t", fin(0)), g)
        return atom

    for f in EXPANDED:
        ours, theirs = [], []
        assert translate._map_formula(f, logging(ours)) == \
            ladder.map_formula(f, logging(theirs))
        assert ours == theirs


def test_kappa_translate():
    for kappa in (fin(1), fin(2)):
        for f in SET + TYPED:
            assert outcome(translate.kappa_translate, f, kappa) == \
                outcome(ladder.kappa_translate, f, kappa), f


def test_translations_match_the_ladder_pipeline(monkeypatch):
    maps = [translate.ctt_to_sttu, translate.sttu_to_ctt,
            translate.fjt_to_sttd, translate.sttd_to_fjt]
    ours = [[outcome(m, f) for m in maps] for f in TYPED]
    monkeypatch.setattr(translate, "_map_formula", ladder.map_formula)
    monkeypatch.setattr(translate, "expand_abbreviations",
                        ladder.expand_abbreviations)
    theirs = [[outcome(m, f) for m in maps] for f in TYPED]
    assert ours == theirs
