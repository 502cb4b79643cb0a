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
from hotk.kernel.syntax import (Apply, Const, Forall, Exists, Raised, Sugar, Var,
                                all_names, alpha_normalize, free_atoms, parts,
                                rebuild, subformulas, substitute)
from hotk.models import max_finite_type
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
    """(formula, variable, replacement, strict) cases drawn from f: each
    binder's variable inside its own body, replaced by a constant, by another
    binder's variable (capture), by a raised term, and by a term of the
    wrong type."""
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
        cases.append((f, v, Const("c", v.index), True))
        cases.append((body, v, Const("c", v.index), True))
        for w in binders:
            cases.append((body, v, w, False))
            cases.append((body, v, Var(w.name, v.index), True))
        cases.append((body, v, Raised(Const("r1", v.index)), False))
        cases.append((body, v, Raised(Const("c", v.index)), True))
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
