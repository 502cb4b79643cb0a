"""Differential test: round trips that expand once and alpha_equal as one
walk over both trees, against the parent implementations.

`tests/roundtrip_oracle.py` keeps the translation maps and `roundtrip_check`
as they were when every map expanded its input and round trips compared
`alpha_normalize` images.  Every case here runs `hotk` and the oracle on
the same input: both must give the same result, or raise the same error
class with the same message.
"""

import pytest

import roundtrip_oracle as oracle
from genutil import FormulaGen
from test_walks import EDGE_CASES, _built_edge_cases, _proof_formulas, outcome

from hotk import translate
from hotk.corpus import golden_cases, separation_corpus
from hotk.kernel import parse_formula, parse_regime, print_formula
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.syntax import (Const, Sugar, Var, alpha_equal, alpha_normalize,
                                parts, rebuild)
from hotk.models import core

PLANS = ["ctt", "stt-up", "fjt", "stt-down"]
MAPS = {"i-ctt-sttu": (translate.ctt_to_sttu, oracle.ctt_to_sttu),
        "j-sttu-ctt": (translate.sttu_to_ctt, oracle.sttu_to_ctt),
        "i-fjt-sttd": (translate.fjt_to_sttd, oracle.fjt_to_sttd),
        "j-sttd-fjt": (translate.sttd_to_fjt, oracle.sttd_to_fjt)}


def _generated(plan, max_type, per_depth):
    out = []
    for seed in range(3):
        for depth in range(1, 6):
            gen = FormulaGen(parse_regime(plan), seed=100 * seed + depth,
                             max_type=max_type, max_depth=depth)
            out += [gen.formula() for _ in range(per_depth)]
    return out


GENERATED = {plan: _generated(plan, 3, 8) for plan in PLANS}
HANDWRITTEN = ([parse_formula(c["input"]) for c in golden_cases()]
               + [parse_formula(t) for t in EDGE_CASES] + _built_edge_cases())


def printed(f):
    return print_formula(f) if not isinstance(f, tuple) else f


def test_public_maps_print_the_same():
    corpus = [f for plan in PLANS for f in GENERATED[plan]] + HANDWRITTEN
    for name, (ours, theirs) in MAPS.items():
        tmap = translate.parse_map(name)
        for f in corpus:
            expect = printed(outcome(theirs, f))
            assert printed(outcome(ours, f)) == expect, (name, f)
            assert printed(outcome(tmap.apply, f)) == expect, (name, f)


@pytest.mark.parametrize("plan", PLANS)
def test_syntactic_reports_on_every_corpus(plan):
    regime = parse_regime(plan)
    corpus = [f for p in PLANS for f in GENERATED[p]] + HANDWRITTEN
    results = set()
    for f in corpus:
        got = outcome(translate.roundtrip_check, f, regime)
        assert got == outcome(oracle.roundtrip_check, f, regime), f
        results.add(got.syntactic_equal if not isinstance(got, tuple) else "error")
    assert results == {True, False, "error"}


# (source plan, max type of its formulas, model): each plan on its own
# reference model, and on fjt2, where the ctt trip has counterexamples and
# the others meet models without the relations they need.
SEMANTIC = [("ctt", 3, "pure4_up"), ("stt-up", 3, "pure4_up"),
            ("fjt", 2, "fjt3_down"), ("stt-down", 2, "fjt3_down"),
            ("ctt", 2, "fjt2"), ("stt-up", 2, "fjt2"), ("fjt", 2, "fjt2"),
            ("stt-down", 2, "fjt2")]


@pytest.mark.parametrize("plan,max_type,model", SEMANTIC)
def test_semantic_reports(plan, max_type, model, request):
    m = request.getfixturevalue(model)
    regime = parse_regime(plan)
    for f in _generated(plan, max_type, 3):
        got = outcome(translate.roundtrip_check, f, regime, m)
        assert got == outcome(oracle.roundtrip_check, f, regime, m), f


def test_semantic_reports_cover_counterexamples_and_errors(fjt2):
    got = [outcome(translate.roundtrip_check, f, parse_regime(plan), fjt2)
           for plan in ("ctt", "stt-up") for f in _generated(plan, 2, 2)]
    assert any(not isinstance(r, tuple) and r.counterexample for r in got)
    assert any(isinstance(r, tuple) for r in got)


# -- alpha_equal ------------------------------------------------------------

def _edit_first(f, fn):
    """f with the first node, in pre-order, for which fn returns a
    replacement replaced by it."""
    done = False

    def go(g):
        nonlocal done
        new = None if done else fn(g)
        if new is not None:
            done = True
            return new
        terms, binder, bodies = parts(g)
        return rebuild(g, terms, binder, [go(b) for b in bodies])

    return go(f)


def _map_terms(f, fn):
    terms, binder, bodies = parts(f)
    return rebuild(f, [fn(t) for t in terms], binder,
                   [_map_terms(b, fn) for b in bodies])


def _renamed(f, name_of):
    """f with its k-th binder (pre-order) renamed to name_of(k), and the
    occurrences it binds with it."""
    count = 0

    def rename(t, images):
        if hasattr(t, "inner"):
            return type(t)(rename(t.inner, images))
        if isinstance(t, Var):
            return images.get((t.name, t.index), t)
        return t

    def go(g, images):
        nonlocal count
        terms, binder, bodies = parts(g)
        terms = [rename(t, images) for t in terms]
        if binder is not None:
            count += 1
            new = Var(name_of(count), binder.index)
            images = {**images, (binder.name, binder.index): new}
            binder = new
        return rebuild(g, terms, binder, [go(b, images) for b in bodies])

    return go(f, {})


def _with_binder(change):
    def fn(g):
        terms, binder, bodies = parts(g)
        if binder is None:
            return None
        new = change(binder)
        return None if new is None else rebuild(g, terms, new, bodies)
    return fn


def _const_for_bound_var(g):
    """The first binder's occurrences in its body read as constants of the
    same name and type."""
    terms, binder, bodies = parts(g)
    if binder is None:
        return None

    def swap(t):
        if hasattr(t, "inner"):
            return type(t)(swap(t.inner))
        if t == binder:
            return Const(t.name, t.index)
        return t
    return rebuild(g, terms, binder, [_map_terms(b, swap) for b in bodies])


def _other_sugar_argument(g):
    if not isinstance(g, Sugar):
        return None
    other = {"all": "some", "some": "all", "eq": "in", "in": "eq", "dn": "eq"}
    args = []
    changed = False
    for a in g.args:
        if not changed and isinstance(a, int):
            a, changed = a + 1, True
        elif not changed and isinstance(a, str):
            a, changed = other[a], True
        args.append(a)
    return Sugar(g.kind, tuple(args)) if changed else None


def _variants(f):
    """f beside formulas that differ from it only in binder names, in a
    bound-vs-free swap, in a Var/Const of the same name, in a binder's type
    index or in a sugar argument, and their expansions and normalizations."""
    unbound = _edit_first(f, _with_binder(lambda b: Var(b.name + "_", b.index)))
    retyped = _edit_first(f, _with_binder(
        lambda b: None if b.index is None else Var(b.name, b.index.succ())))
    as_const = _edit_first(f, _const_for_bound_var)
    sugar_arg = _edit_first(f, _other_sugar_argument)
    out = [f, _renamed(f, lambda k: f"r{k}"), _renamed(f, lambda k: "x"),
           _renamed(f, lambda k: f"r{k % 2}"), unbound, retyped, as_const,
           _renamed(as_const, lambda k: f"r{k}"), sugar_arg,
           _renamed(sugar_arg, lambda k: f"r{k}"), alpha_normalize(f)]
    expanded = outcome(expand_abbreviations, f, None)
    if not isinstance(expanded, tuple):
        out += [expanded, alpha_normalize(expanded),
                _renamed(expanded, lambda k: f"r{k}"),
                _edit_first(expanded, _const_for_bound_var)]
    return out


ALPHA_BASES = (HANDWRITTEN + _proof_formulas() + separation_corpus()
               + [f for plan in PLANS for f in GENERATED[plan][::4]])


def test_alpha_equal_agrees_with_normalization():
    seen = {True: 0, False: 0}
    for f in ALPHA_BASES:
        group = _variants(f)
        for a in group:
            for b in group:
                expect = oracle.alpha_equal(a, b)
                assert alpha_equal(a, b) == expect, (a, b)
                seen[expect] += 1
    assert min(seen.values()) > 5000


def test_alpha_equal_cases():
    same = [("all x^1. x^1(a^0)", "all y^1. y^1(a^0)"),
            ("all x^0 in y^2. x^0 = x^0", "all z^0 in y^2. z^0 = z^0"),
            ("all x^0. all x^0. x^0 = x^0", "all x^0. all y^0. y^0 = y^0"),
            ("all x^0. all x^1. x^1(x^0)", "all y^0. all z^1. z^1(y^0)")]
    differ = [("all x^1. x^1(a^0)", "all y^1. x^1(a^0)"),
              ("all x^1. x^1(a^0)", "all x^2. x^1(a^0)"),
              ("all x^0. all y^0. x^0 = y^0", "all x^0. all y^0. y^0 = x^0"),
              ("all x^0. up(x^0) = b^1", "all x^0. up(up(x^0)) = b^2"),
              ("a^2 coext_1 b^3", "a^2 coext_2 b^3"),
              ("all x^0 in y^2. x^0 = x^0", "some x^0 in y^2. x^0 = x^0"),
              ("all x^0 in y^2. x^0 = x^0", "all x^0 eq y^2. x^0 = x^0"),
              ("a^1 eq b^1", "a^1 in b^1")]
    for left, right in same + differ:
        f, g = parse_formula(left), parse_formula(right)
        assert alpha_equal(f, g) == oracle.alpha_equal(f, g) == \
            ((left, right) in same), (left, right)
    # A constant named like the binder above it is not bound by it.
    body = parse_formula("all b. b in a", mode="set")
    f, g = type(body)(Var("a", None), body), type(body)(Var("c", None), body)
    assert alpha_equal(f, g) is oracle.alpha_equal(f, g) is True


# -- walk counts ------------------------------------------------------------

def test_round_trips_expand_at_most_twice(monkeypatch, pure4_up, fjt3_down):
    calls = []

    def counting(f, regime=None):
        calls.append(f)
        return expand_abbreviations(f, regime)

    monkeypatch.setattr(translate, "expand_abbreviations", counting)
    monkeypatch.setattr(core, "expand_abbreviations", counting)
    for plan, model in (("ctt", pure4_up), ("stt-up", pure4_up),
                        ("fjt", fjt3_down), ("stt-down", fjt3_down)):
        regime = parse_regime(plan)
        for f in _generated(plan, 2, 1):
            for m in (None, model):
                calls.clear()
                translate.roundtrip_check(f, regime, m)
                assert len(calls) <= 2, (plan, m is not None, f)
