"""Differential test: round trips that expand once and alpha_equal as one
walk over both trees, against the parent implementations.

`tests/roundtrip_oracle.py` keeps the translation maps and `roundtrip_check`
as they were when every map expanded its input and round trips compared
`alpha_normalize` images.  Every case here runs `hotk` and the oracle on
the same input: both must give the same result, or raise the same error
class with the same message.
"""

from dataclasses import replace

import pytest

import roundtrip_oracle as oracle
from genutil import FormulaGen
from test_walks import EDGE_CASES, _built_edge_cases, _proof_formulas, outcome

from hotk import translate
from hotk.corpus import golden_cases, separation_corpus
from hotk.kernel import (expand, parse_formula, parse_regime, print_formula,
                         syntax)
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.indices import fin
from hotk.kernel.syntax import (ATOMS, And, Apply, Const, Forall, Not, Or,
                                StrictEq, Sugar, Var, alpha_equal,
                                alpha_normalize, free_atoms, parts, rebuild)
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
# Formulas whose own names are the ones the maps would pick first.
TAKEN_NAMES = ["all w1^0. w2^2(up(w1^0))",
               "some w2^1. (up(w2^1) = w1^2 & w3^3(up(up(w2^1))))",
               "all y2_1^2. (a^3(b^0) & y2_1^2(c^1))",
               "all y2_1^2. all y1_1^1. (y2_1^2(w1^0) | a^4(y1_1^1))",
               "all w1^2. w1^2 eq w2^2 & some v1^3. v1^3(up(w1^2))"]
HANDWRITTEN = ([parse_formula(c["input"]) for c in golden_cases()]
               + [parse_formula(t) for t in TAKEN_NAMES]
               + [parse_formula(t) for t in EDGE_CASES] + _built_edge_cases())


def printed(f):
    return print_formula(f) if not isinstance(f, tuple) else f


def test_public_maps_print_the_same():
    corpus = [f for plan in PLANS for f in GENERATED[plan]] + HANDWRITTEN
    for name, (ours, theirs) in MAPS.items():
        tmap = translate.parse_map(name)
        for f in corpus:
            expect = printed(outcome(theirs, f))
            got = outcome(ours, f)
            assert printed(got) == expect, (name, f)
            assert printed(outcome(tmap.apply, f)) == expect, (name, f)
            # The map's body defines the atoms it brings in: no sugar left.
            if not isinstance(got, tuple):
                assert expand_abbreviations(got, None) is got, (name, f)


def test_fresh_names_are_collected_only_when_needed(monkeypatch):
    """The maps collect a formula's names only when an atom first needs a
    fresh variable (test_public_maps_print_the_same checks that they pick
    the names the eager oracle picks, TAKEN_NAMES included)."""
    scans = []
    all_names = syntax.all_names
    for module in (syntax, expand, translate):
        monkeypatch.setattr(module, "all_names",
                            lambda f: scans.append(f) or all_names(f),
                            raising=False)
    # No raised term and no gap above 1: no fresh variable, no scan.
    translate.sttu_to_ctt(parse_formula("all x^0. (a^1(x^0) & x^0 = b^0)"))
    translate.fjt_to_sttd(parse_formula("all x^1. (a^2(x^1) | c^1(b^0))"))
    assert scans == []
    translate.fjt_to_sttd(parse_formula("a^3(b^0)"))
    assert len(scans) == 1
    # One scan for the map: the eq it brings in draws from the same supply.
    translate.sttu_to_ctt(parse_formula("a^2(up(b^0))"))
    assert len(scans) == 2


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


def _items(got):
    """A counterexample's items in order: report equality alone ignores
    the order of a dict's keys."""
    cx = getattr(got, "counterexample", None)
    return cx and list(cx.items())


def same_report(f, regime, m):
    """The report, or the error class and message, of the round trip of f,
    which must match the oracle's."""
    got = outcome(translate.roundtrip_check, f, regime, m)
    expect = outcome(oracle.roundtrip_check, f, regime, m)
    assert got == expect and _items(got) == _items(expect), f
    return got


@pytest.mark.parametrize("plan,max_type,model", SEMANTIC)
def test_semantic_reports(plan, max_type, model, request):
    m = request.getfixturevalue(model)
    regime = parse_regime(plan)
    for f in _generated(plan, max_type, 3):
        same_report(f, regime, m)


def test_semantic_reports_cover_counterexamples_and_errors(fjt2):
    got = [outcome(translate.roundtrip_check, f, parse_regime(plan), fjt2)
           for plan in ("ctt", "stt-up") for f in _generated(plan, 2, 2)]
    assert any(not isinstance(r, tuple) and r.counterexample for r in got)
    assert any(isinstance(r, tuple) for r in got)


def _patch_back_maps(monkeypatch, kind, change):
    """Make the back map of the round trip from kind, in hotk and in the
    oracle, return change(image) instead of its image."""
    for module in (translate, oracle):
        there, back = module._ROUNDTRIPS[kind]
        monkeypatch.setitem(module._ROUNDTRIPS, kind,
                            (there, lambda g, back=back: change(back(g))))


def _negate_first_atom(f):
    return _edit_first(f, lambda g: Not(g) if type(g) in ATOMS else None)


REFERENCE = {"ctt": "pure4_up", "stt-up": "pure4_up", "fjt": "fjt3_down",
             "stt-down": "fjt3_down"}


@pytest.mark.parametrize("plan", PLANS)
def test_broken_back_maps_give_the_same_counterexamples(plan, request,
                                                        monkeypatch):
    m = request.getfixturevalue(REFERENCE[plan])
    regime = parse_regime(plan)
    _patch_back_maps(monkeypatch, regime.kind, _negate_first_atom)
    found = []
    for f in _generated(plan, 2, 3):
        got = same_report(f, regime, m)
        if not isinstance(got, tuple) and got.counterexample is not None:
            found.append(got.assignments_checked)
    assert len(found) > 10 and max(found) > 1


def test_models_with_an_empty_or_a_missing_domain(fjt2):
    empty_0 = replace(fjt2, domains=((),) + fjt2.domains[1:])
    empty_1 = replace(fjt2, max_type=1, domains=(fjt2.domains[0], ()),
                      open_above=False)
    short = replace(fjt2, max_type=1, domains=fjt2.domains[:2],
                    open_above=False)
    regime = parse_regime("ctt")
    formulas = [parse_formula(t) for t in
                ("a^1(b^0)", "c^2(a^1) & a^1(b^0)", "c^2(a^1)",
                 "all x^0. c^2(x^0)", "a^0 = a^0")] + _generated("ctt", 2, 2)
    seen = set()
    for m in (empty_0, empty_1, short):
        for f in formulas:
            got = same_report(f, regime, m)
            seen.add(got if isinstance(got, tuple)
                     else got.assignments_checked == 0)
    # Sweeps that stop at an empty domain before a missing one, sweeps
    # that meet the missing type, and sweeps that check nothing.
    assert same_report(formulas[1], regime, empty_1).assignments_checked == 0
    assert ("EvalError", "type bound exceeded: model has no type 2") in seen
    assert True in seen and False in seen


def test_an_image_with_a_free_atom_the_original_lacks(monkeypatch, pure4_up):
    z = Const("z", fin(0))
    regime = parse_regime("ctt")
    outcomes = set()
    for join in (And, Or):
        with monkeypatch.context() as patch:
            _patch_back_maps(patch, regime.kind,
                             lambda g, join=join: join(g, StrictEq(z, z)))
            for f in _generated("ctt", 3, 3):
                got = same_report(f, regime, pure4_up)
                outcomes.add(got if isinstance(got, tuple) else "report")
    assert ("EvalError", "unassigned free term z^0") in outcomes
    assert "report" in outcomes


def test_a_free_var_and_const_that_share_a_key(monkeypatch, request):
    """Both atoms count in the sweep; the later one in sorted order gives
    the slot they share, and the counterexample, its value."""
    p, P = Var("p", fin(1)), Const("p", fin(1))
    a, A = Var("a", fin(0)), Const("a", fin(0))
    formulas = [And(Apply(p, a), Apply(P, A)), Or(Apply(p, A), Not(Apply(P, a))),
                Apply(p, A), Forall(Var("x", fin(0)), Apply(P, a))]
    for plan in PLANS:
        m = request.getfixturevalue(REFERENCE[plan])
        sweep = (len(m.domain(fin(0))) * len(m.domain(fin(1)))) ** 2
        regime = parse_regime(plan)
        assert same_report(formulas[0], regime, m).assignments_checked == sweep
        for f in formulas:
            same_report(f, regime, m)
        with monkeypatch.context() as patch:
            _patch_back_maps(patch, regime.kind, _negate_first_atom)
            got = [same_report(f, regime, m) for f in formulas]
        assert all(list(r.counterexample) == ["a^0", "p^1"] for r in got)
        assert any(r.assignments_checked > 1 for r in got)


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
    # One subtree shared by both sides, under binders named alike or not.
    x, y, z = Var("x", fin(0)), Var("y", fin(0)), Var("z", fin(0))
    bound, free = StrictEq(x, x), StrictEq(z, z)
    for f, g, expect in [
            (Forall(x, bound), Forall(x, bound), True),
            (Forall(x, bound), Forall(y, bound), False),
            (Forall(x, Forall(y, bound)), Forall(y, Forall(x, bound)), False),
            (Forall(x, Forall(x, bound)), Forall(y, Forall(x, bound)), True),
            (Forall(x, free), Forall(y, free), True),
            (And(Forall(x, bound), bound), And(Forall(y, bound), bound), False)]:
        assert alpha_equal(f, g) is oracle.alpha_equal(f, g) is expect, (f, g)
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


def test_round_trips_walk_free_atoms_at_most_twice(monkeypatch, request):
    calls = []

    def counting(f):
        calls.append(f)
        return free_atoms(f)

    monkeypatch.setattr(translate, "free_atoms", counting)
    for plan in PLANS:
        regime = parse_regime(plan)
        m = request.getfixturevalue(REFERENCE[plan])
        for f in _generated(plan, 2, 1):
            calls.clear()
            translate.roundtrip_check(f, regime, m)
            assert len(calls) <= 2, (plan, f)


def test_rewrites_keep_unchanged_subtrees():
    """Expansion and the maps return a node itself when nothing in it
    changes, so a sugar-free formula expands to itself and an image shares
    the original's untouched subtrees."""
    corpus = HANDWRITTEN + [f for plan in PLANS for f in GENERATED[plan]]
    for f in corpus:
        g = outcome(expand_abbreviations, f, None)
        if isinstance(g, tuple):
            continue
        assert expand_abbreviations(g) is g
        assert translate._map_formula(g, lambda atom: atom) is g
    for f in _generated("stt-down", 1, 2):     # every application gap is 0
        g = expand_abbreviations(f)
        assert translate._ctt_to_sttu(g) is g
        assert translate._sttu_to_ctt(g) is g       # the whole trip shares g
