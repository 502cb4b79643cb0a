import random

import pytest

from hotk.corpus import golden_cases
from hotk.errors import FormationError, HotkError
from hotk.kernel import (Exists, Forall, Iff, Sugar, Var, alpha_normalize,
                         check_formation, ctt, expand_abbreviations, fin,
                         parse_formula, parse_regime, print_formula, stt,
                         stt_down, TypeIndex)
from hotk.kernel.syntax import INFIX, And, Apply, StrictEq, subformulas


def norm(text, regime):
    return print_formula(alpha_normalize(
        expand_abbreviations(parse_formula(text), regime)))


def test_defined_identity_display():
    # gamma = max(0,1)+1 = 2
    assert norm("a^0 eq b^1", ctt()) == "all v1^2. v1^2(a^0) <-> v1^2(b^1)"


def test_defined_membership_display():
    # the nested shape with the inner quantifier one type higher
    assert norm("a^0 in b^0", ctt()) == \
        "some v1^1. (all v2^2. v2^2(v1^1) <-> v2^2(b^0)) & v1^1(a^0)"


def test_projection_equivalence_is_vacuous_at_type_one():
    out = expand_abbreviations(parse_formula("a^1 downeq b^1"), stt_down())
    assert out == StrictEq(*[t for t in [out.left, out.right]]) or \
        print_formula(out) == "a^1 = a^1"


def test_golden_files():
    cases = golden_cases()
    assert len(cases) == 20
    for case in cases:
        got = norm(case["input"], parse_regime(case["regime"]))
        assert got == case["expect"], case["name"]


def test_expansion_idempotent_on_goldens():
    for case in golden_cases():
        regime = parse_regime(case["regime"])
        once = expand_abbreviations(parse_formula(case["input"]), regime)
        assert expand_abbreviations(once, regime) == once


def test_expansion_preserves_formation():
    for case in golden_cases():
        regime = parse_regime(case["regime"])
        out = expand_abbreviations(parse_formula(case["input"]), regime)
        assert check_formation(out, regime).ok, case["name"]


def test_unavailable_sugar_raises():
    with pytest.raises(FormationError):
        expand_abbreviations(parse_formula("a^0 in b^0"), stt())
    with pytest.raises(FormationError):
        expand_abbreviations(parse_formula("a^1 in b^1"), parse_regime("ctt:3"))


def test_gamma_is_max_plus_one_fuzzed():
    rng = random.Random(11)
    for _ in range(200):
        q1, r1 = rng.randint(0, 1), rng.randint(0, 9)
        q2, r2 = rng.randint(0, 1), rng.randint(0, 9)
        a, b = TypeIndex(q1, r1), TypeIndex(q2, r2)
        gamma = max(a, b).succ()
        f = Sugar("eq", (Var("s", a), Var("t", b)))
        out = expand_abbreviations(f, None)
        assert isinstance(out, Forall) and out.var.index == gamma
        g = Sugar("in", (Var("s", a), Var("t", b)))
        out = expand_abbreviations(g, None)
        assert isinstance(out, Exists) and out.var.index == gamma
        inner = out.body.left          # the identity conjunct
        assert isinstance(inner, Forall) and inner.var.index == gamma.succ()


def test_bounded_quantifier_convention():
    # (some x eq t) phi abbreviates some x (x eq t & phi)
    f = parse_formula("some v^2 eq t^1. v^2(a^0)")
    out = expand_abbreviations(f, ctt())
    assert isinstance(out, Exists) and isinstance(out.body, And)
    g = parse_formula("all v^2 eq t^1. v^2(a^0)")
    out = expand_abbreviations(g, ctt())
    assert isinstance(out, Forall)
    from hotk.kernel.syntax import Implies
    assert isinstance(out.body, Implies)
    assert isinstance(out.body.left, Forall)   # the expanded identity guard


def test_nested_sugar_expands_innermost_first():
    # defined identity nested inside defined membership leaves no sugar
    f = parse_formula("a^0 in b^1")
    out = expand_abbreviations(f, ctt())
    assert not any(isinstance(g, Sugar) for g in subformulas(out))


def test_level_macro_expands_to_primitives():
    f = parse_formula("Lev(s^1)")
    out = expand_abbreviations(f, ctt())
    assert not any(isinstance(g, Sugar) for g in subformulas(out))
    assert check_formation(out, ctt()).ok


# The two-place sugar atoms over finite, successor and limit indices.
_INDICES = ["0", "1", "2", "w", "w+1", "w*2", "w*2+1"]
_TWO_PLACE = ([f"a^({x}) {token} b^({y})"
               for token in [t for t, kind in INFIX.items() if type(kind) is str]
               + ["coext_1", "coext_2"]
               for x in _INDICES for y in _INDICES]
              + [f"Rank(a^({x}), b^({y}))" for x in _INDICES for y in _INDICES])


def test_two_place_sugar_that_formation_accepts_expands():
    """An atom formation accepts expands under its regime and under none;
    one it refuses fails with a package error, never a builtin one."""
    accepted = 0
    for theory in ("ctt:w*3", "ctt-liberal:w*3", "pctt:w*3"):
        regime = parse_regime(theory)
        for text in _TWO_PLACE:
            f = parse_formula(text)
            ok = check_formation(f, regime).ok
            accepted += ok
            for r in (regime, None):
                try:
                    expand_abbreviations(f, r)
                except HotkError:
                    assert not ok, (theory, text, r)
            if not ok:
                with pytest.raises(HotkError):
                    expand_abbreviations(f, regime)
    assert accepted == 531      # 537 before coext at w and w*2 became ill-formed
