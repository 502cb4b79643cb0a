import random

import pytest

from hotk.corpus import formation_matrix
from hotk.errors import ParseError
from hotk.kernel import (check_formation, ctt, fin, fjt, parse_formula,
                         parse_regime, stt, stt_down, stt_up)


def wf(text, regime):
    return check_formation(parse_formula(text), regime).ok


def test_standard_gap_rule():
    assert wf("b^1(a^0)", stt())
    assert wf("c^3(a^2)", stt())
    assert not wf("c^2(a^0)", stt())
    assert not wf("b^0(a^0)", stt())
    assert not wf("b^0(a^2)", stt())


def test_cumulative_gap_rules():
    # since c^2(a^1) is meaningful, c^2(a^0) is too
    assert wf("c^2(a^1)", ctt())
    assert wf("c^2(a^0)", ctt())
    assert not wf("b^0(a^2)", ctt())
    # the liberal variant answers every pair
    assert wf("b^0(a^2)", parse_regime("ctt-liberal"))
    assert wf("b^0(a^0)", parse_regime("ctt-liberal"))


def test_strict_identity_needs_equal_types():
    for regime in (stt(), stt_up(), stt_down(), ctt(), parse_regime("ctt-liberal"), fjt()):
        assert wf("x^1 = y^1", regime)
        assert not wf("x^0 = y^1", regime)


def test_projection_atom_formation():
    assert wf("e^4 dn d^3", stt_down())
    assert not wf("e^4 dn d^3", stt())
    assert not wf("e^4 dn d^3", parse_regime("ctt-liberal"))
    # no projection constant reaches type 0
    assert not wf("b^1 dn a^0", stt_down())
    assert not wf("b^3 dn a^1", stt_down())


def test_raised_terms_only_in_raised_theory():
    assert wf("c^2(up(a^0))", stt_up())
    assert not wf("c^2(up(a^0))", stt())
    assert not wf("c^2(up(a^0))", parse_regime("ctt-liberal"))
    assert not wf("b^1(up(a^0))", stt_up())   # raising bumps the argument type


def test_ctt_bound_constrains_indices():
    assert not wf("all x^(w+1). x^(w+1)(a^3)", ctt())           # bound w
    assert wf("all x^(w+1). x^(w+1)(a^3)", parse_regime("ctt:w*2"))
    assert not wf("x^w = y^w", parse_regime("ctt:w"))
    assert wf("x^w = y^w", parse_regime("ctt:w+1"))


def test_defined_membership_side_conditions():
    # the +2 bound: defined membership at (k,k) expands through type k+2
    assert wf("a^0 in b^0", parse_regime("ctt:3"))
    assert not wf("a^1 in b^1", parse_regime("ctt:3"))
    assert wf("a^1 in b^1", parse_regime("ctt:4"))
    assert not wf("a^0 in b^0", stt())
    assert wf("a^0 in b^0", fjt())


def test_formation_matrix_corpus():
    doc = formation_matrix()
    regimes = {r: parse_regime(r) for r in doc["regimes"]}
    assert len(doc["formulas"]) == 40
    for entry in doc["formulas"]:
        f = parse_formula(entry["formula"])
        for rname, expected in entry["verdicts"].items():
            got = check_formation(f, regimes[rname]).ok
            assert got == expected, (entry["formula"], rname)


def test_stringent_implies_liberal_monotonicity():
    doc = formation_matrix()
    for entry in doc["formulas"]:
        f = parse_formula(entry["formula"])
        if check_formation(f, ctt()).ok:
            assert check_formation(f, parse_regime("ctt-liberal")).ok


def test_stt_implies_stringent_monotonicity():
    doc = formation_matrix()
    for entry in doc["formulas"]:
        f = parse_formula(entry["formula"])
        if check_formation(f, stt()).ok:
            assert check_formation(f, ctt()).ok, entry["formula"]


def test_random_standard_applications_stay_well_formed_upward():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        f = parse_formula(f"y^{n}(x^{n - 1})")
        assert check_formation(f, stt()).ok
        assert check_formation(f, ctt()).ok
        assert check_formation(f, fjt()).ok


def test_verdict_carries_offender():
    v = check_formation(parse_formula("b^1(a^0) & c^2(a^0)"), stt())
    assert not v.ok
    assert v.offender == "c^2(a^0)"
    assert "gap" in v.reason


def test_monotonicity_on_generated_formulas():
    from genutil import FormulaGen
    gen = FormulaGen(ctt(), seed=3, max_type=3)
    for _ in range(60):
        f = gen.formula()
        assert check_formation(f, ctt()).ok
        assert check_formation(f, parse_regime("ctt-liberal")).ok
    gen_stt = FormulaGen(stt_down(), seed=4, max_type=3)
    for _ in range(60):
        f = gen_stt.formula()
        from hotk.kernel.syntax import DownRel, subformulas
        if any(isinstance(g, DownRel) for g in subformulas(f)):
            continue   # projection atoms exist only in their home theory
        assert check_formation(f, stt()).ok
        assert check_formation(f, ctt()).ok


# Regime spellings and how they print, as at the commit before the names
# table; a bound on a finite kind was dropped then and is an error now.
REGIME_SPELLINGS = {
    "stt": "stt", "STT": "stt", " stt ": "stt", "stt:": "stt",
    "stt-up": "stt-up", "sttu": "stt-up", "stt_up": "stt-up", "STT-UP": "stt-up",
    "stt-down": "stt-down", "sttd": "stt-down", "stt_down": "stt-down",
    "stt-down:": "stt-down", "fjt": "fjt", "fjt:": "fjt",
    "ctt": "ctt:w", "ctt:": "ctt:w", "ctt:w": "ctt:w", "ctt:3": "ctt:3",
    "ctt: 3": "ctt:3", "ctt:w+1": "ctt:w+1", "ctt:w*2+3": "ctt:w*2+3",
    "ctt-liberal": "ctt-liberal:w", "ctt_liberal": "ctt-liberal:w",
    "ctt-liberal:w": "ctt-liberal:w", "ctt_liberal:5": "ctt-liberal:5",
    "  ctt-liberal:W*2  ": "ctt-liberal:w*2",
    "pctt": "pctt:w", "pctt:": "pctt:w", "pctt:w": "pctt:w", "pctt:4": "pctt:4",
    "PCTT:W": "pctt:w",
}
BAD_INDEX = "bad type index {!r} (indices up to w*q+r only)"
REJECTED_SPELLINGS = {
    "ctt:x": BAD_INDEX.format("x"), "pctt:x": BAD_INDEX.format("x"),
    "ctt-liberal:banana": BAD_INDEX.format("banana"),
    "ctt:w:w": BAD_INDEX.format("w:w"), "nope:x": BAD_INDEX.format("x"),
    "nope": "unknown theory 'nope'", "": "unknown theory ''",
    ":": "unknown theory ':'", "stt :3": "unknown theory 'stt :3'",
    "ctt :3": "unknown theory 'ctt :3'",
    "stt:banana": "stt has no type bound, got 'stt:banana'",
    "fjt:3": "fjt has no type bound, got 'fjt:3'",
    "stt-up:w": "stt-up has no type bound, got 'stt-up:w'",
    "sttd:0": "sttd has no type bound, got 'sttd:0'",
}


def test_regime_spellings_parse_and_print():
    for text, printed in REGIME_SPELLINGS.items():
        assert str(parse_regime(text)) == printed, text
    for text, message in REJECTED_SPELLINGS.items():
        with pytest.raises(ParseError) as e:
            parse_regime(text)
        assert str(e.value) == message, text
