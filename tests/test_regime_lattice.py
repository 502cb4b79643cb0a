"""The formation lattice of the regimes: the paper's first sentence as a
property.

STT allows b^n(a^m) only when n = m+1, CTT allows b^β(a^α) whenever β > α,
so every STT formula is a CTT formula.  The inclusions between the sets of
well-formed formulas, WF(R), are checked here on the formation matrix, the
inputs of the expansion goldens, seeded generated formulas and every atom
over types 0-3, bare and under one binder; each strict inclusion also has a
witness.  A change to one regime's formation rule that breaks its relation
to another then fails here, even where the formation matrix's own rows
still hold.  The last two tests pin the shape of a Regime: a kind and, for
the CTT kinds alone, a bound, printed as parse_regime reads it."""

import pytest
from genutil import FormulaGen

from hotk.corpus import formation_matrix, golden_cases
from hotk.kernel import check_formation, fin, parse_formula, parse_regime
from hotk.kernel import regimes as rg
from hotk.kernel.indices import TypeIndex
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import INFIX

REGIMES = {name: parse_regime(name) for name in (
    "stt", "stt-up", "stt-down", "ctt:w", "pctt:w", "ctt-liberal:w", "fjt",
    "ctt:3")}


def _matrix():
    return [parse_formula(e["formula"]) for e in formation_matrix()["formulas"]]


def _goldens():
    return [parse_formula(case["input"]) for case in golden_cases()]


def _generated():
    out = []
    for source in ("ctt:3", "fjt", "stt-up", "stt-down"):
        for seed in range(40):
            gen = FormulaGen(parse_regime(source), seed=seed, max_type=3,
                             max_depth=4)
            out += [gen.formula() for _ in range(25)]
    return out


def _atoms():
    """Every atom over types 0-3: an application, with and without a
    raised argument, and each infix token; each bare, then with its left
    and its right term bound."""
    shapes = ["{l}({r})", "{l}(up({r}))"] + ["{l} %s {r}" % tok for tok in INFIX]
    out = []
    for n in range(4):
        for m in range(4):
            for shape in shapes:
                out += [parse_formula(shape.format(l=f"b^{n}", r=f"a^{m}")),
                        parse_formula(f"all x^{n}. " + shape.format(l=f"x^{n}", r=f"a^{m}")),
                        parse_formula(f"some y^{m}. " + shape.format(l=f"b^{n}", r=f"y^{m}"))]
    return out


CORPORA = {"matrix": _matrix, "goldens": _goldens, "generated": _generated,
           "atoms": _atoms}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_formation_inclusions(corpus):
    formulas = CORPORA[corpus]()
    wf = {name: frozenset(i for i, f in enumerate(formulas)
                          if check_formation(f, regime).ok)
          for name, regime in REGIMES.items()}

    def within(small, big):
        extra = sorted(wf[small] - wf[big])
        assert not extra, (f"WF({small}) is not within WF({big}) on {corpus}: "
                           f"{[print_formula(formulas[i]) for i in extra[:5]]}")

    assert wf["stt"], f"no {corpus} formula is well formed under stt"
    # The paper's inclusion, and the augmented theories add to STT.
    for name in ("stt-up", "stt-down", "ctt:w", "pctt:w", "ctt-liberal:w", "fjt"):
        within("stt", name)
    # Not stated by the paper.  pctt:w and fjt share ctt's rule, head type
    # above argument type (regimes.HEAD_ABOVE_KINDS), and ctt:w's bound
    # admits exactly the finite types, which are fjt's (FINITE_KINDS);
    # pctt differs from ctt only in its axioms.
    within("ctt:w", "pctt:w")
    within("pctt:w", "fjt")
    within("fjt", "ctt:w")
    # The liberal rule drops the head-above condition and nothing else.
    within("fjt", "ctt-liberal:w")
    # A lower bound only refuses indices.
    within("ctt:3", "ctt:w")


# (formula, a regime it is well formed under, one it is ill formed under):
# one witness for each inclusion above that is strict.
STRICT = [
    ("c^2(up(a^0))", "stt-up", "stt"),
    ("e^4 dn d^3", "stt-down", "stt"),
    ("a^2(b^0)", "ctt:w", "stt"),
    ("a^2(b^0)", "pctt:w", "stt"),
    ("a^2(b^0)", "fjt", "stt"),
    ("a^2(b^0)", "ctt-liberal:w", "stt"),
    ("b^0(a^2)", "ctt-liberal:w", "fjt"),
    ("x^3 = y^3", "ctt:w", "ctt:3"),
]


@pytest.mark.parametrize("text, bigger, smaller", STRICT)
def test_strict_inclusions_have_a_witness(text, bigger, smaller):
    f = parse_formula(text)
    assert check_formation(f, REGIMES[bigger]).ok
    assert not check_formation(f, REGIMES[smaller]).ok


def test_a_regime_prints_as_parse_regime_reads_it():
    kinds = {rg.STT, rg.STT_UP, rg.STT_DOWN, rg.FJT, rg.CTT_STRINGENT,
             rg.CTT_LIBERAL, rg.PCTT}
    assert kinds == rg.FINITE_KINDS | rg.CTT_KINDS
    bounds = [fin(0), fin(3), TypeIndex(1, 0), TypeIndex(2, 1)]   # 0, 3, w, w*2+1
    for kind in kinds:
        for r in ([rg.Regime(kind, b) for b in bounds] if kind in rg.CTT_KINDS
                  else [rg.Regime(kind)]):
            assert parse_regime(str(r)) == r, str(r)


@pytest.mark.parametrize("kind", sorted(rg.FINITE_KINDS))
def test_a_finite_kind_takes_no_bound(kind):
    with pytest.raises(ValueError):
        rg.Regime(kind, fin(3))
