import dataclasses

import pytest

from genutil import FormulaGen, all_env, oracle_eval
from hotk.errors import EvalError, FormationError
from hotk.kernel import (alpha_normalize, check_formation, ctt,
                         expand_abbreviations, fin, fjt, parse_formula,
                         parse_regime, print_formula, print_term, stt_down,
                         stt_up)
from hotk.kernel.axioms import (down_exists, down_max, down_sim, up_base,
                                up_founded, up_inject, up_possess)
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall, Iff,
                                Implies, Not, Or, Raised, StrictEq,
                                free_atoms, subformulas)
from hotk.models import eval_formula
from hotk.proofkit import check_proof, load_proof
from hotk.translate import (ctt_to_sttu, fjt_to_sttd, kappa_translate,
                            parse_map, roundtrip_check, sttd_to_fjt,
                            sttu_to_ctt)


def pp(f):
    return print_formula(alpha_normalize(f))


class TestKappa:
    def test_single_variable_case(self):
        f = parse_formula("all x. x = x", mode="set")
        assert print_formula(kappa_translate(f, fin(3))) == "all x^3. x^3 eq x^3"

    def test_powersets_display(self):
        f = parse_formula("all a. some b. all x. (x in b <-> all v in x. v in a)",
                          mode="set")
        out = kappa_translate(f, fin(2))
        assert print_formula(out) == ("all a^2. some b^2. all x^2. x^2 in b^2 "
                                      "<-> (all v^2 in x^2. v^2 in a^2)")

    def test_extensionality_true_in_pure_hierarchy(self):
        from hotk.models import build_pure_model
        from hotk.settheory import extensionality_formula
        m = build_pure_model(5)
        out = expand_abbreviations(kappa_translate(extensionality_formula(),
                                                   fin(2)), None)
        assert eval_formula(m, out) is True

    def test_rejects_typed_input(self):
        with pytest.raises(FormationError):
            kappa_translate(parse_formula("x^0 = y^0"), fin(1))


class TestRaisedTheoryMaps:
    def test_gap_two_wraps_twice(self):
        out = ctt_to_sttu(parse_formula("y^3(x^0)"))
        assert print_formula(out) == "y^3(up(up(x^0)))"

    def test_adjacent_unchanged(self):
        out = ctt_to_sttu(parse_formula("y^1(x^0)"))
        assert print_formula(out) == "y^1(x^0)"

    def test_raising_lemma_image_true(self, pure4_up):
        f = parse_formula("all x^0. some b^1. x^0 eq b^1")
        image = ctt_to_sttu(f)
        assert check_formation(image, stt_up()).ok
        assert eval_formula(pure4_up, image) is True

    def test_russell_elimination_shape(self):
        out = sttu_to_ctt(parse_formula("y^2(up(x^0))"))
        # some w (x eq w & (uniqueness) & y(w)), fully expanded
        assert isinstance(out, Exists)
        assert isinstance(out.body, And)
        assert not any(isinstance(g, Raised)
                       for g in subformulas(out) if hasattr(g, "inner"))
        assert check_formation(out, ctt()).ok

    def test_adjacent_atoms_fixed_by_j(self):
        assert pp(sttu_to_ctt(parse_formula("y^1(x^0)"))) == "y^1(x^0)"

    def test_up_inject_j_image_true_in_pure_model(self, pure4):
        image = sttu_to_ctt(up_inject(1))
        assert check_formation(image, ctt()).ok
        assert eval_formula(pure4, image) is True


class TestProjectionTheoryMaps:
    def test_chain_display(self):
        out = fjt_to_sttd(parse_formula("y^3(x^0)"))
        assert isinstance(out, Forall) and isinstance(out.body, Forall)
        guard = out.body.body
        assert isinstance(guard, Implies) and isinstance(guard.left, And)
        assert isinstance(guard.left.left, DownRel)
        assert check_formation(out, stt_down()).ok

    def test_adjacent_unchanged(self):
        assert print_formula(fjt_to_sttd(parse_formula("y^2(x^1)"))) == "y^2(x^1)"

    def test_projection_becomes_bounded_coextensiveness(self):
        assert pp(sttd_to_fjt(parse_formula("y^2 dn x^1"))) == \
            "all v1^0. y^2(v1^0) <-> x^1(v1^0)"
        assert pp(sttd_to_fjt(parse_formula("y^3 dn x^2"))) == \
            "(all v1^1. y^3(v1^1) <-> x^2(v1^1)) & (all v2^0. y^3(v2^0) <-> x^2(v2^0))"

    def test_applications_unchanged(self):
        assert print_formula(sttd_to_fjt(parse_formula("y^1(x^0)"))) == "y^1(x^0)"


class TestRoundTrips:
    def test_adjacent_atom_syntactic(self, pure4_up):
        r = roundtrip_check(parse_formula("y^1(x^0)"), ctt(), pure4_up)
        assert r.syntactic_equal and r.semantic_equivalent

    def test_wide_gap_semantic_only(self, pure4_up):
        r = roundtrip_check(parse_formula("y^3(x^0)"), ctt(), pure4_up)
        assert not r.syntactic_equal
        assert r.semantic_equivalent
        assert r.assignments_checked == 16   # |type 3| x |type 0|

    def test_projection_roundtrip_semantic(self, fjt3_down):
        r = roundtrip_check(parse_formula("y^2 dn x^1"), stt_down(), fjt3_down)
        assert r.semantic_equivalent

    def test_fjt_gap_roundtrip(self, fjt3_down):
        r = roundtrip_check(parse_formula("y^3(x^0)"), fjt(), fjt3_down)
        assert r.semantic_equivalent

    def test_pctt_takes_ctts_trip(self, pure4_up):
        for text in ("y^1(x^0)", "y^3(x^0) | x^1 eq z^2"):
            f = parse_formula(text)
            for model in (None, pure4_up):
                r = roundtrip_check(f, parse_regime("pctt:w"), model)
                assert r.regime_kind == "pctt"
                assert r == dataclasses.replace(
                    roundtrip_check(f, ctt(), model), regime_kind="pctt")

    def test_atoms_are_swept_in_ordinal_order(self, pure4_up):
        """The sweep orders the atoms by type index as ordinals, not as
        printed text: w+1 comes before w*2, so the first domain the model
        lacks is w+1's."""
        f = parse_formula("a^(w+1) = a^(w+1) & b^(w*2) = b^(w*2)")
        with pytest.raises(EvalError) as e:
            roundtrip_check(f, parse_regime("ctt:w*3"), pure4_up)
        assert str(e.value) == "type bound exceeded: no transfinite domain w+1"


class TestGeneratedCorpus:
    def test_formation_preservation_and_skeleton(self):
        cases = [
            (ctt(), stt_up(), ctt_to_sttu, 20),
            (stt_up(), ctt(), sttu_to_ctt, 20),
            (fjt(), stt_down(), fjt_to_sttd, 20),
            (stt_down(), fjt(), sttd_to_fjt, 20),
        ]
        for src, dst, fn, count in cases:
            gen = FormulaGen(src, seed=42, max_type=3)
            for _ in range(count):
                f = gen.formula()
                assert check_formation(f, src).ok
                image = fn(f)
                assert check_formation(image, dst).ok, print_formula(f)

    def test_kappa_preserves_skeleton(self):
        f = parse_formula("all x. (x in a -> ~some y. y in x)", mode="set")
        out = kappa_translate(f, fin(1))

        def skel(g):
            if isinstance(g, (Forall, Exists, Not)):
                body = g.body if hasattr(g, "body") else None
                return (type(g).__name__, skel(body))
            if isinstance(g, (And, Or, Implies, Iff)):
                return (type(g).__name__, skel(g.left), skel(g.right))
            return "atom"

        assert skel(f) == skel(out)


def test_parse_map_names():
    assert parse_map("kappa:3").kappa == fin(3)
    for name in ("i-ctt-sttu", "j-sttu-ctt", "i-fjt-sttd", "j-sttd-fjt"):
        assert parse_map(name).name == name
    with pytest.raises(FormationError):
        parse_map("nope")


def test_transfinite_rejected_by_raised_map():
    with pytest.raises(FormationError):
        ctt_to_sttu(parse_formula("y^(w+1)(x^w)"))


def comprehension_instance(text, theory, params=()):
    """text parsed, once the checker accepts it as a one-step comprehension
    proof under theory and its only free atoms are the named params."""
    proof = load_proof({"theory": theory, "steps": [
        {"n": 1, "formula": text, "rule": "comprehension"}]})
    assert check_proof(proof).accepted, text
    f = parse_formula(text)
    assert sorted(print_term(a) for a in free_atoms(f)) == sorted(params), text
    return f


class TestComprehensionImages:
    """Interpretation lemmas at desk scale: translated comprehension
    instances evaluate true in the reference models."""

    def test_fjt_comprehension_image_true_in_projection_companion(self, fjt3_down):
        # the counterexample entity's defining instance, and a mixed one
        for text in [
                "some z^2. (all x^1. z^2(x^1) <-> ~x^1 = x^1)"
                " & (all x^0. z^2(x^0) <-> x^0 = x^0)",
                "some z^2. (all x^1. z^2(x^1) <-> x^1 = x^1)"
                " & (all x^0. z^2(x^0) <-> ~x^0 = x^0)",
                "some z^1. all x^0. z^1(x^0) <-> x^0 = x^0"]:
            image = fjt_to_sttd(comprehension_instance(text, "fjt"))
            assert check_formation(image, stt_down()).ok
            assert eval_formula(fjt3_down, image) is True

    def test_ctt_comprehension_image_true_in_raised_companion(self, pure4_up):
        for text, params in [
                ("some z^1. all x^0. z^1(x^0) <-> x^0 = x^0", ()),
                ("some z^1. all x^0. z^1(x^0) <-> (some y^1. y^1(x^0))", ()),
                ("some z^2. all x^1. z^2(x^1) <-> x^1(a^0)", ("a^0",))]:
            image = ctt_to_sttu(comprehension_instance(text, "ctt:w", params))
            assert check_formation(image, stt_up()).ok
            for env in all_env(pure4_up, free_atoms(image)):
                assert eval_formula(pure4_up, image, env) is True

    def test_sttd_comprehension_image_true_in_canonical_model(self, fjt3):
        inst = comprehension_instance(
            "all y^1. some z^2. z^2 dn y^1 & (all x^1. z^2(x^1) <-> x^1(b^0))",
            "stt-down", ("b^0",))
        image = sttd_to_fjt(inst)
        assert check_formation(image, fjt()).ok
        for env in all_env(fjt3, free_atoms(image)):
            assert eval_formula(fjt3, image, env) is True

    def test_up_axiom_images_true_in_pure_model(self, pure4):
        # instances whose descriptions stay below the model height: the
        # eliminated raise at type n+1 quantifies identity at n+2
        for inst in (up_inject(0), up_inject(1), up_possess(0),
                     up_founded(0), up_base()):
            image = sttu_to_ctt(inst)
            assert check_formation(image, ctt()).ok
            assert eval_formula(pure4, image) is True

    def test_down_axiom_images_true_in_canonical_model(self, fjt3):
        for inst in (down_exists(1), down_exists(2), down_sim(1), down_sim(2),
                     down_max(1), down_max(2)):
            image = sttd_to_fjt(inst)
            assert check_formation(image, fjt()).ok
            assert eval_formula(fjt3, image) is True

    def test_i_map_preserves_logical_skeleton(self):
        f = parse_formula("all y^3. (y^3(x^0) -> ~some z^2. z^2(x^0))")

        def skel(g):
            from hotk.kernel.syntax import (And, Exists, Forall, Iff, Implies,
                                            Not, Or)
            if isinstance(g, (Forall, Exists)):
                return (type(g).__name__, skel(g.body))
            if isinstance(g, Not):
                return ("Not", skel(g.body))
            if isinstance(g, (And, Or, Implies, Iff)):
                return (type(g).__name__, skel(g.left), skel(g.right))
            return "atom"

        assert skel(ctt_to_sttu(f)) == skel(f)
