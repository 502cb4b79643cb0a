import copy
import json
import re
from pathlib import Path

import pytest

from hotk.errors import ProofError
from hotk.kernel import print_formula
from hotk.kernel import regimes as rg
from hotk.kernel.axioms import AXIOMS, axioms_of
from hotk.models import check_axiom_suite
from hotk.proofkit import (axiom_instance, check_proof, load_fixture,
                           load_proof, verify_fixture_suite)
from hotk.proofkit.checker import loads_proof
from hotk.proofkit.fixtures import fixture_manifest


def test_fixture_suite_all_as_expected():
    report = verify_fixture_suite()
    assert report.all_as_expected, "\n".join(report.lines())
    manifest = fixture_manifest()
    assert len(manifest["positive"]) >= 6
    assert len(manifest["negative"]) >= 5


def test_type_raising_proof_steps():
    proof = load_fixture("raising_0_1.proof")
    assert check_proof(proof).accepted
    # the same derivation under standard rules is rejected
    doc = json.loads((_proof_path("raising_0_1.proof")).read_text())
    doc["theory"] = "stt"
    verdict = check_proof(load_proof(doc))
    assert not verdict.accepted


def _proof_path(name):
    from importlib import resources
    return resources.files("hotk") / "data" / "proofs" / name


def test_cross_type_instantiation_tagged_at_the_rule():
    doc = json.loads(_proof_path("neg_cross_exists_stt.proof").read_text())
    verdict = check_proof(load_proof(doc))
    assert verdict.tag == "type-side-condition" and verdict.step == 8
    # under cumulative rules the very same proof goes through
    doc["theory"] = "ctt:w"
    assert check_proof(load_proof(doc)).accepted


def test_condition_ii_enforcement_is_exact():
    # inserting the eigenvariable into an undischarged assumption flips
    # the verdict of an accepted proof
    doc = json.loads(_proof_path("indiscern_transfer.proof").read_text())
    assert check_proof(load_proof(doc)).accepted
    bad = copy.deepcopy(doc)
    bad["hypotheses"].append("c^1(a^0)")
    bad["steps"].insert(0, {"n": 0, "formula": "c^1(a^0)", "rule": "hyp"})
    # make the case derivation depend on the tainted hypothesis
    for step in bad["steps"]:
        if step.get("n") == 7:
            step["rule"] = "reiterate"
            step["premises"] = [0]
            step["formula"] = "c^1(a^0)"
    verdict = check_proof(load_proof(bad))
    assert not verdict.accepted
    assert verdict.tag == "eigenvariable-assumption"


def test_determinism():
    proof = load_fixture("raising_1_2.proof")
    first = check_proof(proof)
    second = check_proof(proof)
    assert first.accepted == second.accepted == True


def test_regime_monotonicity_stt_to_ctt():
    # an accepted standard-theory proof re-checks under cumulative rules
    for name in ("identity_refl.proof",):
        doc = json.loads(_proof_path(name).read_text())
        assert check_proof(load_proof(doc)).accepted
        doc["theory"] = "ctt:w"
        assert check_proof(load_proof(doc)).accepted


def test_undischarged_assumption_rejected():
    doc = {"theory": "stt",
           "steps": [{"n": 1, "formula": "z^1(a^0)", "rule": "assume"}]}
    verdict = check_proof(load_proof(doc))
    assert not verdict.accepted and verdict.tag == "undischarged"


def test_goal_mismatch():
    doc = {"theory": "stt", "goal": "z^1(b^0)",
           "hypotheses": ["z^1(a^0)"],
           "steps": [{"n": 1, "formula": "z^1(a^0)", "rule": "hyp"}]}
    verdict = check_proof(load_proof(doc))
    assert verdict.tag == "goal-mismatch"


def test_malformed_file_raises():
    with pytest.raises(ProofError):
        loads_proof("{\"steps\": [{\"formula\": \"x^0 = x^0\"}]}")


class TestAxiomInstances:
    def test_type_base_display(self):
        f = axiom_instance("type-base", {"alpha": 1})
        assert print_formula(f) == "all x^0. all y^1. ~y^1 in x^0"

    def test_missing_parameter(self):
        with pytest.raises(ProofError):
            axiom_instance("type-founded", {"alpha": 0})


@pytest.mark.parametrize("theory,scheme,formula", [
    ("stt-up", {"name": "up-inject", "n": -1},
     "all x^0. all y^0. up(x^0) = up(y^0) -> x^0 = y^0"),
    ("pctt:w", {"name": "type-base", "alpha": -1}, "all x^0. all y^0. ~y^0 in x^0")])
def test_negative_scheme_parameter_is_a_scheme_shape_rejection(theory, scheme, formula):
    doc = {"theory": theory, "steps": [
        {"n": 1, "formula": formula, "rule": "axiom", "scheme": scheme}]}
    verdict = check_proof(load_proof(doc))
    assert not verdict.accepted and verdict.tag == "scheme-shape"
    param = next(k for k in scheme if k != "name")
    assert verdict.step == 1 and verdict.message == (
        f"scheme parameter {param!r} must be a natural, got -1")


@pytest.mark.parametrize("value,shown", [
    ("1", '"1"'), (True, "true"), (1.5, "1.5"), ([0], "[0]")])
def test_non_natural_scheme_n_is_a_scheme_shape_rejection(value, shown):
    """A scheme record's n is checked where every other parameter is, so a
    value of the wrong JSON type rejects the step as a negative one does."""
    doc = {"theory": "stt-up", "steps": [
        {"n": 1, "formula": "all x^0. all y^0. up(x^0) = up(y^0) -> x^0 = y^0",
         "rule": "axiom", "scheme": {"name": "up-inject", "n": value}}]}
    verdict = check_proof(load_proof(doc))
    assert not verdict.accepted and verdict.tag == "scheme-shape"
    assert verdict.step == 1 and verdict.message == (
        f"scheme parameter 'n' must be a natural, got {shown}")


@pytest.mark.parametrize("value,shown", [
    ("-1", '"-1"'), (True, "true"), (1.5, "1.5"), (None, "null"), ([1], "[1]"),
    ({}, "{}")])
def test_non_index_scheme_parameter_is_a_scheme_shape_rejection(value, shown):
    doc = {"theory": "pctt:w", "steps": [
        {"n": 1, "formula": "all x^0. all y^1. ~y^1 in x^0", "rule": "axiom",
         "scheme": {"name": "type-base", "alpha": value}}]}
    verdict = check_proof(load_proof(doc))
    assert not verdict.accepted and verdict.tag == "scheme-shape"
    assert verdict.step == 1 and verdict.message == (
        f"scheme parameter 'alpha' must be a type index, got {shown}")


def test_accepted_conclusions_hold_in_reference_models(pure4, pure4_up):
    # soundness spot-check: the universal closure of hyps -> conclusion
    # evaluates true
    from genutil import universal_closure
    from hotk.models import eval_formula

    for name in fixture_manifest()["positive"]:
        proof = load_fixture(name)
        model = pure4_up if proof.theory.kind == "stt_up" else pure4
        f = universal_closure(proof)
        assert eval_formula(model, f) is True, name


def test_readme_theory_table_matches_the_axioms_table(fjt2):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| axioms a proof may cite |")[1].split("\n\n")[0]
    names = lambda cell: set(re.findall(r"`([a-z0-9-]+)`", cell))
    theories, cited_anywhere = set(), set()
    for line in table.splitlines()[2:]:
        theory, comprehension, cited, others = line.strip(" |").split(" | ")
        regime = rg.parse_regime(theory.strip("`").replace("<idx>", "w"))
        assert names(cited) == set(axioms_of(regime)), theory
        rows = {v.name for v in check_axiom_suite(fjt2, regime, 1).verdicts}
        assert rows == names(comprehension) | names(cited) | names(others), theory
        theories.add((regime.kind, regime.overlay))
        cited_anywhere |= names(cited)
    assert cited_anywhere == set(AXIOMS)
    kinds = (rg.STT, rg.STT_UP, rg.STT_DOWN, rg.FJT, rg.CTT_STRINGENT, rg.CTT_LIBERAL)
    assert theories == {(k, "none") for k in kinds} | {(rg.CTT_STRINGENT, "pctt")}
    assumers = {by for _, _, assumed_by in AXIOMS.values() for by in assumed_by}
    assert assumers <= set(kinds) | {"pctt"}
