"""Differential test: the proof checker against the reference checker.

`tests/checker_oracle.py` keeps the checker as it stood before each rule
came to return its step's assumptions.  Every document here is loaded once
and checked by both: they must give the same verdict (accepted, step, tag,
message), or raise the same error class with the same message.
"""

import copy

import pytest

import checker_oracle as oracle
from proof_docs import (HAND_PROOFS, HOSTILE_PROOFS, REGIMES, REJECTION_PROOFS,
                        REJECTIONS, SCHEME_PROOFS, SCHEME_STEPS, extensions,
                        fixture_documents, mutations)

from hotk.proofkit import check_proof, load_proof

DOCUMENTS = {**fixture_documents(), **HAND_PROOFS, **SCHEME_PROOFS}


def outcome(check, doc):
    try:
        v = check(load_proof(doc))
    except Exception as e:      # the oracle's error class and message
        return type(e).__name__, str(e)
    return v.accepted, v.step, v.tag, v.message


def assert_agree(doc):
    got = outcome(check_proof, doc)
    assert got == outcome(oracle.check_proof, doc), doc
    return got


@pytest.mark.parametrize("regime", REGIMES)
def test_every_document_under_every_regime(regime):
    for name, doc in DOCUMENTS.items():
        doc = {**doc, "theory": regime}
        assert_agree(doc)


def test_documents_under_their_own_theory():
    verdicts = {name: assert_agree(doc) for name, doc in DOCUMENTS.items()}
    assert verdicts["or_e leak"][2] == "undischarged"
    assert sum(v[0] is True for v in verdicts.values()) >= 12


def test_scheme_steps_draw_their_messages():
    for name, doc in SCHEME_PROOFS.items():
        message = SCHEME_STEPS[name][3]
        accepted, _, _, got = assert_agree(doc)
        assert (accepted, got) == (message is None, message), name


@pytest.mark.parametrize("name", REJECTIONS)
def test_each_rejection_is_drawn(name):
    want = REJECTIONS[name][2]
    got = assert_agree(REJECTION_PROOFS[name])
    assert got == (want if len(want) == 2 else (False, *want)), name


@pytest.mark.parametrize("seed", range(4))
def test_seeded_mutations(seed):
    kinds = set()
    for name, doc in mutations(DOCUMENTS, seed, 100):
        got = assert_agree(doc)
        kinds.add(got[2] if len(got) == 4 else got[0])
    # the mutations reach rejections of several kinds, not just one
    assert len(kinds) >= 5


@pytest.mark.parametrize("regime", REGIMES)
def test_extensions_under_every_regime(regime):
    tags = set()
    for doc in extensions(DOCUMENTS):
        got = assert_agree({**doc, "theory": regime})
        tags.add(got[2] if len(got) == 4 else got[0])
    # both eigenvariable conditions are reached, and some proofs pass
    assert {None, "eigenvariable-assumption",
            "eigenvariable-conclusion"} <= tags


def test_hostile_documents():
    for name, doc in HOSTILE_PROOFS.items():
        assert assert_agree(copy.deepcopy(doc))[0] == "ProofError", name
