"""Every proof the checker accepts is true in the models of its theory.

tests/test_checker.py compares the checker with an oracle that is the
checker as it once stood, so an unsoundness the two share passes it.  This
test checks the verdicts against the semantics instead: each document of
proof_docs (the bundled fixtures, the hand-written and scheme proofs, ten
seeds of mutations, and their extensions by forall_i and exists_e and
renamings of their constants) is checked under each of the seven regimes,
and for each accepted one the universal closure of hypotheses -> conclusion
must be true in every model that PASSes its regime's axiom suite up to
type 2.  The extensions reach the eigenvariable conditions: an
eigenvariable free in an open assumption that is discharged later makes a
closure that is false in some model.

The models are the pure hierarchies of heights 1 to 4 with their raising
companions, the canonical tuple models of heights 0 to 3 with their
projection companions, and the T-models of V1 to V4 and of the transitive
graph fixtures.  A T-model is open above: it answers a type above its
height from its top domain, so a closure that needs a higher type is
skipped rather than evaluated, and so is one the evaluator refuses.
"""

from genutil import universal_closure
from proof_docs import (HAND_PROOFS, REGIMES, SCHEME_PROOFS, extensions,
                        fixture_documents, mutations)

from hotk.corpus import graph_fixture, transitive_fixture_names
from hotk.errors import EvalError, HotkError
from hotk.kernel import regimes as rg
from hotk.models import (build_fjt_canonical, build_pure_model,
                         build_sttd_companion, build_sttu_companion,
                         check_axiom_suite, eval_formula)
from hotk.models.decide import top_type
from hotk.proofkit.checker import check_proof, load_proof
from hotk.settheory import T_construction, build_V

SEEDS = range(10)


def _models():
    pure = {h: build_pure_model(h) for h in range(1, 5)}
    fjt = {h: build_fjt_canonical(h) for h in range(4)}
    graphs = {f"V{n}": build_V(n) for n in range(1, 5)}
    graphs.update((name, graph_fixture(name)) for name in transitive_fixture_names())
    return {
        **{f"pure{h}": m for h, m in pure.items()},
        **{f"pure{h}-up": build_sttu_companion(m) for h, m in pure.items()},
        **{f"fjt{h}": m for h, m in fjt.items()},
        **{f"fjt{h}-down": build_sttd_companion(m) for h, m in fjt.items()},
        **{f"T({name})": T_construction(g) for name, g in graphs.items()},
    }


def _models_of(regime, models):
    """The models whose axiom suite for regime is all PASS up to type 2."""
    return [(name, m) for name, m in models.items()
            if all(v.status == "PASS" for v in check_axiom_suite(
                m, regime, min(2, m.max_type)).verdicts)]


def _documents():
    docs = {**fixture_documents(), **HAND_PROOFS, **SCHEME_PROOFS}
    out = list(docs.values()) + extensions(docs)
    for seed in SEEDS:
        out += [doc for _, doc in mutations(docs, seed, 100)]
    return out


def test_accepted_proofs_are_true_in_the_models_of_their_theory():
    models = _models()
    regimes = {r: _models_of(rg.parse_regime(r), models) for r in REGIMES}
    assert all(regimes.values()), regimes
    accepted = evaluated = skipped = 0
    false = []
    for doc in _documents():
        for regime in REGIMES:
            try:
                proof = load_proof({**doc, "theory": regime})
            except HotkError:       # a malformed document is not a proof
                continue
            if not check_proof(proof).accepted:
                continue
            accepted += 1
            f = universal_closure(proof)
            height = top_type(f)[0]
            for name, m in regimes[regime]:
                if height > m.max_type:
                    skipped += 1
                    continue
                try:
                    holds = eval_formula(m, f)
                except EvalError:
                    skipped += 1
                    continue
                evaluated += 1
                if not holds:
                    false.append((regime, name, doc["steps"][-1]["formula"]))
    assert not false, false
    assert accepted > 300
    assert evaluated > skipped
