"""Acceptance suite: one test per exit criterion, each printing a verdict
line.  Run with -s to see the lines as they pass."""

import json
import time

import pytest

from axiom_oracle import PairTables
from genutil import FormulaGen, all_env, oracle_eval, universal_closure
from hotk.corpus import (formation_matrix, golden_cases, graph_fixture,
                         separation_corpus, transitive_fixture_names)
from hotk.kernel import (alpha_normalize, check_formation, ctt,
                         expand_abbreviations, fin, fjt, parse_formula,
                         parse_regime, print_formula, stt_down, stt_up)
from hotk.kernel.syntax import free_atoms
from hotk.models import (akey, build_fjt_canonical,
                         build_graph_model, build_pure_model,
                         check_axiom_suite, decide_fjt,
                         domain_const, eval_formula, fjt_counts,
                         gen_domain_formula, M_RUSSELLIAN, M_UNRESTRICTED,
                         UNRESTRICTED_STT)
from hotk.proofkit import check_proof, load_fixture
from hotk.proofkit.fixtures import fixture_manifest, verify_fixture_suite
from hotk.settheory import (S_construction, T_construction, build_V,
                            check_kappa_axioms_in_T, hereditary_part,
                            is_standard, is_standard_typed,
                            mostowski_collapse, valid_slice_types)
from hotk.translate import roundtrip_check


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_formation_matrix():
    start = time.monotonic()
    doc = formation_matrix()
    regimes = {r: parse_regime(r) for r in doc["regimes"]}
    assert len(doc["formulas"]) == 40 and len(regimes) == 6
    table = {}
    for entry in doc["formulas"]:
        f = parse_formula(entry["formula"])
        for rname, expected in entry["verdicts"].items():
            got = check_formation(f, regimes[rname]).ok
            assert got == expected, (entry["formula"], rname)
            table[(entry["formula"], rname)] = got
    # the pinned verdict patterns
    assert table[("c^2(a^0)", "stt")] is False
    assert table[("c^2(a^0)", "ctt:w")] is True
    assert table[("b^0(a^2)", "ctt-liberal:w")] is True
    assert all(table[("b^0(a^2)", r)] is False
               for r in regimes if r != "ctt-liberal:w")
    assert all(table[("x^0 = y^1", r)] is False for r in regimes)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"formation matrix took {elapsed:.2f}s"
    report(1, f"40-formula matrix under 6 regimes, exact match, {elapsed:.3f}s")


def test_criterion_2_expansion_goldens():
    cases = golden_cases()
    assert len(cases) == 20
    for case in cases:
        regime = parse_regime(case["regime"])
        got = print_formula(alpha_normalize(expand_abbreviations(
            parse_formula(case["input"]), regime)))
        assert got == case["expect"], case["name"]
    report(2, "20 expansion goldens match character for character")


def test_criterion_3_fjt_counting_and_decision(fjt2, fjt3):
    start = time.monotonic()
    assert [fjt_counts(n) for n in range(4)] == [1, 2, 8, 2048]
    assert [len(fjt3.domains[n]) for n in range(4)] == [1, 2, 8, 2048]
    gen = FormulaGen(parse_regime("fjt"), seed=2024, max_type=2)
    agreements = 0
    for _ in range(200):
        sentence = gen.sentence()
        expected = oracle_eval(fjt2, sentence, {})
        assert decide_fjt(sentence, 2, model=fjt2) == expected
        agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == 200
    assert elapsed < 60.0, f"decision agreement took {elapsed:.1f}s"
    report(3, f"h(0..3) = 1,2,8,2048 and 200/200 decision agreement, {elapsed:.1f}s")


def test_criterion_4_independence_models():
    astruct = build_graph_model(graph_fixture("astruct.json"), height=4)
    rep = check_axiom_suite(astruct, parse_regime("ctt:w"), 2)
    for v in rep.verdicts:
        if v.name == "type-founded":
            assert v.status == "FAIL"
            assert "a^1" in v.witness
        else:
            assert v.status == "PASS", v
    assert rep.status("type-base") == "PASS"

    quine = build_graph_model(graph_fixture("quine.json"), height=4)
    repq = check_axiom_suite(quine, parse_regime("ctt:w"), 2)
    assert repq.status("type-base") == "FAIL"
    report(4, "ill-founded structure fails exactly type-founded; "
              "the self-membered point breaks type-base")


def test_criterion_5_elementary_lemmas_semantically(pure4):
    # type-raising instances at every representable pair
    for alpha in range(3):
        for beta in range(alpha, 3):
            f = parse_formula(f"all x^{alpha}. some y^{beta}. x^{alpha} eq y^{beta}")
            assert eval_formula(pure4, f) is True, (alpha, beta)

    # indiscernibility congruence: all entity pairs, ten contexts
    tables = PairTables(pure4)
    contexts = [
        "some z^{s}. z^{s}(h^{t})",
        "all z^{s}. z^{s}(h^{t}) -> z^{s}(h^{t})",
        "all z^{s}. z^{s}(h^{t}) -> some v^{t}. z^{s}(v^{t})",
        "h^{t} eq h^{t}",
        "some v^{t}. v^{t} eq h^{t}",
        "some z^{s}. z^{s}(h^{t}) & all v^{t}. (z^{s}(v^{t}) -> v^{t} eq h^{t})",
        "h^{t} = h^{t}",
        "~some z^{s}. z^{s}(h^{t}) & ~z^{s}(h^{t})",
        "some z^{s}. all v^{t}. (z^{s}(v^{t}) <-> v^{t} eq h^{t})",
        "all v^{t}. (v^{t} eq h^{t} -> h^{t} eq v^{t})",
    ]
    assert len(contexts) == 10

    def ctx(template, t):
        return parse_formula(template.replace("{s}", str(t + 1))
                             .replace("{t}", str(t)))

    checked_pairs = 0
    for alpha in range(3):
        for beta in range(3):
            for a in pure4.domains[alpha]:
                for b in pure4.domains[beta]:
                    if not tables.eq(alpha, a, beta, b):
                        continue
                    checked_pairs += 1
                    for template in contexts:
                        va = eval_formula(pure4, ctx(template, alpha),
                                          {("h", fin(alpha)): a})
                        vb = eval_formula(pure4, ctx(template, beta),
                                          {("h", fin(beta)): b})
                        assert va == vb, (template, alpha, a, beta, b)
    assert checked_pairs > 0

    # the foundation bridge biconditional, exhaustively
    for alpha in (0, 1):
        lhs = parse_formula(f"h^{alpha} in g^1")
        rhs = parse_formula(f"some x^0 eq h^{alpha}. g^1(x^0)")
        for a in pure4.domains[alpha]:
            for b in pure4.domains[1]:
                env = {("h", fin(alpha)): a, ("g", fin(1)): b}
                assert eval_formula(pure4, lhs, env) == \
                    eval_formula(pure4, rhs, env), (alpha, a, b)
    report(5, f"raising, congruence ({checked_pairs} identity pairs x 10 "
              "contexts) and the foundation bridge hold exhaustively")


def test_criterion_6_superscripted_axioms_finite_scale():
    start = time.monotonic()
    corpus = separation_corpus()
    assert len(corpus) >= 40
    for n in (3, 4):
        rep = check_kappa_axioms_in_T(build_V(n), n - 2, corpus)
        assert rep.status("extensionality^k") == "PASS", n
        assert rep.status("separation^k") == "PASS", n
        assert rep.status("stratification^k") == "PASS", n
        assert rep.status("endless^k") == "FAIL", n
        assert rep.status("infinity^k") == "FAIL", n
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"kappa axioms took {elapsed:.1f}s"
    report(6, f"superscripted LT holds in the typed expansions, {elapsed:.1f}s")


def test_criterion_7_level_theory_round_trip():
    fixtures = [(f"build_V({n})", build_V(n)) for n in (1, 2, 3, 4)]
    fixtures += [(name, graph_fixture(name)) for name in transitive_fixture_names()]
    assert len(fixtures) == 9
    trips = 0
    for name, g in fixtures:
        assert g.transitive, name
        m = T_construction(g)
        for kappa in valid_slice_types(g):
            out, _ = mostowski_collapse(S_construction(m, kappa))
            expected = hereditary_part(g, kappa)
            assert set(out.nodes) == set(expected.nodes), (name, kappa)
            assert out.edges == expected.edges, (name, kappa)
            trips += 1
    assert trips > 0

    nonstandard_seen = False
    for name, g in fixtures:
        graph_side = is_standard(g)
        typed_side = is_standard_typed(T_construction(g))
        assert graph_side == typed_side, name
        nonstandard_seen = nonstandard_seen or not graph_side
    assert nonstandard_seen
    assert not is_standard(graph_fixture("v4_minus_rank3.json"))
    report(7, f"{trips} slice/collapse round trips and standardness "
              "transport across 9 fixtures")


def test_criterion_8_definitional_equivalence_surrogates(pure4_up, fjt3_down):
    from hotk.translate import (ctt_to_sttu, fjt_to_sttd, sttd_to_fjt,
                                sttu_to_ctt)
    plans = [
        (ctt(), stt_up(), 3, pure4_up, 21),
        (stt_up(), ctt(), 3, pure4_up, 21),
        (fjt(), stt_down(), 2, fjt3_down, 29),
        (stt_down(), fjt(), 2, fjt3_down, 29),
    ]
    total = 0
    for src, dst, max_type, model, count in plans:
        gen = FormulaGen(src, seed=77, max_type=max_type)
        fwd = {"ctt": ctt_to_sttu, "stt_up": sttu_to_ctt,
               "fjt": fjt_to_sttd, "stt_down": sttd_to_fjt}[src.kind]
        for _ in range(count):
            f = gen.formula()
            assert check_formation(f, src).ok
            image = fwd(f)
            assert check_formation(image, dst).ok, print_formula(f)
            r = roundtrip_check(f, src, model)
            assert r.semantic_equivalent, (src.kind, print_formula(f),
                                           r.counterexample)
            total += 1
    assert total == 100

    # chain properties, exhaustively, in the projection companion at height 3
    m = fjt3_down
    down = {}
    for (k, b, a) in m.down_rel:
        down.setdefault((k, b), set()).add(a)
    for n1 in (2, 3):
        for b in m.domains[n1]:
            assert down.get((n1, b)), "projection must exist"
    # shared projection forces projection-equivalence
    for n1 in (2, 3):
        for x in m.domains[n1 - 1]:
            holders = [b for b in m.domains[n1] if x in down.get((n1, b), ())]
            for a in holders:
                for b in holders:
                    assert down[(n1, a)] == down[(n1, b)]
    # full chains: a projection step forces coextensiveness all the way down
    for a3 in m.domains[3]:
        (a2,) = down[(3, a3)]
        (a1,) = down[(2, a2)]
        for b2 in m.domains[2]:
            (b1,) = down[(2, b2)]
            if b2 in down[(3, a3)]:
                assert m.extension(a2, 1) == m.extension(b2, 1)
                assert m.extension(a1, 0) == m.extension(b1, 0)
            if m.extension(a2, 1) == m.extension(b2, 1) and \
               m.extension(a2, 0) == m.extension(b2, 0):
                assert b2 in down[(3, a3)]
    report(8, "100/100 translated formulas semantically round-trip; "
              "chain properties hold exhaustively at height 3")


def test_criterion_9_domain_formulas(fjt3, pure4):
    def u1(m):
        return next(e for e in m.domains[1] if m.applies(e, m.domains[0][0]))

    def u2(m):
        return next(e for e in m.domains[2]
                    if all(m.applies(e, x) for x in m.domains[0])
                    and all(m.applies(e, x) for x in m.domains[1]))

    def h2(m):
        return next(e for e in m.domains[2]
                    if all(m.applies(e, x) for x in m.domains[0])
                    and not any(m.applies(e, x) for x in m.domains[1]))

    m = fjt3
    env1 = {akey(domain_const(1)): u1(m)}
    assert eval_formula(m, gen_domain_formula(M_UNRESTRICTED, 1, 1), env1)
    assert not eval_formula(m, gen_domain_formula(M_UNRESTRICTED, 1, 2), env1)

    env2 = {akey(domain_const(2)): u2(m)}
    assert eval_formula(m, gen_domain_formula(M_UNRESTRICTED, 2, 1), env2)
    assert not eval_formula(m, gen_domain_formula(M_RUSSELLIAN, 2, 1), env2)

    counter = parse_formula("(all x^0. (d^1(x^0) -> h^2(x^0))) & ~all x^1. h^2(x^1)")
    assert eval_formula(m, counter, {("d", fin(1)): u1(m), ("h", fin(2)): h2(m)})

    assert eval_formula(pure4, gen_domain_formula(UNRESTRICTED_STT, 1),
                        {akey(domain_const(1)): u1(pure4)})
    report(9, "relativized domain verdicts match, including the "
              "counterexample property")


def test_criterion_10_proof_checker(pure4, pure4_up):
    rep = verify_fixture_suite()
    assert rep.all_as_expected, "\n".join(rep.lines())
    manifest = fixture_manifest()
    assert len(manifest["positive"]) >= 6
    assert {"raising_0_1.proof", "raising_1_2.proof", "raising_0_2.proof",
            "indiscern_transfer.proof"} <= set(manifest["positive"])
    tags = {item["tag"] for item in manifest["negative"]}
    assert {"eigenvariable-assumption", "type-side-condition",
            "comprehension-witness", "premise-range", "formation"} <= tags
    assert len(manifest["negative"]) >= 5

    from hotk.models import eval_formula as ev
    for name in manifest["positive"]:
        proof = load_fixture(name)
        model = pure4_up if proof.theory.kind == "stt_up" else pure4
        assert ev(model, universal_closure(proof)) is True, name
    report(10, f"{len(manifest['positive'])} positives accepted, "
               f"{len(manifest['negative'])} negatives rejected with correct "
               "tags, conclusions true in the pure hierarchy")
