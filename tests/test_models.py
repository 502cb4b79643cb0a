import json
import random
from dataclasses import replace

import pytest

from genutil import FormulaGen, all_env, oracle_eval
from hotk.errors import BudgetExceeded, EvalError, FormationError
from hotk.kernel import (alpha_normalize, ctt, fin, parse_formula,
                         parse_regime, print_formula)
from hotk.kernel.syntax import Const, Var, free_atoms
from hotk.models import (Model, akey, build_class_model,
                         build_fjt_canonical, build_graph_model,
                         build_pure_model, build_sttd_companion,
                         build_sttu_companion, check_axiom_suite,
                         count_entities, decide_fjt, eval_formula, fjt_counts,
                         gen_domain_formula, M_RUSSELLIAN, M_RUSSELLIAN_STAR,
                         M_UNRESTRICTED, UNRESTRICTED_STT, domain_const)
from hotk.corpus import graph_fixture
from axiom_oracle import PairTables


def class_sizes(urelements, height):
    """Independent size recurrence: |U_1| = u + 1, |U_{a+1}| = 2^|U_a| + u."""
    sizes = [urelements + 1]
    for _ in range(height - 1):
        sizes.append(2 ** sizes[-1] + urelements)
    return sizes


class TestBuilders:
    def test_class_model_sizes_match_recurrence(self):
        for u in (0, 1, 2):
            for h in (1, 2, 3):
                m = build_class_model(u, h)
                assert [len(d) for d in m.domains] == class_sizes(u, h)

    def test_class_model_example(self):
        m = build_class_model(1, 2)
        assert len(m.domains[0]) == 2    # the urelement and the empty set
        assert len(m.domains[1]) == 5    # powerset of those, plus the urelement

    def test_pure_model_sizes(self):
        assert [len(d) for d in build_pure_model(5).domains] == [1, 2, 4, 16, 65536]

    def test_pure_model_is_class_model_without_urelements(self):
        pure = build_pure_model(3)
        cls = build_class_model(0, 3)
        assert pure.domains == cls.domains
        assert pure.members == cls.members

    def test_cumulative_domains_nest(self, pure4):
        for n in range(pure4.max_type):
            assert set(pure4.domains[n]) <= set(pure4.domains[n + 1])

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            build_class_model(0, 6, budget=10 ** 6)

    def test_fjt_counts_match_recurrence(self, fjt3):
        assert [fjt_counts(n) for n in range(4)] == [1, 2, 8, 2048]
        assert [count_entities(fjt3, n) for n in range(4)] == [1, 2, 8, 2048]

    def test_fjt_domains_disjoint(self, fjt3):
        seen = set()
        for d in fjt3.domains:
            assert not (set(d) & seen)
            seen |= set(d)

    def test_graph_model_ranks_checked(self):
        g = graph_fixture("astruct.json")
        from hotk.errors import GraphError
        with pytest.raises(GraphError):
            build_graph_model(g, height=1)   # labels reach rank 2


class TestEval:
    def test_purity_in_pure_model(self, pure4):
        assert eval_formula(pure4, parse_formula("all x^0. all y^0. x^0 = y^0"))

    def test_type_raising_instance(self, pure4):
        assert eval_formula(pure4, parse_formula("all x^0. some y^1. x^0 eq y^1"))

    def test_urelements_are_memberless(self):
        m = build_class_model(1, 3)
        u = [e for e in m.domains[0] if e.startswith("u")][0]
        env = {("b", fin(0)): u, ("a", fin(2)): m.domains[2][-1]}
        assert eval_formula(m, parse_formula("b^0(a^2)"), env) is False

    def test_unassigned_variable_raises(self, pure4):
        with pytest.raises(EvalError):
            eval_formula(pure4, parse_formula("x^0 = y^0"), {})

    def test_type_bound_exceeded(self, fjt2):
        with pytest.raises(EvalError):
            eval_formula(fjt2, parse_formula("all x^3. x^3 = x^3"))

    def test_eval_invariant_under_alpha_renaming(self, pure4):
        gen = FormulaGen(ctt(), seed=5, max_type=2)
        for _ in range(25):
            f = gen.formula()
            g = alpha_normalize(f)
            for env in all_env(pure4, free_atoms(f)):
                assert eval_formula(pure4, f, env) == eval_formula(pure4, g, env)

    def test_eval_agrees_with_direct_oracle(self, pure4):
        gen = FormulaGen(ctt(), seed=13, max_type=2)
        for _ in range(40):
            f = gen.formula()
            for env in all_env(pure4, free_atoms(f)):
                assert eval_formula(pure4, f, env) == oracle_eval(pure4, f, env)


class TestCompanions:
    def test_up_companion_satisfies_up_axioms(self, pure4_up):
        rep = check_axiom_suite(pure4_up, parse_regime("stt-up"), pure4_up.max_type)
        assert rep.all_pass, rep.lines()

    def test_down_companion_satisfies_down_axioms(self, fjt3_down):
        rep = check_axiom_suite(fjt3_down, parse_regime("stt-down"), 3)
        for name in ("down-exists", "down-sim", "down-max"):
            assert rep.status(name) == "PASS"

    def test_companion_requires_matching_builder(self, pure4, fjt3):
        with pytest.raises(EvalError, match="canonical tuple model"):
            build_sttd_companion(pure4)
        with pytest.raises(EvalError, match="cumulative hierarchy model"):
            build_sttu_companion(fjt3)

    def test_chain_lemma_shared_projection(self, fjt3_down):
        # two projections of one entity are coextensive and project alike
        m = fjt3_down
        for n1 in (2, 3):
            downs = {}
            for (k, b, a) in m.down_rel:
                if k == n1:
                    downs.setdefault(b, set()).add(a)
            for b, targets in downs.items():
                assert len(targets) >= 1
                pairs = [(x, y) for x in targets for y in targets]
                for x, y in pairs:
                    assert m.extension(x, n1 - 2) == m.extension(y, n1 - 2)


class TestAxiomSuites:
    def test_pure_pctt_all_pass(self, pure4):
        rep = check_axiom_suite(pure4, parse_regime("pctt:w"), 2)
        assert rep.all_pass

    def test_fjt_contradicts_type_raising(self, fjt2):
        rep = check_axiom_suite(fjt2, parse_regime("ctt:w"), 1)
        assert rep.status("type-raising") == "FAIL"

    def test_fjt_own_suite_passes(self, fjt2):
        rep = check_axiom_suite(fjt2, parse_regime("fjt"), 2)
        assert rep.all_pass, rep.lines()

    def test_skipped_on_oversized_domain(self):
        m = build_pure_model(5)
        rep = check_axiom_suite(m, parse_regime("stt"), 4, budget=10 ** 4)
        assert rep.status("comprehension") == "SKIPPED"
        assert rep.verdicts[0].note == "2^16 subsets at type 3"
        assert rep.verdicts[0].witness is None

    def test_scheme_rows_skip_a_domain_above_the_budget(self, pure4):
        rep = check_axiom_suite(pure4, parse_regime("pctt:w"), 3, budget=10)
        for v in rep.verdicts[1:5]:
            assert v.status == "SKIPPED" and v.witness is None
            assert "16 entities, above budget 10" in v.note
        assert rep.status("type-purity") == "PASS"

    def test_a_budget_skip_names_the_type_or_the_nodes(self, pure4):
        rep = check_axiom_suite(pure4, parse_regime("pctt:w"), 3, budget=10)
        assert rep.verdicts[1].note == \
            "quantifier over type 3 ranges over 16 entities, above budget 10"
        with pytest.raises(BudgetExceeded) as e:
            eval_formula(graph_fixture("chain4.json"),
                         parse_formula("all x. x = x", "set"), budget=2)
        assert str(e.value) == \
            "quantifier over the nodes ranges over 4 entities, above budget 2"

    def test_every_axiom_gets_a_row(self, pure4_up, fjt2):
        up = dict(pure4_up.up_map)
        up[(2, pure4_up.domains[2][3])] = up[(2, pure4_up.domains[2][0])]
        rep = check_axiom_suite(replace(pure4_up, up_map=up),
                                parse_regime("stt-up"), 3)
        assert [(v.name, v.status) for v in rep.verdicts] == [
            ("comprehension", "PASS"), ("up-inject", "FAIL"),
            ("up-possess", "FAIL"), ("up-founded", "PASS"), ("up-base", "PASS")]
        down = build_sttd_companion(fjt2)
        rel = set(sorted(down.down_rel)[1:])
        rep = check_axiom_suite(replace(down, down_rel=rel),
                                parse_regime("stt-down"), 2)
        assert [(v.name, v.status) for v in rep.verdicts] == [
            ("comprehension-type1", "PASS"), ("comprehension-augmented", "FAIL"),
            ("down-exists", "FAIL"), ("down-sim", "PASS"), ("down-max", "PASS")]

    def test_pair_tables_agree_with_formula_eval(self, pure4):
        t = PairTables(pure4)
        f_eq = parse_formula("s^1 eq t^2")
        f_in = parse_formula("s^1 in t^1")
        for a in pure4.domains[1]:
            for b in pure4.domains[2]:
                env = {("s", fin(1)): a, ("t", fin(2)): b}
                assert t.eq(1, a, 2, b) == eval_formula(pure4, f_eq, env)
            for b in pure4.domains[1]:
                env = {("s", fin(1)): a, ("t", fin(1)): b}
                assert t.isin(1, a, 1, b) == eval_formula(pure4, f_in, env)


class TestInvariants:
    def test_cumulative_quantifier_pattern(self, pure4):
        # a true universal at a higher type instantiates downward
        f = parse_formula("all x^2. some z^3. z^3(x^2)")
        assert eval_formula(pure4, f)
        g = parse_formula("some z^3. z^3(x^0)")
        for e in pure4.domains[0]:
            assert eval_formula(pure4, g, {("x", fin(0)): e})

    def test_identity_congruence_pairs(self, pure4):
        # whenever the defined identity holds, contexts transfer truth
        t = PairTables(pure4)
        contexts = [parse_formula(s) for s in (
            "some z^{n}. z^{n}(h^{m})".replace("{n}", "1").replace("{m}", "0"),
        )]
        for alpha in range(3):
            for beta in range(3):
                for a in pure4.domains[alpha]:
                    for b in pure4.domains[beta]:
                        if t.eq(alpha, a, beta, b):
                            ctx_a = parse_formula(f"some z^{alpha + 1}. z^{alpha + 1}(h^{alpha})")
                            ctx_b = parse_formula(f"some z^{beta + 1}. z^{beta + 1}(h^{beta})")
                            va = eval_formula(pure4, ctx_a, {("h", fin(alpha)): a})
                            vb = eval_formula(pure4, ctx_b, {("h", fin(beta)): b})
                            assert va == vb

    def test_foundation_bridge(self, pure4):
        # a in b^{s+1} iff some type-s entity identical to a has b
        lhs = parse_formula("h^1 in g^1")
        rhs = parse_formula("some x^0 eq h^1. g^1(x^0)")
        for a in pure4.domains[1]:
            for b in pure4.domains[1]:
                env = {("h", fin(1)): a, ("g", fin(1)): b}
                assert eval_formula(pure4, lhs, env) == eval_formula(pure4, rhs, env)


class TestDecide:
    def test_purity_sentence(self):
        assert decide_fjt(parse_formula("all x^0. all y^0. x^0 = y^0"), 2)

    def test_mixed_comprehension_witness(self):
        f = parse_formula(
            "some z^2. (all x^1. (z^2(x^1) <-> x^1 = x^1)) & all x^0. (z^2(x^0) <-> ~x^0 = x^0)")
        assert decide_fjt(f, 2)

    def test_exactly_eight_type_two_entities(self, fjt2):
        parts = []
        names = [f"e{i}" for i in range(8)]
        distinct = " & ".join(f"~{a}^2 = {b}^2"
                              for i, a in enumerate(names) for b in names[i + 1:])
        cover = f"all w^2. ({' | '.join(f'w^2 = {a}^2' for a in names)})"
        quantified = f"({distinct}) & {cover}"
        for n in reversed(names):
            quantified = f"some {n}^2. ({quantified})"
        f = parse_formula(quantified)
        assert decide_fjt(f, 2, model=fjt2)

    def test_open_formula_rejected(self):
        with pytest.raises(EvalError):
            decide_fjt(parse_formula("x^0 = x^0"), 2)

    def test_height_guard(self):
        with pytest.raises(EvalError):
            decide_fjt(parse_formula("all x^3. x^3 = x^3"), 2)

    @pytest.mark.parametrize("closed, height, error, message", [
        ("all x^0. all y^1. x^0 = y^1", 2, FormationError,
         "strict identity needs equal types (0 vs 1)"),
        ("all x^3. x^3 = x^3", 2, EvalError, "sentence uses type 3, above height 2"),
        # eq at type 1 quantifies at type 2
        ("all x^1. x^1 eq x^1", 1, EvalError, "sentence uses type 2, above height 1"),
        # no canonical model reaches height 4
        ("all x^5. x^5 = x^5", 4, EvalError, "sentence uses type 5, above height 4"),
    ])
    def test_an_open_sentence_is_refused_before_any_other_fault(
            self, closed, height, error, message):
        """The closed sentence fails for its fault; with its binders
        dropped, for being open."""
        with pytest.raises(error) as e:
            decide_fjt(parse_formula(closed), height)
        assert str(e.value) == message
        open_ = closed.split(". ")[-1]
        with pytest.raises(EvalError) as e:
            decide_fjt(parse_formula(open_), height)
        assert str(e.value) == "decision procedure needs a closed sentence"

    def test_agrees_with_grounding_oracle_on_random_sentences(self, fjt2):
        from hotk.kernel.regimes import fjt as fjt_regime
        gen = FormulaGen(fjt_regime(), seed=99, max_type=2)
        agree = 0
        for _ in range(60):
            f = gen.sentence()
            want = oracle_eval(fjt2, f, {})
            got = decide_fjt(f, 2, model=fjt2)
            assert got == want
            agree += 1
        assert agree == 60


class TestDomainFormulas:
    def test_unrestricted_in_pure_model(self, pure4):
        u1 = pure4.domains[1][-1]   # the set {empty}: holds of every object
        assert pure4.applies(u1, pure4.domains[0][0])
        f = gen_domain_formula(UNRESTRICTED_STT, 1)
        assert eval_formula(pure4, f, {akey(domain_const(1)): u1})

    def _u1(self, m):
        # the type-1 entity true of the single object
        for e in m.domains[1]:
            if m.applies(e, m.domains[0][0]):
                return e
        raise AssertionError

    def _u2(self, m):
        for e in m.domains[2]:
            if all(m.applies(e, x) for x in m.domains[0]) and \
               all(m.applies(e, x) for x in m.domains[1]):
                return e
        raise AssertionError

    def _h2(self, m):
        for e in m.domains[2]:
            if all(m.applies(e, x) for x in m.domains[0]) and \
               not any(m.applies(e, x) for x in m.domains[1]):
                return e
        raise AssertionError

    def test_h2_counterexample(self, fjt3):
        u1, h2 = self._u1(fjt3), self._h2(fjt3)
        f = parse_formula("(all x^0. (d^1(x^0) -> h^2(x^0))) & ~all x^1. h^2(x^1)")
        env = {("d", fin(1)): u1, ("h", fin(2)): h2}
        assert eval_formula(fjt3, f, env)

    def test_u1_one_unrestricted_not_two(self, fjt3):
        u1 = self._u1(fjt3)
        env = {akey(domain_const(1)): u1}
        assert eval_formula(fjt3, gen_domain_formula(M_UNRESTRICTED, 1, 1), env)
        assert not eval_formula(fjt3, gen_domain_formula(M_UNRESTRICTED, 1, 2), env)

    def test_u2_one_unrestricted_not_one_russellian(self, fjt3):
        u2 = self._u2(fjt3)
        env = {akey(domain_const(2)): u2}
        assert eval_formula(fjt3, gen_domain_formula(M_UNRESTRICTED, 2, 1), env)
        assert not eval_formula(fjt3, gen_domain_formula(M_RUSSELLIAN, 2, 1), env)

    def test_russellian_star_formation_guard(self):
        from hotk.errors import FormationError
        with pytest.raises(FormationError):
            gen_domain_formula(M_RUSSELLIAN_STAR, 1, 2)

    def test_h2_star_relativity(self, fjt3):
        # the counterexample entity is 1-Russellian* but not 2-Russellian*
        h2 = self._h2(fjt3)
        env = {akey(domain_const(2)): h2}
        assert eval_formula(fjt3, gen_domain_formula(M_RUSSELLIAN_STAR, 2, 1), env)
        assert not eval_formula(fjt3, gen_domain_formula(M_RUSSELLIAN_STAR, 2, 2), env)


class TestSerialization:
    def test_round_trip_preserves_structure(self, pure4):
        m2 = Model.loads(pure4.dumps())
        assert m2.domains == pure4.domains
        assert m2.members == pure4.members
        assert m2.cumulative == pure4.cumulative

    def test_round_trip_preserves_eval(self, fjt3_down):
        m2 = Model.loads(fjt3_down.dumps())
        f = parse_formula("all z^3. some x^2. z^3 dn x^2")
        assert eval_formula(m2, f) == eval_formula(fjt3_down, f) is True

    def test_dumps_deterministic(self, fjt2):
        assert fjt2.dumps() == Model.loads(fjt2.dumps()).dumps()


class TestOracleCrossValidation:
    def _crosscheck(self, model, regime, seed, count):
        gen = FormulaGen(regime, seed=seed, max_type=2, max_depth=2,
                         max_free=1)
        for _ in range(count):
            f = gen.formula()
            for env in all_env(model, free_atoms(f)):
                assert eval_formula(model, f, env) == \
                    oracle_eval(model, f, env), print_formula_safe(f)

    def test_projection_formulas_agree_with_oracle(self, fjt3_down):
        from hotk.kernel.regimes import stt_down
        self._crosscheck(fjt3_down, stt_down(), 21, 30)

    def test_raised_formulas_agree_with_oracle(self, pure4_up):
        from hotk.kernel.regimes import stt_up
        self._crosscheck(pure4_up, stt_up(), 22, 30)

    def test_downeq_and_coext_sugar_agree(self, fjt3_down):
        from itertools import islice
        from hotk.kernel import parse_formula as pf
        for text in ("a^2 downeq b^2", "a^1 downeq b^1", "a^2 coext b^2",
                     "a^3 coext_2 b^3", "a^2 coext_1 b^2"):
            f = pf(text)
            # exhaustive at low types, a deterministic slice at type 3
            for env in islice(all_env(fjt3_down, free_atoms(f)), 4096):
                assert eval_formula(fjt3_down, f, env) == \
                    oracle_eval(fjt3_down, f, env), (text, env)


def print_formula_safe(f):
    from hotk.kernel import print_formula
    try:
        return print_formula(f)
    except Exception:
        return repr(f)
