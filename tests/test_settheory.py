from pathlib import Path

import pytest

import hotk
from hotk.corpus import graph_fixture, separation_corpus, transitive_fixture_names
from hotk.errors import EvalError, GraphError, RankUndefined
from hotk.graphs import MembershipGraph
from hotk.kernel import fin
from hotk.settheory import (S_construction, T_construction, build_V,
                            check_kappa_axioms_in_T, check_set_axioms,
                            check_wellordering_of_levels,
                            extensionality_formula, hereditary_part,
                            infinity_formula, is_standard,
                            is_standard_typed, levels_of,
                            mostowski_collapse, rank, separation_instance,
                            stratification_formula, valid_slice_types)
from hotk.kernel.parser import MAX_DEPTH, parse_formula
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import Sugar, Var, free_atoms
from hotk.models import eval_formula


class TestBuildV:
    def test_sizes(self):
        assert [len(build_V(n).nodes) for n in range(5)] == [0, 1, 2, 4, 16]

    def test_transitive(self):
        for n in range(1, 5):
            assert build_V(n).transitive

    def test_ord_is_n(self):
        for n in range(1, 5):
            assert build_V(n).ord() == n


class TestLevelsAndRank:
    def test_levels_of_v4_are_the_four_initial_segments(self):
        g = build_V(4)
        lv = levels_of(g)
        assert len(lv) == 4
        assert [len(g.members(s)) for s in lv] == [0, 1, 2, 4]

    def test_empty_history_vacuous(self):
        g = build_V(3)
        s = {("s", None): "{}"}
        assert eval_formula(g, parse_formula("Hist(s)", "set"), s)
        assert eval_formula(g, parse_formula("Lev(s)", "set"), s)

    def test_rank_by_definition_matches_construction_rank(self):
        g = build_V(4)
        lv = levels_of(g)
        structural = g.structural_ranks()
        for node in g.nodes:
            assert rank(g, node, lv) == structural[node]

    def test_rank_of_singleton_empty(self):
        # least level including {{}} as a subset is the two-element level
        g = build_V(4)
        assert rank(g, "{{}}") == 1

    def test_rank_is_not_the_rank_sugar_off_well_ordered_levels(self):
        # a in a: a is a level including itself, so rank counts one level
        # in it, while Rank(a, s) needs a level including a with no level
        # member including a, and a is its own member.
        g = MembershipGraph(("a",), frozenset([("a", "a")]))
        assert levels_of(g) == ["a"]
        assert rank(g, "a") == 1
        f = Sugar("rank", (Var("a", None), Var("s", None)))
        assert not any(eval_formula(g, f, {("a", None): "a", ("s", None): s})
                       for s in g.nodes)

    def test_rank_undefined_signaled(self):
        g = graph_fixture("quine.json")
        with pytest.raises(RankUndefined):
            rank(g, "b")

    def test_wellordering_of_levels(self):
        for n in range(1, 5):
            assert check_wellordering_of_levels(build_V(n))
        assert check_wellordering_of_levels(
            MembershipGraph((), frozenset()))   # vacuous

    def test_wellordering_on_astruct_levels(self):
        assert check_wellordering_of_levels(graph_fixture("astruct.json"))


class TestSetAxioms:
    def test_v_models_lt(self):
        for n in range(1, 5):
            rep = check_set_axioms(build_V(n), "lt", separation_corpus())
            assert rep.all_pass, (n, rep.lines())

    def test_v3_fails_endless_and_infinity(self):
        rep = check_set_axioms(build_V(3), "zr", ())
        assert rep.status("endless") == "FAIL"
        assert rep.status("infinity") == "FAIL"

    def test_quine_graph_fails_extensionality_check_or_not(self):
        # the quine fixture is extensional as a graph; LT still fails at
        # stratification since nothing stratifies the self-membered point
        rep = check_set_axioms(graph_fixture("quine.json"), "lt", ())
        assert rep.status("stratification") == "FAIL"

    def test_separation_instance_closes_parameters(self):
        phi = parse_formula("x in p", mode="set")
        inst = separation_instance(phi)
        from hotk.kernel.syntax import Forall
        assert isinstance(inst, Forall)       # the parameter p is closed
        assert eval_formula(build_V(3), inst)

    def test_separation_witness_captures_no_parameter(self):
        """The witness is a new name, so an instance holds exactly when its
        alpha-variant does.  A witness named b0 would capture the parameter
        b0 and make the first instance true on CAPTURE_GRAPH and on
        v4_minus_rank3, where the second is false."""
        named = separation_instance(parse_formula("x in b & x in b0", mode="set"))
        renamed = separation_instance(parse_formula("x in p & x in q", mode="set"))
        graphs = [MembershipGraph.loads(CAPTURE_GRAPH)]
        graphs += [build_V(n) for n in range(1, 5)]
        graphs += [graph_fixture(p.name) for p in sorted(GRAPH_DIR.glob("*.json"))]
        for g in graphs:
            assert eval_formula(g, named) == eval_formula(g, renamed), g.nodes
        assert not eval_formula(graphs[0], renamed)

    def test_separation_instances_bind_every_atom(self):
        """An instance is a sentence in the notation: its binders bind the
        atoms of phi they close over, so it has no free atom and reads
        back as itself."""
        texts = ["x in p", "x in p & some x. x in a", "all p in a. x in p",
                 "Rank(x, q) | ~Lev(b1)"]
        for phi in separation_corpus() + [parse_formula(t, "set") for t in texts]:
            inst = separation_instance(phi)
            assert free_atoms(inst) == frozenset(), print_formula(inst)
            assert parse_formula(print_formula(inst), "set") == inst

    def test_a_line_at_the_nesting_cap_makes_an_instance(self):
        """The instance is built around phi's tree, not read back from its
        text, so any line the parser reads makes an instance."""
        deep = parse_formula("~" * MAX_DEPTH + "x in p", "set")
        inst = separation_instance(deep)
        assert free_atoms(inst) == frozenset()
        assert eval_formula(build_V(2), inst)


GRAPH_DIR = Path(hotk.__file__).parent / "data" / "graphs"
CAPTURE_GRAPH = """{"nodes": ["{}", "{{}}", "{{},{{}}}", "{{{}},{{},{{}}}}"],
 "edges": [["{}", "{{}}"], ["{}", "{{},{{}}}"], ["{{}}", "{{},{{}}}"],
           ["{{}}", "{{{}},{{},{{}}}}"], ["{{},{{}}}", "{{{}},{{},{{}}}}"]]}"""


class TestConstructions:
    def test_t_model_domain_sizes(self):
        m = T_construction(build_V(4))
        assert [len(d) for d in m.domains] == [1, 2, 4, 16]
        assert m.max_type == 3

    def test_t_requires_transitive(self):
        with pytest.raises(GraphError):
            T_construction(graph_fixture("astruct.json"))

    def test_t_satisfies_pure_theory(self):
        from hotk.models import check_axiom_suite
        from hotk.kernel import parse_regime
        m = T_construction(build_V(4))
        rep = check_axiom_suite(m, parse_regime("pctt:w"), 2)
        assert rep.all_pass, rep.lines()

    def test_slice_recovers_membership(self):
        # at types two below the top, defined membership is real membership
        g = build_V(4)
        m = T_construction(g)
        s = S_construction(m, 2)
        expected = hereditary_part(g, 2)
        assert set(s.nodes) == set(expected.nodes)
        assert s.edges == expected.edges

    def test_slice_at_top_type_merges_entities(self):
        # the +2 headroom is genuinely needed: at the top type the defined
        # identity cannot separate maximal-rank sets
        g = build_V(3)
        m = T_construction(g)
        s = S_construction(m, 2)
        assert s.edges != g.edges

    def test_round_trip_via_collapse(self):
        for n in (1, 2, 3, 4):
            g = build_V(n)
            m = T_construction(g)
            kappas = valid_slice_types(g)
            if n >= 2:
                assert n - 2 in kappas   # the standard bonus level
            for kappa in kappas:
                out, _ = mostowski_collapse(S_construction(m, kappa))
                expected = hereditary_part(g, kappa)
                assert set(out.nodes) == set(expected.nodes)
                assert out.edges == expected.edges

    def test_round_trip_on_hand_fixtures(self):
        for name in transitive_fixture_names():
            g = graph_fixture(name)
            assert g.transitive, name
            m = T_construction(g)
            for kappa in valid_slice_types(g):
                out, _ = mostowski_collapse(S_construction(m, kappa))
                expected = hereditary_part(g, kappa)
                assert set(out.nodes) == set(expected.nodes), (name, kappa)
                assert out.edges == expected.edges, (name, kappa)


class TestCollapse:
    def test_identity_on_transitive_input(self):
        g = build_V(3)
        out, mapping = mostowski_collapse(g)
        assert set(out.nodes) == set(g.nodes)
        assert all(mapping[n] == n for n in g.nodes)

    def test_scrambled_names_recovered(self):
        g = MembershipGraph(
            nodes=("n0", "n1", "n2"),
            edges=frozenset([("n0", "n1"), ("n0", "n2"), ("n1", "n2")]))
        out, mapping = mostowski_collapse(g)
        assert mapping == {"n0": "{}", "n1": "{{}}", "n2": "{{},{{}}}"}
        assert out.transitive

    def test_ill_founded_rejected_with_cycle(self):
        with pytest.raises(GraphError) as e:
            mostowski_collapse(graph_fixture("astruct.json"))
        assert "cycle" in str(e.value)
        assert "a" in str(e.value)

    def test_non_extensional_rejected_with_witness(self):
        g = MembershipGraph(nodes=("x", "y", "z"),
                            edges=frozenset([("x", "z")]))
        with pytest.raises(GraphError) as e:
            mostowski_collapse(g)
        assert "extensional" in str(e.value)

    def test_collapse_twice_is_stable(self):
        g = MembershipGraph(
            nodes=("p", "q"), edges=frozenset([("p", "q")]))
        once, _ = mostowski_collapse(g)
        twice, mapping = mostowski_collapse(once)
        assert once.nodes == twice.nodes and once.edges == twice.edges
        assert all(mapping[n] == n for n in once.nodes)


class TestStandardness:
    def test_v_hierarchies_standard(self):
        for n in (1, 2, 3, 4):
            assert is_standard(build_V(n))

    def test_deleted_node_breaks_standardness(self):
        assert not is_standard(graph_fixture("v4_minus_rank3.json"))

    def test_single_node_graph_standard(self):
        assert is_standard(build_V(1))

    def test_transport_between_graph_and_typed_model(self):
        fixtures = [build_V(n) for n in (1, 2, 3, 4)]
        fixtures += [graph_fixture(n) for n in transitive_fixture_names()]
        for g in fixtures:
            assert is_standard(g) == is_standard_typed(T_construction(g))


class TestKappaAxioms:
    def test_surrogate_lemmas_at_v4(self):
        rep = check_kappa_axioms_in_T(build_V(4), 2, separation_corpus())
        assert rep.status("extensionality^k") == "PASS"
        assert rep.status("separation^k") == "PASS"
        assert rep.status("stratification^k") == "PASS"
        assert rep.status("endless^k") == "FAIL"
        assert rep.status("infinity^k") == "FAIL"

    def test_surrogate_lemmas_at_v3(self):
        rep = check_kappa_axioms_in_T(build_V(3), 1, separation_corpus())
        assert rep.status("extensionality^k") == "PASS"
        assert rep.status("stratification^k") == "PASS"

    def test_bound_guard(self):
        from hotk.errors import EvalError
        with pytest.raises(EvalError):
            check_kappa_axioms_in_T(build_V(3), 2, ())

    def test_budget_reaches_every_evaluation(self):
        """Each row evaluates a quantifier over the 4 type-2 entities, so
        each is SKIPPED under budget 2 with the evaluator's message."""
        rep = check_kappa_axioms_in_T(build_V(4), 2, separation_corpus(), budget=2)
        assert [(v.name, v.status, v.witness) for v in rep.verdicts] == [
            (name, "SKIPPED", None) for name in (
                "extensionality^k", "separation^k", "stratification^k",
                "endless^k", "infinity^k")]
        assert {v.note for v in rep.verdicts} == {
            "quantifier over type 2 ranges over 4 entities, above budget 2"}


class TestBraceCodec:
    def test_transitive_names_are_canonical_codes(self):
        v2 = MembershipGraph(("{}", "{{}}"), frozenset({("{}", "{{}}")}))
        assert v2.transitive

        def with_pair(name):
            return MembershipGraph(v2.nodes + (name,),
                                   v2.edges | {("{}", name), ("{{}}", name)})
        assert with_pair("{{},{{}}}").transitive
        # the same set, its members spelled out of canonical order
        assert not with_pair("{{{}},{}}").transitive
        assert not MembershipGraph(("plain",), frozenset()).transitive


def _recursive_find_cycle(g):
    """Reference depth-first search: members in canonical order."""
    color, stack = {}, []

    def visit(a):
        color[a] = 1
        stack.append(a)
        for x in sorted(g.members(a), key=lambda s: (len(s), s)):
            if color.get(x) == 1:
                return stack[stack.index(x):] + [x]
            if x not in color:
                got = visit(x)
                if got:
                    return got
        stack.pop()
        color[a] = 2
        return None

    for a in g.nodes:
        if a not in color:
            got = visit(a)
            if got:
                return got
    return None


def test_cycles_and_ranks_match_the_recursive_walk():
    import random
    rng = random.Random(5)
    graphs = [graph_fixture(n) for n in ("astruct.json", "quine.json",
                                         "chain4.json", "v4_minus_rank3.json")]
    for _ in range(300):
        nodes = [f"n{j}" for j in range(rng.randint(1, 9))]
        edges = {(rng.choice(nodes), rng.choice(nodes))
                 for _ in range(rng.randint(0, 2 * len(nodes)))}
        graphs.append(MembershipGraph(tuple(nodes), frozenset(edges)))
    cyclic = 0
    for g in graphs:
        cycle = g.find_cycle()
        assert cycle == _recursive_find_cycle(g)
        if cycle:
            cyclic += 1
            continue
        ranks = g.structural_ranks()
        for a in g.nodes:
            assert ranks[a] == max((ranks[x] + 1 for x in g.members(a)), default=0)
    assert 50 < cyclic < len(graphs) - 50


def test_rank_walk_runs_once_per_graph(monkeypatch):
    g, small = build_V(4), build_V(2)
    walks = []
    postorder = MembershipGraph.postorder

    def counting(graph):
        walks.append(graph)
        return postorder(graph)

    monkeypatch.setattr(MembershipGraph, "postorder", counting)
    check_kappa_axioms_in_T(g, 2)
    assert valid_slice_types(g) == [0, 1, 2]
    assert g.structural_ranks() is g.structural_ranks()
    with pytest.raises(EvalError):      # the guard's message reads ord again
        check_kappa_axioms_in_T(small, 1)
    assert walks == [g, small]
