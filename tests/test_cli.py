import ast
import builtins
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from proof_docs import HAND_PROOFS, HOSTILE_PROOFS, REGIMES, RULES, fixture_documents

import hotk
import hotk.errors
from hotk.cli import FORMATS, main
from hotk.kernel import fin, parse_formula
from hotk.models import Model, build_class_model, check_axiom_suite, eval_formula
from hotk.kernel.regimes import parse_regime


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_check_exit_codes(capsys):
    code, out = run(capsys, "check", "--theory", "stt", "c^2(a^0)")
    assert code == 1
    assert "gap" in out
    code, out = run(capsys, "check", "--theory", "ctt:w", "c^2(a^0)")
    assert code == 0


def test_parse_error_exit_code(capsys):
    code, _ = run(capsys, "check", "--theory", "stt", "c^(w*w)(a^0)")
    assert code == 2


def test_a_type_index_is_ascii_digits(capsys):
    """A type index, like every identifier, is ASCII: no other decimal
    digit reads as one, in a formula or in a --theory bound."""
    assert main(["check", "--theory", "stt", "a^٣(b^٢)"]) == 2
    assert capsys.readouterr().err == "error: bad character '٣' (at column 2)\n"
    assert main(["check", "--theory", "ctt:٣", "a^1(b^0)"]) == 2
    assert capsys.readouterr().err == (
        "error: bad type index '٣' (indices up to w*q+r only)\n")


def test_budget_exit_code(tmp_path, capsys):
    code, _ = run(capsys, "--budget", "10", "model", "build", "--kind", "pure",
                  "--height", "4")
    assert code == 3
    path = tmp_path / "fjt3.json"
    _, out = run(capsys, "model", "build", "--kind", "fjt", "--height", "3")
    path.write_text(out)
    sweep = "all a^3. a^3 = a^3"    # one quantifier over 2048 entities
    code, _ = run(capsys, "--budget", "10", "eval", "--model", str(path), sweep)
    assert code == 3
    code, out = run(capsys, "--budget", "2048", "eval", "--model", str(path), sweep)
    assert code == 0 and out.strip() == "true"


def test_malformed_input_files_exit_2(tmp_path, capsys):
    models = [{"kind": "pure", "domains": [["{}"]], "apply": {}, "meta": {}},
              {"kind": "pure", "height": 0, "domains": "{}"},
              {"kind": "pure", "height": 1, "domains": [["{}"]]},
              {"kind": "pure", "height": True, "domains": [["{}"], ["{}"]]},
              {"kind": "pure", "height": 0, "domains": [["{}"]],
               "apply": {"{}": "{}"}},
              {"kind": "pure", "height": 0, "domains": [["{}"]],
               "up_map": {"zero": {}}},
              {"kind": "fjt", "height": 0, "domains": [["o"]],
               "down_rel": {"2": [["o"]]}},
              ["not", "an", "object"]]
    graphs = [{"nodes": ["{}"]}, {"edges": []},
              {"nodes": [["a"]], "edges": []},
              {"nodes": ["a"], "edges": [["a"]]},
              {"nodes": ["a"], "edges": [], "ranks": {"a": "0"}}, "a"]
    path = tmp_path / "bad.json"
    for doc in models:
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "eval", "--model", str(path), "all x^0. x^0 = x^0")
        assert code == 2, doc
        code, _ = run(capsys, "sets", "slice", "--kappa", "0", str(path))
        assert code == 2, doc
    for doc in graphs:
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "sets", "levels", str(path))
        assert code == 2, doc
        code, _ = run(capsys, "model", "build", "--kind", "graph", "--graph",
                      str(path))
        assert code == 2, doc


def test_expand_golden(capsys):
    code, out = run(capsys, "expand", "--theory", "ctt:w", "--normalize",
                    "a^0 eq b^1")
    assert code == 0
    assert out.strip() == "all v1^2. v1^2(a^0) <-> v1^2(b^1)"


def test_decide(capsys):
    code, out = run(capsys, "decide", "--height", "2",
                    "all x^0. all y^0. x^0 = y^0")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "decide", "--height", "2",
                    "some x^0. ~x^0 = x^0")
    assert code == 1 and out.strip() == "false"


def test_decide_counts_the_types_set_sugar_expands_to(capsys):
    code = main(["decide", "--height", "1",
                 "all a^1. all b^1. (a^1 sub b^1 | ~a^1 sub b^1)"])
    assert code == 2
    assert capsys.readouterr().err.strip() == \
        "error: sentence uses type 3, above height 1"


def test_a_negative_height_names_the_canonical_heights(capsys):
    """decide and model build name the same range for a height below 0;
    decide names it after formation and the open-sentence check."""
    for argv in (["decide", "--height", "-1", "some x^0. x^0 = x^0"],
                 ["model", "build", "--kind", "fjt", "--height", "-1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == \
            "error: canonical model heights run from 0 to 3"
        assert run_json(*argv) == (2, {
            "error": "EvalError",
            "message": "canonical model heights run from 0 to 3"})
    for formula, message in [
            ("x^0 = x^0", "decision procedure needs a closed sentence"),
            ("all x^0. all y^1. x^0 = y^1",
             "strict identity needs equal types (0 vs 1)")]:
        assert main(["decide", "--height", "-1", formula]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"


def test_type_0_coext_and_downeq_name_the_rule_they_break(tmp_path):
    from hotk.models import build_pure_model
    path = tmp_path / "pure2.json"
    path.write_text(build_pure_model(2).dumps())
    for formula, reason in [
            ("a^0 coext b^0", "coextensiveness undefined at type 0"),
            ("a^0 downeq b^0", "projection equivalence needs equal types >= 1 (0 vs 0)"),
            ("a^(w) coext b^(w)", "coextensiveness undefined at limit type w"),
            ("a^(w*2) downeq b^(w*2)",
             "projection equivalence undefined at limit type w*2")]:
        code, doc = run_json("eval", "--model", str(path), formula)
        assert code == 2
        assert doc == {"error": "FormationError",
                       "message": f"{reason} in {formula}"}


def test_coext_at_a_limit_type_is_ill_formed(capsys):
    # A limit type has no type just below it for coext to quantify over.
    for theory, formula, limit in [("ctt:w+3", "a^w coext b^w", "w"),
                                   ("ctt:w*3", "a^(w*2) coext b^(w*2)", "w*2")]:
        reason = f"coextensiveness undefined at limit type {limit}"
        code, out = run(capsys, "check", "--theory", theory, formula)
        assert code == 1 and reason in out
        code, doc = run_json("expand", "--theory", theory, formula)
        assert code == 2
        assert doc == {"error": "FormationError", "message": reason}


def test_two_place_sugar_expands_or_names_a_package_error():
    # tests/test_expand.py runs the same atoms under every CTT regime in
    # process; here the command line reports each one.
    from test_expand import _TWO_PLACE
    for text in _TWO_PLACE:
        code, doc = run_json("expand", "--theory", "ctt:w*3", text)
        assert code == 0 or (code == 2 and doc["error"] == "FormationError"), text


def test_truncated_json_files_name_the_document(tmp_path):
    cases = [(["eval", "--model"], ["a^0 = a^0"], '{"kind": "pure", ', "HotkError",
              "model file is not valid JSON: Expecting property name enclosed "
              "in double quotes (line 1, column 18)"),
             (["sets", "levels"], [], '{"nodes": ["a"],\n "edges": [', "GraphError",
              "graph file is not valid JSON: Expecting value (line 2, column 12)"),
             (["prove", "check"], [], '{"theory": "stt", "steps": [{', "ProofError",
              "proof file is not valid JSON: Expecting property name enclosed "
              "in double quotes (line 1, column 30)")]
    for before, after, text, error, message in cases:
        path = tmp_path / "truncated.json"
        path.write_text(text)
        code, doc = run_json(*before, str(path), *after)
        assert code == 2
        assert doc == {"error": error, "message": message}


def test_model_json_round_trip_matches_in_process(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, out = run(capsys, "model", "build", "--kind", "pure", "--height", "3")
    assert code == 0
    path.write_text(out)

    from hotk.models import build_pure_model
    direct = build_pure_model(3)
    loaded = Model.loads(path.read_text())
    rep_a = check_axiom_suite(direct, parse_regime("pctt:w"), 1)
    rep_b = check_axiom_suite(loaded, parse_regime("pctt:w"), 1)
    assert rep_a.to_json() == rep_b.to_json()
    f = parse_formula("all x^0. some y^1. x^0 eq y^1")
    assert eval_formula(direct, f) == eval_formula(loaded, f) is True

    code, out = run(capsys, "eval", "--model", str(path),
                    "all x^0. some y^1. x^0 eq y^1")
    assert code == 0 and out.strip() == "true"


def test_cli_deterministic_output(capsys):
    _, out1 = run(capsys, "model", "build", "--kind", "fjt", "--height", "2")
    _, out2 = run(capsys, "model", "build", "--kind", "fjt", "--height", "2")
    assert out1 == out2


def test_sets_pipeline(tmp_path, capsys):
    code, out = run(capsys, "sets", "build-v", "3")
    assert code == 0
    g = tmp_path / "v3.json"
    g.write_text(out)
    code, out = run(capsys, "sets", "check", "lt", str(g))
    assert code == 0
    code, out = run(capsys, "sets", "check", "zr", str(g))
    assert code == 1    # endless and infinity fail at finite scale
    code, out = run(capsys, "sets", "levels", str(g))
    assert code == 0 and "levels:" in out
    code, out = run(capsys, "sets", "collapse", str(g))
    assert code == 0
    code, out = run(capsys, "sets", "t-model", str(g))
    assert code == 0
    m = tmp_path / "t3.json"
    m.write_text(out)
    code, out = run(capsys, "model", "check", "--model", str(m),
                    "--theory", "pctt:w", "--max-type", "1")
    assert code == 0


def test_prove_commands(tmp_path, capsys):
    code, out = run(capsys, "prove", "fixtures")
    assert code == 0
    doc = {"theory": "stt",
           "steps": [{"n": 1, "formula": "z^1(a^0)", "rule": "assume"}]}
    f = tmp_path / "bad.proof"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "--format", "json", "prove", "check", str(f))
    assert code == 1
    assert json.loads(out)["tag"] == "undischarged"


def test_corpus_run(capsys):
    code, out = run(capsys, "corpus", "run")
    assert code == 0
    assert "PASS formation matrix" in out


def test_json_format_stable_fields(capsys):
    code, out = run(capsys, "--format", "json", "check", "--theory", "stt",
                    "b^1(a^0)")
    doc = json.loads(out)
    assert doc["results"][0]["well_formed"] is True


def test_sets_slice_and_companions(tmp_path, capsys):
    code, out = run(capsys, "sets", "build-v", "3")
    g = tmp_path / "v3.json"
    g.write_text(out)
    code, out = run(capsys, "sets", "t-model", str(g))
    assert code == 0
    m = tmp_path / "t3.json"
    m.write_text(out)
    code, out = run(capsys, "sets", "slice", "--kappa", "1", str(m))
    assert code == 0
    doc = json.loads(out)
    assert set(map(tuple, doc["edges"])) == {("{}", "{{}}")}

    code, out = run(capsys, "model", "build", "--kind", "fjt", "--height", "2",
                    "--companion", "down")
    assert code == 0
    md = tmp_path / "fd.json"
    md.write_text(out)
    code, out = run(capsys, "model", "check", "--model", str(md),
                    "--theory", "stt-down", "--max-type", "2")
    assert code == 0
    code, out = run(capsys, "sets", "standard", str(g))
    assert code == 0


def test_a_slice_needs_the_type_two_above_it(tmp_path):
    # Membership at type k is defined by quantifiers at type k+2; pure 3
    # has no type 3 to slice at type 1 with.
    from hotk.models import build_pure_model
    path = tmp_path / "pure3.json"
    path.write_text(build_pure_model(3).dumps())
    code, doc = run_json("sets", "slice", "--kappa", "0", str(path))
    assert code == 0 and doc["nodes"] == ["{}"]
    code, doc = run_json("sets", "slice", "--kappa", "1", str(path))
    assert code == 2
    assert doc == {"error": "EvalError",
                   "message": "membership at type 1 is defined at type 3, "
                              "above the model's top type 2"}


def test_check_file_mode(tmp_path, capsys):
    hol = tmp_path / "formulas.hol"
    hol.write_text("# matrix slice\nb^1(a^0)\nc^2(a^1)\n")
    code, out = run(capsys, "check", "--theory", "stt", "--file", str(hol))
    assert code == 0
    assert out.count("well-formed") == 2
    hol.write_text("b^1(a^0)\nc^2(a^0)\n")
    code, out = run(capsys, "check", "--theory", "stt", "--file", str(hol))
    assert code == 1

    code, _ = run(capsys, "check", "--theory", "stt")
    assert code == 2


def test_deep_nesting_is_a_parse_error(capsys):
    for text in ["~" * 3000 + "a^0 = a^0",
                 "(" * 3000 + "a^0 = a^0" + ")" * 3000,
                 " & ".join(["a^1(b^0)"] * 3000)]:
        code = main(["check", "--theory", "stt", text])
        err = capsys.readouterr().err
        assert code == 2
        assert "nested deeper" in err and "Traceback" not in err


def test_collapse_of_a_deep_chain(tmp_path, capsys):
    # c0 in c1 in ... in c2999, listed from the top down, so the depth-first
    # walk from the first node descends the whole chain.
    names = [f"c{i}" for i in range(3000)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"nodes": names[::-1],
                                "edges": [[names[i], names[i + 1]]
                                          for i in range(2999)]}))
    code, out = run(capsys, "--format", "json", "sets", "collapse", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["map"]["c0"] == "{}" and doc["map"]["c1"] == "{{}}"
    assert doc["graph"]["ranks"][doc["map"]["c2999"]] == 2999


def test_kappa_check_honours_the_budget(tmp_path, capsys):
    _, out = run(capsys, "sets", "build-v", "4")
    path = tmp_path / "v4.json"
    path.write_text(out)
    code, out = run(capsys, "--budget", "2", "sets", "kappa-check", "--kappa", "2",
                    str(path))
    assert code == 3
    assert [line.split()[0] for line in out.splitlines()] == ["SKIPPED"] * 5
    code, _ = run(capsys, "sets", "kappa-check", "--kappa", "2", str(path))
    assert code == 0


def test_kappa_check_exits_1_on_a_surrogate_lemma(tmp_path, capsys):
    """chain4 at kappa 2 FAILs stratification^k, one of the surrogate lemmas,
    so kappa-check exits 1, in text and JSON; the endless^k and infinity^k
    FAILs beside it are expected at finite scale and decide nothing."""
    from hotk.corpus import graph_fixture
    path = tmp_path / "chain4.json"
    path.write_text(graph_fixture("chain4.json").dumps())
    argv = ["sets", "kappa-check", "--kappa", "2", str(path)]
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [
        "PASS    extensionality^k",
        "PASS    separation^k [40 instances]",
        "FAIL    stratification^k",
        "FAIL    endless^k [expected FAIL at finite scale]",
        "FAIL    infinity^k [expected FAIL at finite scale]"]
    code, doc = run_json(*argv)
    assert code == 1
    assert [(v["name"], v["status"]) for v in doc["verdicts"]
            if v.get("note") != "expected FAIL at finite scale"] == [
        ("extensionality^k", "PASS"), ("separation^k", "PASS"),
        ("stratification^k", "FAIL")]


def test_levels_and_slice_honour_the_budget(tmp_path, capsys):
    """An ordinal chain o0 in o1 in ... with o_j in o_i for every j < i,
    under short names: its levels take seconds at the default budget, and
    a budget of 10 stops the first quantifier over its 96 nodes."""
    names = [f"o{i}" for i in range(96)]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"nodes": names, "edges": [
        [names[j], names[i]] for i in range(96) for j in range(i)]}))
    start = time.perf_counter()
    code, doc = run_json("--budget", "10", "sets", "levels", str(chain))
    assert code == 3 and doc["error"] == "BudgetExceeded"
    assert time.perf_counter() - start < 1
    _, out = run(capsys, "sets", "build-v", "3")
    v3, t3 = tmp_path / "v3.json", tmp_path / "t3.json"
    v3.write_text(out)
    t3.write_text(run(capsys, "sets", "t-model", str(v3))[1])
    code, doc = run_json("--budget", "2", "sets", "slice", "--kappa", "1", str(t3))
    assert code == 3 and doc["error"] == "BudgetExceeded"
    code, out = run(capsys, "sets", "slice", "--kappa", "1", str(t3))
    assert code == 0 and json.loads(out)["edges"] == [["{}", "{{}}"]]


def test_levels_name_a_rank_that_is_undefined(tmp_path, capsys):
    """In quine.json b is its own member, so no level includes it."""
    from hotk.corpus import graph_fixture
    path = str(tmp_path / "quine.json")
    (tmp_path / "quine.json").write_text(graph_fixture("quine.json").dumps())
    code, out = run(capsys, "sets", "levels", path)
    assert code == 0
    assert out.splitlines() == ["levels: empty, s_empty", "rank b = undefined",
                                "rank empty = 0", "rank s_empty = 1",
                                "rank p_eb = undefined"]
    code, doc = run_json("sets", "levels", path)
    assert code == 0 and doc["ranks"]["b"] is None


def test_model_build_writes_its_output_file(tmp_path, capsys):
    path = tmp_path / "fjt1.json"
    code = main(["model", "build", "--kind", "fjt", "--height", "1", "-o", str(path)])
    out = capsys.readouterr()
    assert code == 0
    assert (out.out, out.err) == ("", f"wrote {path}\n")
    _, printed = run(capsys, "model", "build", "--kind", "fjt", "--height", "1")
    assert path.read_text() == printed


@pytest.mark.parametrize("argv, graph, error, message", [
    (["--kind", "graph"], None, "ParseError", "--graph is required for graph models"),
    (["--kind", "class", "--height", "0"], None, "EvalError", "height must be at least 1"),
    (None, {"nodes": ["a", "a"], "edges": []}, "GraphError", "duplicate node names"),
    (None, {"nodes": ["e", "s"], "edges": [["e", "s"]], "ranks": {"e": 0}},
     "GraphError", "rank labels missing for ['s']"),
    (None, {"nodes": [], "edges": []}, "GraphError", "empty graph model"),
    # refused before any file is read: the duplicate node names above
    # are not reported when the kind does not read the graph
    (["--kind", "pure", "--height", "2", "--urelements", "3"], None,
     "ParseError", "--urelements applies only to --kind class"),
    (["--kind", "graph", "--urelements", "2"], None,
     "ParseError", "--urelements applies only to --kind class"),
    (["--kind", "fjt", "--height", "1", "--graph"], {"nodes": ["a", "a"], "edges": []},
     "ParseError", "--graph applies only to --kind graph"),
])
def test_model_build_input_errors_exit_2(argv, graph, error, message, tmp_path, capsys):
    if graph is not None:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        argv = [*(argv or ["--kind", "graph", "--graph"]), str(path)]
    assert main(["model", "build", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run_json("model", "build", *argv) == (2, {"error": error, "message": message})


def test_class_models_read_urelements_and_none_as_zero(capsys):
    code, out = run(capsys, "model", "build", "--kind", "class", "--height", "2",
                    "--urelements", "2")
    assert code == 0 and out == build_class_model(2, 2).dumps() + "\n"
    assert json.loads(out)["domains"][0] == ["u0", "u1", "{}"]
    assert run_json("model", "build", "--kind", "class", "--height", "2",
                    "--urelements", "2") == (0, json.loads(out))
    _, plain = run(capsys, "model", "build", "--kind", "class", "--height", "2")
    _, zero = run(capsys, "model", "build", "--kind", "class", "--height", "2",
                  "--urelements", "0")
    assert plain == zero


def test_a_graph_without_ranks_is_built_on_its_structural_ranks(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"nodes": ["e", "s"], "edges": [["e", "s"]]}))
    argv = ["model", "build", "--kind", "graph", "--graph", str(path), "--height", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["domains"] == [["e"], ["e", "s"]]
    assert run_json(*argv) == (0, json.loads(out))


def test_a_graph_model_defaults_to_the_graphs_top_rank(tmp_path, capsys):
    """Without --height, model build --kind graph builds what
    build_graph_model does, up to the top rank label: astruct has three
    domains, and a five-node chain of ranks 0-4 builds at height 4; a
    --height below the top rank is refused."""
    from hotk.corpus import graph_fixture
    from hotk.graphs import MembershipGraph
    from hotk.models import build_graph_model
    chain5 = {"nodes": [f"c{i}" for i in range(5)],
              "edges": [[f"c{i}", f"c{i + 1}"] for i in range(4)]}
    for name, g in [("astruct.json", graph_fixture("astruct.json")),
                    ("chain5.json", MembershipGraph.loads(json.dumps(chain5)))]:
        path = tmp_path / name
        path.write_text(g.dumps())
        code, out = run(capsys, "model", "build", "--kind", "graph", "--graph", str(path))
        assert code == 0 and out == build_graph_model(g).dumps() + "\n"
    assert len(json.loads(out)["domains"]) == 5
    assert main(["model", "build", "--kind", "graph", "--graph",
                 str(tmp_path / "astruct.json"), "--height", "1"]) == 2
    assert capsys.readouterr().err == "error: rank labels reach 2, above height 1\n"


def test_a_report_with_only_budget_skips_exits_3(tmp_path, capsys):
    """A suite with no FAIL and a budget SKIP exits 3, not the 1 of a
    negative verdict; with a FAIL it exits 1 whatever else it skipped.
    Without its last type-3 entity, pure 4 misses a subset of type 2, so
    its comprehension row walks 2^4 subsets and skips under budget 10."""
    pure4, v4 = tmp_path / "pure4.json", tmp_path / "V4.json"
    short = tmp_path / "short4.json"
    pure4.write_text(run(capsys, "model", "build", "--kind", "pure",
                         "--height", "4")[1])
    doc = json.loads(pure4.read_text())
    del doc["apply"][doc["domains"][3].pop()]
    short.write_text(json.dumps(doc))
    v4.write_text(run(capsys, "sets", "build-v", "4")[1])
    code, out = run(capsys, "--budget", "10", "model", "check", "--model",
                    str(short), "--theory", "pctt:w", "--max-type", "3")
    statuses = [line.split()[0] for line in out.splitlines()]
    assert (code, statuses.count("SKIPPED"), statuses.count("PASS")) == (3, 5, 1)
    assert out.startswith("SKIPPED comprehension [type 2: 16 tuples of "
                          "subsets, above budget 10]\n")
    code, out = run(capsys, "--budget", "10", "model", "check", "--model",
                    str(pure4), "--theory", "pctt:w", "--max-type", "3")
    statuses = [line.split()[0] for line in out.splitlines()]
    assert (code, statuses.count("SKIPPED"), statuses.count("PASS")) == (3, 4, 2)
    code, out = run(capsys, "--budget", "8", "sets", "check", "lt", str(v4))
    statuses = [line.split()[0] for line in out.splitlines()]
    assert code == 3 and statuses.count("SKIPPED") == 2
    assert "FAIL" not in statuses
    code, _ = run(capsys, "model", "check", "--model", str(pure4),
                  "--theory", "pctt:w", "--max-type", "3")
    assert code == 0
    code, out = run(capsys, "--budget", "10", "model", "check", "--model",
                    str(short), "--theory", "stt-up", "--max-type", "3")
    assert code == 1 and out.startswith("SKIPPED") and "FAIL" in out


def test_separation_full_is_charged_only_for_a_shortfall(tmp_path, capsys):
    """Every subset of every V4 node's members is a node, so the counting
    scan decides separation-full with one comparison per node, and a budget
    below the 2^|members| the subsets would cost does not skip it."""
    v4 = tmp_path / "V4.json"
    v4.write_text(run(capsys, "sets", "build-v", "4")[1])
    code, out = run(capsys, "--budget", "8", "sets", "check", "lt", str(v4))
    rows = [line.split()[:2] for line in out.splitlines()]
    assert code == 3
    assert rows == [["PASS", "extensionality"], ["PASS", "separation-full"],
                    ["SKIPPED", "separation-corpus"], ["SKIPPED", "stratification"]]


def test_a_full_count_is_decided_under_any_budget(tmp_path, capsys):
    """Every subset of each type of pure 4, and of each rank of V4, is
    realized one up, so counting decides comprehension and standardness,
    and a budget below the 2^4 subsets a walk would cost does not stop
    them."""
    pure4, v4 = tmp_path / "pure4.json", tmp_path / "V4.json"
    pure4.write_text(run(capsys, "model", "build", "--kind", "pure",
                         "--height", "4")[1])
    v4.write_text(run(capsys, "sets", "build-v", "4")[1])
    assert run(capsys, "--budget", "8", "model", "check", "--model", str(pure4),
               "--theory", "stt") == (0, "PASS    comprehension [FULL-COMPREHENSION]\n")
    assert run(capsys, "--budget", "8", "sets", "standard", str(v4)) == \
        (0, "standard\n")


def test_translate_names_an_unexpected_atom_in_the_notation(tmp_path, capsys):
    path = tmp_path / "dn.hol"
    path.write_text("b^1 dn a^0\n")
    code = main(["translate", "--map", "i-ctt-sttu", str(path)])
    assert code == 2
    assert capsys.readouterr().err.strip() == \
        "error: unexpected atom b^1 dn a^0 in the cumulative theory"


def test_hostile_proof_files_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.proof"
    for name, doc in HOSTILE_PROOFS.items():
        path.write_text(json.dumps(doc))
        code = main(["--format", "json", "prove", "check", str(path)])
        err = capsys.readouterr().err
        assert code == 2, name
        assert "malformed" in err or "not a variable" in err, name
        assert "Traceback" not in err


# Random JSON for the fields of a proof document, plus values of the right
# type that the checker has to look at more closely.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_INDICES = st.sampled_from(["0", "1", "2", "w", "w+1", "x"])
_TERMS = st.sampled_from(["a^0", "z^1", "x^0", "c^0", "b^2", "up(a^0)", "a^w",
                          "a", "p^1(a^0)"])
_FORMULAS = st.sampled_from(["p^1(a^0)", "z^1(a^0)", "some x^0. p^1(x^0)",
                             "all x^1. x^1(a^0)", "c^2(a^0)", "~"])
PLAUSIBLE = {
    "n": st.integers(-1, 30),
    "premises": st.lists(st.integers(-1, 25), max_size=4),
    "discharge": st.lists(st.integers(-1, 25), max_size=3),
    "rule": st.builds(lambda r, args: r + args, st.sampled_from(RULES),
                      st.just("") | st.builds("({},{})".format, _INDICES, _INDICES)),
    "scheme": st.fixed_dictionaries(
        {"name": st.sampled_from(["type-base", "type-founded", "type-ext",
                                  "up-possess", "down-exists", "identity", "x"])},
        optional={"alpha": JSON_VALUES | _INDICES, "beta": JSON_VALUES | _INDICES,
                  "n": JSON_VALUES}),
    "eigen": _TERMS,
    "witness": _TERMS,
    "theory": st.sampled_from(REGIMES + ["ctt:3", "stt:w", "pctt:x"]),
    "hypotheses": st.lists(_FORMULAS, max_size=3),
}
_BASES = {**fixture_documents(), **HAND_PROOFS}


@st.composite
def hostile_proofs(draw):
    doc = copy.deepcopy(_BASES[draw(st.sampled_from(sorted(_BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(sorted(PLAUSIBLE)))
        value = draw(JSON_VALUES | PLAUSIBLE[field])
        if field in ("theory", "hypotheses"):
            doc[field] = value
        else:
            draw(st.sampled_from(doc["steps"]))[field] = value
    return doc


@pytest.fixture(scope="module")
def proof_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.proof"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=hostile_proofs())
def test_fuzzed_proof_documents_keep_the_exit_codes(proof_path, doc):
    proof_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "prove", "check", str(proof_path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert set(json.loads(out.getvalue())) >= {"accepted"}
    else:
        assert json.loads(err.getvalue())["error"] in KNOWN_ERRORS


# The error classes --format json may name: the package's own, and the
# OSErrors of reading a file.
KNOWN_ERRORS = {"UsageError"} | {
    name for module in (hotk.errors, builtins) for name, c in vars(module).items()
    if isinstance(c, type) and issubclass(c, (hotk.errors.HotkError, OSError))}


def run_json(*argv):
    """Run main under --format json in-process; check the exit-code contract
    and that stdout (verdicts) or stderr (errors) is one JSON document.
    Returns the exit code and that document."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", *argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        doc = json.loads(err.getvalue())
        assert set(doc) == {"error", "message"} and doc["message"]
        assert doc["error"] in KNOWN_ERRORS
    else:
        doc = json.loads(out.getvalue())
    return code, doc


@pytest.fixture(scope="module")
def error_files(tmp_path_factory):
    from hotk.models import build_fjt_canonical
    from hotk.settheory import build_V
    d = tmp_path_factory.mktemp("errors")
    files = {"fjt2.json": build_fjt_canonical(2).dumps(),
             "v2.json": build_V(2).dumps(),
             "cyclic.json": json.dumps({"nodes": ["a"], "edges": [["a", "a"]]}),
             "no_height.json": json.dumps({"kind": "pure", "domains": [["{}"]]}),
             "broken.json": "{",
             "bad.proof": json.dumps({"theory": "stt", "steps": [{"n": 1}]}),
             "deep.json": "[" * 5000 + "]" * 5000,
             "dn0.hol": "b^1 dn a^0\n", "dnw.hol": "b^(w+1) dn a^w\n"}
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "directory.json").mkdir()
    return d


# One command for each way main reports an error: (arguments, exit code,
# error class).  Relative paths name files of the error_files fixture.  A
# bound on a finite theory is a parse error.
ERROR_PATHS = [
    (["check", "--theory"], 2, "UsageError"),
    (["expand", "--theory", "stt", "-x"], 2, "UsageError"),
    (["check", "--theory", "stt", "c^(w*w)(a^0)"], 2, "ParseError"),
    (["check", "--theory", "stt"], 2, "ParseError"),
    (["translate", "--map", "i-ctt-up", "fjt2.json"], 2, "FormationError"),
    (["expand", "--theory", "stt", "a^0 eq b^1"], 2, "FormationError"),
    (["eval", "--model", "fjt2.json", "a^0 = a^0"], 2, "EvalError"),
    (["sets", "collapse", "cyclic.json"], 2, "GraphError"),
    (["sets", "levels", "deep.json"], 2, "GraphError"),
    (["prove", "check", "bad.proof"], 2, "ProofError"),
    (["eval", "--model", "no_height.json", "a^0 = a^0"], 2, "HotkError"),
    (["eval", "--model", "deep.json", "a^0 = a^0"], 2, "HotkError"),
    (["eval", "--model", "missing.json", "a^0 = a^0"], 2, "FileNotFoundError"),
    (["eval", "--model", "directory.json", "a^0 = a^0"], 2, "IsADirectoryError"),
    (["eval", "--model", "broken.json", "a^0 = a^0"], 2, "HotkError"),
    (["sets", "build-v", "-1"], 2, "GraphError"),
    (["--budget", "10", "model", "build", "--kind", "pure", "--height", "4"], 3,
     "BudgetExceeded"),
    (["--budget", "1", "eval", "--model", "fjt2.json", "all a^1. a^1 = a^1"], 3,
     "BudgetExceeded"),
    (["eval", "--model", "fjt2.json", "--let", "d^1=nosuch",
      "some x^2. x^2(d^1)"], 2, "EvalError"),
    (["model", "check", "--model", "fjt2.json", "--theory", "fjt",
      "--max-type", "-1"], 2, "EvalError"),
    (["model", "build", "--kind", "class", "--urelements", "-3"], 2,
     "EvalError"),
    (["model", "build", "--kind", "pure", "--height", "9"], 2, "EvalError"),
    (["model", "build", "--kind", "fjt", "--companion", "up"], 2, "EvalError"),
    (["check", "--theory", "stt:banana", "x^1(y^0)"], 2, "ParseError"),
    (["check", "--theory", "fjt:3", "x^1(y^0)"], 2, "ParseError"),
    (["check", "--theory", "stt-up:w", "x^1(y^0)"], 2, "ParseError"),
    (["eval", "--model", "fjt2.json", "a^1 coext_0 b^1"], 2, "FormationError"),
    (["translate", "--map", "j-sttd-fjt", "dn0.hol"], 2, "FormationError"),
    (["translate", "--map", "j-sttd-fjt", "dnw.hol"], 2, "FormationError"),
    (["--budget", "-5", "eval", "--model", "fjt2.json", "a^0 = a^0"], 2,
     "UsageError"),
    (["sets", "kappa-check", "--kappa", "-1", "v2.json"], 2, "EvalError"),
    (["eval", "--model", "fjt2.json", "--theory", "stt", "c^2(a^0)"], 2,
     "FormationError"),
    (["eval", "--model", "fjt2.json", "--let", "x^0", "x^0 = x^0"], 2,
     "ParseError"),
]


@pytest.mark.parametrize("argv,code,error", ERROR_PATHS)
def test_errors_are_json_under_format_json(argv, code, error, error_files, capsys):
    argv = [str(error_files / a) if a.endswith((".json", ".proof", ".hol")) else a
            for a in argv]
    got, doc = run_json(*argv)
    assert got == code and doc["error"] == error
    assert main(argv) == code       # text mode: the same message, not JSON
    err = capsys.readouterr().err
    assert not err.startswith("{") and doc["message"] in err


# Formula text: random tokens of the grammar and its neighbours, random
# characters, and nesting past the parser's cap, balanced or not.
_TOKENS = ["all", "some", "x^0", "y^1", "a^2", "b^w", "x", "a", "^", "0", "1",
           "w", "w+1", "(", ")", "~", "&", "|", "->", "<->", ".", "=", "eq",
           "in", "dn", "up(", ",", "coext", "coext_2", "coext_0", "downeq",
           "sub", "Lev(", "Hist(", "Rank(", "#", "-", "--x", "*", "+"]
FORMULA_TEXT = (
    st.lists(st.sampled_from(_TOKENS), max_size=20).map(" ".join)
    | st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join)
    | st.text(max_size=30)
    | st.builds(lambda n, opener, atom, closers: opener * n + atom + ")" * closers,
                st.integers(90, 3000), st.sampled_from(["~", "(", "all x^0. ",
                                                        "up(", "a^0 = a^0 & "]),
                st.sampled_from(["a^0 = a^0", "x^0 = x^0", "b^1(up(a^0))", ""]),
                st.integers(0, 3000)))
_THEORIES = st.sampled_from(["stt", "ctt:w", "fjt", "stt-up", "stt-down", "pctt:w"])
_MAPS = st.sampled_from(["i-ctt-sttu", "j-sttu-ctt", "i-fjt-sttd", "j-sttd-fjt",
                         "kappa:1", "kappa:w"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=FORMULA_TEXT, theory=_THEORIES, tmap=_MAPS)
def test_fuzzed_formula_text_keeps_the_exit_codes(tmp_path_factory, text, theory, tmap):
    path = tmp_path_factory.mktemp("text") / "fuzz.hol"
    path.write_text(text + "\n")
    run_json("check", "--theory", theory, text)
    run_json("check", "--theory", theory, "--file", str(path))
    run_json("expand", "--theory", theory, text)
    run_json("translate", "--map", tmap, str(path))


def _model_bases():
    from hotk.models import (build_fjt_canonical, build_pure_model,
                             build_sttd_companion, build_sttu_companion)
    pure = build_pure_model(2)
    return [m.to_json() for m in (pure, build_sttu_companion(pure),
                                  build_sttd_companion(build_fjt_canonical(2)))]


def _graph_bases():
    from hotk.settheory import build_V
    from hotk.corpus import graph_fixture
    return [build_V(3).to_json(), graph_fixture("astruct.json").to_json(),
            {"nodes": ["a", "b"], "edges": [["a", "b"]]}]


_FILE_BASES = {"model": _model_bases(), "graph": _graph_bases()}
_FIELDS = {"model": ["kind", "height", "domains", "apply", "meta", "up_map",
                     "down_rel"],
           "graph": ["nodes", "edges", "ranks"]}
# Values of roughly the right shape that the loaders have to look at closely.
_PLAUSIBLE_FIELDS = (st.integers(-2, 4) | st.lists(st.lists(st.sampled_from(
    ["{}", "{{}}", "a", "b", "o"]), max_size=3), max_size=4)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "x", "{}", "a"]),
                      JSON_VALUES, max_size=3))


@st.composite
def hostile_files(draw, kind):
    """The text of a model or graph file: a valid document with fields
    deleted or replaced, random JSON, text that is not JSON, or JSON nested
    deeper than the decoder recurses."""
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return json.dumps(draw(JSON_VALUES))
    if choice == 1:
        return draw(st.sampled_from(["", "{", "[" * 5000 + "]" * 5000,
                                     '{"nodes": ' + "[" * 3000]))
    doc = copy.deepcopy(draw(st.sampled_from(_FILE_BASES[kind])))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(_FIELDS[kind]))
        if draw(st.booleans()):
            doc.pop(field, None)
        else:
            doc[field] = draw(JSON_VALUES | _PLAUSIBLE_FIELDS)
    return json.dumps(doc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=hostile_files("model"), graph=hostile_files("graph"),
       theory=_THEORIES)
def test_fuzzed_model_and_graph_files_keep_the_exit_codes(tmp_path_factory, model,
                                                          graph, theory):
    d = tmp_path_factory.mktemp("files")
    (d / "model.json").write_text(model)
    (d / "graph.json").write_text(graph)
    # defined identity and its definiens, both compiled as owner-set
    # comparisons, and the budget's check ahead of them
    for sentence in ("all x^0. some y^1. x^0 eq y^1",
                     "all x^0. some y^1. all v^2. (v^2(x^0) <-> v^2(y^1))"):
        run_json("eval", "--model", str(d / "model.json"), sentence)
    run_json("--budget", "1", "eval", "--model", str(d / "model.json"),
             "all x^0. some y^1. x^0 eq y^1")
    run_json("model", "check", "--model", str(d / "model.json"),
             "--theory", theory)
    run_json("sets", "collapse", str(d / "graph.json"))


def test_model_without_projections_fails_its_down_rows(tmp_path, fjt2):
    path = tmp_path / "fjt2.json"
    path.write_text(fjt2.dumps())
    code, doc = run_json("model", "check", "--model", str(path),
                         "--theory", "stt-down")
    assert code == 1
    assert [(v["name"], v["status"], v.get("witness"))
            for v in doc["verdicts"][2:]] == [
        (name, "FAIL", "model has no projection relation")
        for name in ("down-exists", "down-sim", "down-max")]


def test_let_entities_must_be_in_the_model(tmp_path, capsys, fjt2):
    path = tmp_path / "fjt2.json"
    path.write_text(fjt2.dumps())
    inside = fjt2.domains[1][0]
    code, out = run(capsys, "eval", "--model", str(path), "--let",
                    f"d^1={inside}", "some x^2. x^2(d^1)")
    assert code == 0 and out.strip() == "true"
    code = main(["eval", "--model", str(path), "--let", f"d^2={inside}",
                 "some x^2. x^2 = d^2"])
    err = capsys.readouterr().err
    assert code == 2 and repr(inside) in err and "type 2" in err


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: hotk [-h]"),
    (["check", "--help"], "usage: hotk check [-h]"),
])
def test_help_prints_the_usage_and_exits_0(argv, usage, capsys):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out.startswith(usage) and out.err == ""


def test_an_unreadable_format_reports_its_usage_error_as_text(capsys):
    assert main(["--format", "xml", "check", "--theory", "stt", "a^1(b^0)"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: hotk ")
    assert out.err.endswith("hotk: error: argument --format: invalid choice: "
                            "'xml' (choose from 'text', 'json')\n")


def test_eval_errors_met_while_compiling(tmp_path, capsys, fjt3_down):
    """A raised --let term and a projection at a transfinite type."""
    pure3, down = tmp_path / "pure3.json", tmp_path / "fjt3_down.json"
    _, out = run(capsys, "model", "build", "--kind", "pure", "--height", "3")
    pure3.write_text(out)
    down.write_text(fjt3_down.dumps())
    for argv, message in [
            (["--model", str(pure3), "--let", "up(x^0)={}", "x^0 = x^0"],
             "raised terms are not assignment keys"),
            (["--model", str(down), "a^w dn b^3"], "bad projection type w")]:
        assert main(["eval", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert run_json("eval", *argv) == (2, {"error": "EvalError",
                                               "message": message})


def test_a_negative_budget_is_a_usage_error(capsys):
    assert main(["--budget", "-5", "check", "--theory", "stt", "x^0 = x^0"]) == 2
    assert capsys.readouterr().err.endswith(
        "hotk: error: argument --budget: must not be negative, got -5\n")
    code, _ = run(capsys, "--budget", "0", "check", "--theory", "stt", "x^0 = x^0")
    assert code == 0        # a zero budget is allowed


# Each subcommand run as `python -m hotk.cli`: its exit code and the hotk
# packages the process loaded.  The files are those of the cli_files fixture.
KERNEL = {"hotk", "hotk.errors", "hotk.kernel"}
MODELS = KERNEL | {"hotk.graphs", "hotk.models", "hotk.report"}
SETS = MODELS | {"hotk.settheory", "hotk.translate"}
PROOFS = KERNEL | {"hotk.proofkit"}
LAYERS = [
    (["check", "--theory", "stt", "b^1(a^0)"], 0, KERNEL),
    (["check", "--theory", "stt", "--file", "f.hol"], 0, KERNEL),
    (["expand", "--theory", "ctt:w", "a^0 eq b^1"], 0, KERNEL),
    (["translate", "--map", "i-ctt-sttu", "f.hol"], 0, KERNEL | {"hotk.translate"}),
    (["eval", "--model", "fjt2.json", "all x^0. x^0 = x^0"], 0, MODELS),
    (["decide", "--height", "2", "some x^0. ~x^0 = x^0"], 1, MODELS),
    (["model", "build", "--kind", "fjt", "--height", "2"], 0, MODELS),
    (["model", "check", "--model", "fjt2.json", "--theory", "fjt"], 0, MODELS),
    (["sets", "build-v", "2"], 0, SETS),
    (["sets", "check", "lt", "v3.json"], 0, SETS | {"hotk.corpus"}),
    (["sets", "check", "lt", "v3.json", "--corpus", "set.hol"], 0, SETS),
    (["sets", "levels", "v3.json"], 0, SETS),
    (["sets", "collapse", "v3.json"], 0, SETS),
    (["sets", "t-model", "v3.json"], 0, SETS),
    (["sets", "standard", "v3.json"], 0, SETS),
    (["sets", "kappa-check", "--kappa", "1", "v3.json"], 0, SETS | {"hotk.corpus"}),
    (["sets", "slice", "--kappa", "1", "t3.json"], 0, SETS),
    (["prove", "check", "bad.proof"], 1, PROOFS),
    (["prove", "fixtures"], 0, PROOFS),
    (["corpus", "run"], 0, PROOFS | {"hotk.corpus"}),
    (["translate", "--map", "kappa:1", "set.hol"], 0, KERNEL | {"hotk.translate"}),
]
# Runs the module as `python -m` does, then prints the loaded hotk modules.
_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(sorted(m for m in sys.modules
                                     if m.startswith("hotk"))))
runpy.run_module("hotk.cli", run_name="__main__")
"""

NOT_UTF8 = b"\xff\xfe\x00bad"


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    from hotk.models import build_fjt_canonical
    from hotk.settheory import T_construction, build_V
    d = tmp_path_factory.mktemp("layers")
    v3 = build_V(3)
    files = {"fjt2.json": build_fjt_canonical(2).dumps(),
             "v3.json": v3.dumps(), "t3.json": T_construction(v3).dumps(),
             "f.hol": "b^1(a^0)\n", "set.hol": "x in y\n",
             "bad.proof": json.dumps({"theory": "stt", "steps": [
                 {"n": 1, "formula": "z^1(a^0)", "rule": "assume"}]})}
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "bin.dat").write_bytes(NOT_UTF8)
    return d


@pytest.mark.parametrize("argv,code,packages", LAYERS)
def test_each_command_loads_only_its_layers(argv, code, packages, cli_files):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hotk.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cli_files,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert {".".join(m.split(".")[:2]) for m in loaded} == packages


# The commands that print a model or graph document, the same in either format.
DOCUMENTS = [["model", "build"], ["sets", "build-v"], ["sets", "slice"],
             ["sets", "t-model"]]


@pytest.mark.parametrize("argv,code", [(argv, code) for argv, code, _ in LAYERS])
def test_each_command_prints_one_json_document(argv, code, cli_files, monkeypatch,
                                               capsys):
    monkeypatch.chdir(cli_files)
    got, doc = run_json(*argv)
    assert got == code
    if argv[:2] in DOCUMENTS:
        assert main(argv) == code
        assert capsys.readouterr().out == json.dumps(
            doc, sort_keys=True, separators=(",", ":")) + "\n"


# Each command that reads a file, given bin.dat of the cli_files fixture,
# whose bytes are not UTF-8, or the same bytes on stdin (-).
READERS = [
    ["eval", "--model", "bin.dat", "a^0 = a^0"],
    ["check", "--theory", "stt", "--file", "bin.dat"],
    ["check", "--theory", "stt", "--file", "-"],
    ["translate", "--map", "i-ctt-sttu", "bin.dat"],
    ["sets", "levels", "bin.dat"],
    ["sets", "check", "lt", "v3.json", "--corpus", "bin.dat"],
    ["prove", "check", "bin.dat"],
]


@pytest.mark.parametrize("argv", READERS)
def test_a_file_that_is_not_utf8_is_a_parse_error(argv, cli_files, monkeypatch):
    monkeypatch.chdir(cli_files)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    code, doc = run_json(*argv)
    name = "stdin" if "-" in argv else "bin.dat"
    assert code == 2
    assert doc == {"error": "ParseError", "message": f"{name} is not UTF-8 text: "
                   "invalid start byte at byte 0"}


# Every integer argument, each taking the values -2..4: (arguments with {}
# for the value).  Files are those of the cli_files fixture.
INTEGER_ARGUMENTS = [
    ["sets", "kappa-check", "--kappa", "{}", "v3.json"],
    ["sets", "slice", "--kappa", "{}", "t3.json"],
    ["decide", "--height", "{}", "some x^0. ~x^0 = x^0"],
    ["model", "build", "--kind", "pure", "--height", "{}"],
    ["model", "check", "--model", "fjt2.json", "--theory", "fjt", "--max-type", "{}"],
    ["model", "build", "--kind", "class", "--height", "2", "--urelements", "{}"],
    ["sets", "build-v", "{}"],
    ["--budget", "{}", "sets", "check", "lt", "v3.json"],
    ["--budget", "{}", "sets", "levels", "v3.json"],
]


@pytest.mark.parametrize("argv", INTEGER_ARGUMENTS)
def test_every_integer_argument_keeps_the_exit_codes(argv, cli_files, monkeypatch):
    monkeypatch.chdir(cli_files)
    for value in range(-2, 5):
        for output_format in FORMATS:
            code = main(["--format", output_format,
                         *(a.format(value) for a in argv)])
            assert code in (0, 1, 2, 3), (value, output_format)


@pytest.mark.parametrize("argv,mode", [
    (["translate", "--map", "i-ctt-sttu"], "typed"),
    (["check", "--theory", "stt", "--file"], "typed"),
    (["sets", "check", "lt", "v3.json", "--corpus"], "set"),
])
def test_a_parse_error_in_a_hol_file_names_its_line(argv, mode, cli_files,
                                                     monkeypatch):
    monkeypatch.chdir(cli_files)
    first = "b^1(a^0)" if mode == "typed" else "x in y"
    (cli_files / f"bad-{mode}.hol").write_text(f"{first}\n# comment\n\n~\n")
    code, doc = run_json(*argv, f"bad-{mode}.hol")
    assert code == 2
    assert doc == {"error": "ParseError",
                   "message": "line 4: expected formula (at column 1)"}
