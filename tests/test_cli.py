import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from proof_docs import HAND_PROOFS, HOSTILE_PROOFS, REGIMES, RULES, fixture_documents

from hotk.cli import main
from hotk.kernel import fin, parse_formula
from hotk.models import Model, check_axiom_suite, eval_formula
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
    code, _ = run(capsys, "--budget", "2", "sets", "kappa-check", "--kappa", "2",
                  str(path))
    assert code == 3
    code, _ = run(capsys, "sets", "kappa-check", "--kappa", "2", str(path))
    assert code == 0


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
    else:
        doc = json.loads(out.getvalue())
    return code, doc


@pytest.fixture(scope="module")
def error_files(tmp_path_factory):
    from hotk.models import build_fjt_canonical
    d = tmp_path_factory.mktemp("errors")
    files = {"fjt2.json": build_fjt_canonical(2).dumps(),
             "cyclic.json": json.dumps({"nodes": ["a"], "edges": [["a", "a"]]}),
             "no_height.json": json.dumps({"kind": "pure", "domains": [["{}"]]}),
             "broken.json": "{",
             "bad.proof": json.dumps({"theory": "stt", "steps": [{"n": 1}]}),
             "deep.json": "[" * 5000 + "]" * 5000}
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "directory.json").mkdir()
    return d


# One command for each way main reports an error: (arguments, exit code,
# error class).  Relative paths name files of the error_files fixture.
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
    (["eval", "--model", "broken.json", "a^0 = a^0"], 2, "JSONDecodeError"),
    (["sets", "build-v", "-1"], 2, "ValueError"),
    (["--budget", "10", "model", "build", "--kind", "pure", "--height", "4"], 3,
     "BudgetExceeded"),
    (["--budget", "1", "eval", "--model", "fjt2.json", "all a^1. a^1 = a^1"], 3,
     "BudgetExceeded"),
]


@pytest.mark.parametrize("argv,code,error", ERROR_PATHS)
def test_errors_are_json_under_format_json(argv, code, error, error_files, capsys):
    argv = [str(error_files / a) if a.endswith((".json", ".proof")) else a
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
@given(model=hostile_files("model"), graph=hostile_files("graph"))
def test_fuzzed_model_and_graph_files_keep_the_exit_codes(tmp_path_factory, model,
                                                          graph):
    d = tmp_path_factory.mktemp("files")
    (d / "model.json").write_text(model)
    (d / "graph.json").write_text(graph)
    run_json("eval", "--model", str(d / "model.json"),
             "all x^0. some y^1. x^0 eq y^1")
    run_json("sets", "collapse", str(d / "graph.json"))
