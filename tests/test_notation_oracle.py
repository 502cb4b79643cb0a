"""Differential test: the parser and printer built on the notation tables
of hotk.kernel.syntax, with their one-pass tokenizer and precedence
climbing, against the readers and printer of notation_oracle.

Every text is parsed in both modes by both parsers: the results must be
equal, or the errors of one class with one message, and a parsed formula
must print alike.  parse_index runs against the regular-expression reader
it replaced; the one allowed difference is that index text with inner
whitespace or nested parentheses ("w + 1", "((w))") now reads, as it
always did inside a formula.
"""

import json
import random
import re
from importlib import resources
from pathlib import Path

import pytest

import notation_oracle as oracle
from genutil import FormulaGen
from test_kernel_syntax import _nested_shapes

from hotk.corpus import formation_matrix, golden_cases
from hotk.kernel import (expand_abbreviations, parse_formula, parse_index,
                         parse_regime, parse_term, print_formula, print_term)
from hotk.kernel.parser import MAX_DEPTH
from hotk.kernel.syntax import INFIX, PREFIX, Sugar, subformulas

MODES = ("typed", "set")
DATA = resources.files("hotk") / "data"


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:      # the oracle's error class and message
        return (type(e).__name__, str(e))


def _proof_texts():
    """Every formula and term string of the bundled proof fixtures, and
    the type arguments of their rules."""
    formulas, terms, indices = [], [], []
    for entry in sorted((DATA / "proofs").iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".proof"):
            continue
        doc = json.loads(entry.read_text())
        formulas += doc.get("hypotheses", [])
        formulas += [doc["goal"]] if doc.get("goal") else []
        for step in doc["steps"]:
            formulas.append(step["formula"])
            terms += [step[k] for k in ("witness", "eigen") if k in step]
            args = re.fullmatch(r"\w+(?:\((.*)\))?", step["rule"]).group(1)
            indices += args.split(",") if args else []
    return formulas, terms, indices


PROOF_FORMULAS, PROOF_TERMS, PROOF_INDICES = _proof_texts()

# Sugar of every kind, in both languages, with shadowing binders.
EDGE_CASES = [
    "all y^1. some y^1 eq y^1. y^1(a^0)",
    "all y^1. all x^1 eq y^1. all y^1 in x^1. y^1(x^0)",
    "some z^1 eq z^1. all z^2 dn z^1. z^2(z^1)",
    "all v^1 eq v^1. (v^1 coext_1 v^1 & v^2 downeq w^2)",
    "all s^2. (Lev(s^2) -> Rank(a^2, s^2) | x^2 sub s^2)",
    "all x^0. all y^1. (up(x^0) = y^1 & z^2(up(up(x^0))))",
    "~~all x^(w+1). some y^w. x^(w+1)(y^w)",
    "a^2 coext_2 b^3 <-> a^2 coext b^2 -> c^3 dn d^2",
    "Hist(h^2) & a^(w*2+1) in b^((w * 2 + 3))",
    "all x. all y in x. (x in y | x sub y) -> Lev(x) & Hist(y) & Rank(x, y)",
    "some a. (a = b & ~(a in b <-> all c in a. c sub b))",
]

TABLE_TEXTS = (EDGE_CASES
               + [e["formula"] for e in formation_matrix()["formulas"]]
               + [c["input"] for c in golden_cases()]
               + [c["expect"] for c in golden_cases() if "expect" in c]
               + [line for line in (DATA / "set_corpus.hol").read_text().splitlines()]
               + PROOF_FORMULAS)


def _generated():
    """Printed FormulaGen formulas: ctt, stt-up, fjt and stt-down."""
    out = []
    for name in ("ctt", "stt-up", "fjt", "stt-down"):
        for depth in range(1, 6):
            gen = FormulaGen(parse_regime(name), seed=depth, max_type=3,
                             max_depth=depth)
            out += [oracle.print_formula(gen.formula()) for _ in range(25)]
    return out


GENERATED = _generated()

# Tokens for random strings: every keyword and symbol, names, indices, and
# whole atoms and binders so that some strings parse.
VOCAB = ["all", "some", "up", *INFIX, *PREFIX, "coext_2", "coext_0", "coext_x",
         "(", ")", "^", ".", ",", "~", "&", "|", "->", "<->", "*", "+", "#",
         "a", "x", "b1", "w", "0", "2", "^1", "^0", "^(w)", "^(w+1)", "^w*2",
         "a^1", "b^2", "x^0", "a", "b", "x in a", "a sub b", "x^1(a^0)",
         "all x^1.", "some y^2 eq b^2.", "all x in a.", "all x.", "x^2 dn y^1",
         "a^1 downeq b^1", "Lev(s^2)", "Rank(a, s)", "Hist(h)", "a = b"]


def _random_strings(seed, count):
    """Half plain token salad, half token lists of a small random grammar
    over every token, with one token in ten swapped for a random one."""
    rng = random.Random(seed)

    def var(typed):
        name = rng.choice(["a", "x", "y", "b1", "w", "coext_1"])
        if not typed:
            return [name]
        return [name, "^", rng.choice(["0", "1", "2", "3", "w", "(w+1)", "(w*2)"])]

    def term(typed):
        if rng.random() < 0.1:
            return ["up", "(", *term(typed), ")"]
        return var(typed)

    def formula(typed, depth):
        r = rng.random()
        if depth == 0 or r < 0.4:
            r = rng.random()
            if r < 0.15:
                name = rng.choice(list(PREFIX))
                args = term(typed) + ([",", *term(typed)] if name == "Rank" else [])
                return [name, "(", *args, ")"]
            if r < 0.3:
                return [*term(typed), "(", *term(typed), ")"]
            token = rng.choice([*INFIX, "coext_2"])
            return [*term(typed), token, *term(typed)]
        if r < 0.5:
            return ["~", *formula(typed, depth - 1)]
        if r < 0.6:
            return ["(", *formula(typed, depth - 1), ")"]
        if r < 0.8:
            return [*formula(typed, depth - 1), rng.choice(["&", "|", "->", "<->"]),
                    *formula(typed, depth - 1)]
        head = [rng.choice(["all", "some"]), *var(typed)]
        if rng.random() < 0.4:
            head += [rng.choice(["eq", "in", "dn"]), *term(typed)]
        return [*head, ".", *formula(typed, depth - 1)]

    out = []
    for i in range(count):
        if i % 2:
            toks = [rng.choice(VOCAB) for _ in range(rng.randint(1, 9))]
        else:
            toks = [t if rng.random() < 0.9 else rng.choice(VOCAB)
                    for t in formula(rng.random() < 0.5, rng.randint(0, 4))]
        out.append((" " if rng.random() < 0.8 else "").join(toks))
    return out


def _cut_and_spliced(texts, seed):
    """Each text cut at every fifth character, and with one random token
    inserted at a random place."""
    rng = random.Random(seed)
    out = []
    for t in texts:
        out += [t[:i] for i in range(1, len(t), 5)]
        for _ in range(4):
            i = rng.randint(0, len(t))
            out.append(f"{t[:i]} {rng.choice(VOCAB)} {t[i:]}")
    return out


def _assert_same(text, mode, used):
    got = outcome(parse_formula, text, mode)
    want = outcome(oracle.parse_formula, text, mode)
    assert got == want, (text, mode)
    if isinstance(got, tuple):
        return
    assert print_formula(got) == oracle.print_formula(got), (text, mode)
    for g in subformulas(got):
        used.add(g.kind if isinstance(g, Sugar) else type(g).__name__)


def _check_all(texts):
    used = set()
    for mode in MODES:
        for text in texts:
            _assert_same(text, mode, used)
    return used


def test_corpora_parse_and_print_alike():
    used = _check_all(TABLE_TEXTS)
    assert {"StrictEq", "DownRel", "InSet", "in", "eq", "coext", "coext_k",
            "downeq", "subset", "bounded", *PREFIX.values()} <= used


def test_generated_formulas_parse_and_print_alike():
    _check_all(GENERATED)


def test_cut_and_spliced_formulas_parse_alike():
    _check_all(_cut_and_spliced(GENERATED + EDGE_CASES, 3))


@pytest.mark.parametrize("mode", MODES)
def test_random_token_strings_parse_alike(mode):
    used = set()
    for text in _random_strings(0, 10000):
        _assert_same(text, mode, used)
    assert {"Apply", "StrictEq", "Not", "Forall", "Exists", "bounded",
            "subset", *PREFIX.values()} <= used


def test_nesting_at_and_past_the_cap_parses_alike():
    for depth in (MAX_DEPTH, MAX_DEPTH + 1):
        _check_all(list(_nested_shapes(depth).values()))


def test_expansions_print_alike():
    for text in TABLE_TEXTS + GENERATED:
        for mode in MODES:
            f = outcome(parse_formula, text, mode)
            g = None if isinstance(f, tuple) else outcome(expand_abbreviations, f)
            if g is not None and not isinstance(g, tuple):
                assert print_formula(g) == oracle.print_formula(g), text


def test_terms_parse_and_print_alike():
    texts = PROOF_TERMS + ["up(up(a^w))", "x", "x^", "all", "a^1 b", "up(x",
                           "coext_1^2", "Lev^1", "a^(w + 1)", ""]
    for mode in MODES:
        for text in texts:
            got = outcome(parse_term, text, mode)
            assert got == outcome(oracle.parse_term, text, mode), (text, mode)
            if not isinstance(got, tuple):
                assert print_term(got) == oracle.print_term(got)


INDICES = (["0", "17", "w", "w+3", "w*2", "w*2+5", "(w+1)", " w ", "( w*3 )",
            "007", "w*0+2", "w*1"]
           + [str(q * 10 + r) for q in range(3) for r in range(3)]
           + [f"w*{q}+{r}" for q in range(4) for r in range(4)]
           + PROOF_INDICES)
BAD_INDICES = ["w*w", "w^2", "e0", "-1", "", " ", "()", "(w", "w)", "(w)(w)",
               "w x", "w+1x", "1 2", "w+", "w*", "w*+1", "w+w", "1+1", "W",
               "w1", "omega", "w#", "1 # c", "(w)+1", "x^1", "w,1", "w.1"]
# Read by the parser's index rule, which skips whitespace and allows nested
# parentheses, and refused by the regular expression.
NEWLY_READ = ["w + 1", "w * 2 + 3", "((w))", "( (w * 2) )", "(((3)))", "w\t+1"]


def test_parse_index_agrees_with_the_regular_expression():
    for text in INDICES + BAD_INDICES:
        assert outcome(parse_index, text) == outcome(oracle.parse_index, text), text


def _flattened(text):
    """text without whitespace and with doubled outer parentheses undone."""
    flat = re.sub(r"\s", "", text)
    while flat.startswith("((") and flat.endswith("))"):
        flat = flat[1:-1]
    return flat


def test_parse_index_reads_spaces_and_nested_parentheses():
    for text in NEWLY_READ:
        assert outcome(oracle.parse_index, text)[0] == "ParseError", text
        assert parse_index(text) == oracle.parse_index(_flattened(text)), text


def test_random_index_strings():
    rng = random.Random(5)
    newly_read = 0
    for _ in range(3000):
        text = "".join(rng.choice("w*+()0123 #x^") for _ in range(rng.randint(0, 7)))
        got, want = outcome(parse_index, text), outcome(oracle.parse_index, text)
        if got != want:
            assert want[0] == "ParseError" and got == oracle.parse_index(
                _flattened(text)), text
            newly_read += 1
    assert newly_read > 0


def test_readme_lists_the_notation_tables():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    production = re.search(r"^atom +::=(.*?)^\w+ +::=", readme,
                           re.M | re.S).group(1)
    infix = set(re.findall(r"term (\S+) term", production))
    prefix = set(re.findall(r"\b(\w+)\(term", production)) - {"term"}
    assert infix == set(INFIX) | {"coext_NAT"}
    assert prefix == set(PREFIX)
