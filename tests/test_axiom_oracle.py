"""The axiom suites, which evaluate the theory-axiom formulas, against the
hand-written loops of axiom_oracle.

Reports must agree byte for byte, apart from these differences:
- the oracle stops a group of rows at its first FAIL (up-inject drops the
  other up-* rows, down-exists the other down-* rows), the suite gives
  every axiom a row;
- a row the evaluator cannot decide (no raising map, an entity the raising
  map misses, no projection relation) fails with the evaluator's message;
  the oracle words it its own way, or crashes without a projection
  relation, so it runs on an empty one;
- a SKIPPED row gives its size in `note`, never in `witness`;
- FJT's type-purity FAIL names the number of type-0 entities, as pctt's
  does;
- up-inject, down-sim and down-max may name another failing assignment:
  the oracle takes up-inject's pair by its later element and walks a
  projection set in sorted or hash order, the suite walks the domains in
  binder order.  There the witness must name a failing instance;
- where the oracle SKIPs a comprehension row for the budget, the suite
  charges a subset search only where a subset is missing: its row is the
  oracle's at the default budget when that PASSes, and when that FAILs,
  SKIPPED with the size of the type the FAIL names, the first type with a
  missing subset.
"""

import re
from dataclasses import replace
from itertools import product

import pytest

from axiom_oracle import check_axiom_suite as oracle_suite
from hotk.corpus import graph_fixture
from hotk.kernel import axioms as ax
from hotk.kernel.regimes import parse_regime
from hotk.kernel.syntax import Forall
from hotk.models import (akey, build_class_model, build_fjt_canonical,
                         build_graph_model, build_pure_model,
                         build_sttd_companion, build_sttu_companion,
                         check_axiom_suite, eval_formula)
from hotk.settheory import T_construction, build_V

THEORIES = ["stt", "stt-up", "stt-down", "ctt:w", "ctt-liberal:w", "pctt:w",
            "fjt"]
GRAPHS = ["astruct.json", "chain3.json", "chain4.json", "pair_mix.json",
          "quine.json", "v2_plus_two.json", "v4_minus_rank3.json"]
EVAL_ERRORS = ("model has no raising map", "raising map undefined",
               "model has no projection relation")


def _corpus():
    models = {}
    for h in range(1, 5):
        models[f"pure{h}"] = build_pure_model(h)
        models[f"pure{h}-up"] = build_sttu_companion(models[f"pure{h}"])
    for u in range(3):
        for h in range(1, 4):
            models[f"class{u}.{h}"] = build_class_model(u, h)
    for h in range(3):
        models[f"fjt{h}"] = build_fjt_canonical(h)
        models[f"fjt{h}-down"] = build_sttd_companion(models[f"fjt{h}"])
    for name in GRAPHS:
        height = 4 if name in ("astruct.json", "quine.json") else None
        models[name] = build_graph_model(graph_fixture(name), height=height)
    for n in (2, 3):
        models[f"T{n}"] = T_construction(build_V(n))

    up = models["pure4-up"]
    dropped = dict(up.up_map)
    del dropped[(1, up.domains[1][1])]
    models["up-dropped"] = replace(up, up_map=dropped)
    collided = dict(up.up_map)
    collided[(2, up.domains[2][3])] = collided[(2, up.domains[2][0])]
    models["up-collided"] = replace(up, up_map=collided)
    # Raise one type-2 entity y to y plus a type-2 entity t that is no
    # type-1 entity's image: only up-founded fails.
    y, t = up.domains[2][1], up.domains[2][-1]
    w = next(e for e in up.domains[3] if up.members[e] == up.members[y] | {t})
    models["up-unfounded"] = replace(up, up_map={**up.up_map, (2, y): w})
    down = models["fjt2-down"]
    # A type-1 twin that nothing projects to: only down-max fails.
    x = down.domains[1][-1]
    models["down-twin"] = replace(
        down, domains=(down.domains[0], down.domains[1] + ("t",), down.domains[2]),
        members={**down.members, "t": down.members[x]})
    rel = sorted(down.down_rel)
    models["down-dropped"] = replace(down, down_rel=set(rel[1:]))
    models["down-added"] = replace(down, down_rel=set(rel) | {
        (2, down.domains[2][0], a) for a in down.domains[1]})
    chain = models["chain4.json"]
    members = dict(chain.members)
    top = chain.domains[2][-1]
    members[top] = frozenset(sorted(members[top])[1:])
    models["member-cut"] = replace(chain, members=members)
    return models


CORPUS = _corpus()


def _failing_witnesses(m, name, max_type):
    """Every witness text that names a false instance of a row whose
    witness may differ from the oracle's."""
    build, text, low = {
        "up-inject": (ax.up_inject, lambda n, x, y: f"{x} and {y} raise alike", 0),
        "down-sim": (ax.down_sim, lambda n, z, x, y: f"{z}^{n + 1} over {x},{y}", 1),
        "down-max": (ax.down_max, lambda n, z, x, y: f"{z}^{n + 1} misses {y}^{n}", 1),
    }[name]
    texts = set()
    for n in range(low, max_type):
        f, binders = build(n), []
        while isinstance(f, Forall):
            binders.append(f.var)
            f = f.body
        for values in product(*(m.domain(v.index) for v in binders)):
            if not eval_formula(m, f, {akey(v): e for v, e in zip(binders, values)}):
                texts.add(text(n, *values))
    return texts


def _oracle(m, theory, max_type, budget):
    return oracle_suite(replace(m, down_rel=m.down_rel or set()),
                        parse_regime(theory), max_type, budget).to_json()


def _unskipped(m, v, full, budget):
    """A comprehension row the oracle SKIPs for the budget, as the suite
    gives it: the row at the default budget, `full`, when that PASSes, else
    SKIPPED at the first type with a missing subset, which its FAIL names."""
    if full["status"] == "PASS":
        return full
    n = int(re.match(r"type (\d+)", full["witness"]).group(1))
    size = 2 ** sum(len(d) for d in (m.domains[:n] if v["name"] ==
                                     "comprehension-finitary" else [m.domains[n]]))
    return {"name": v["name"], "status": "SKIPPED",
            "note": f"type {n}: {size} tuples of subsets, above budget {budget}"}


def _expected(m, theory, max_type, budget):
    """The oracle's report, with the differences the suite may show
    written into it; the rows it drops stay missing."""
    doc = _oracle(m, theory, max_type, budget)
    full = None
    for i, v in enumerate(doc["verdicts"]):
        if v["status"] == "SKIPPED" and "witness" in v:
            v["note"] = v.pop("witness")
        if v["status"] == "SKIPPED" and v["name"].startswith("comprehension"):
            full = full or _oracle(m, theory, max_type, 10 ** 6)["verdicts"]
            v = doc["verdicts"][i] = _unskipped(
                m, v, next(w for w in full if w["name"] == v["name"]), budget)
        if theory == "fjt" and v["name"] == "type-purity" and v["status"] == "FAIL":
            v["witness"] = f"{len(m.domains[0])} type-0 entities"
    doc["all_pass"] = all(v["status"] == "PASS" for v in doc["verdicts"])
    return doc


def _assert_agrees(m, theory, max_type, budget=10 ** 6):
    got = check_axiom_suite(m, parse_regime(theory), max_type, budget).to_json()
    want = _expected(m, theory, max_type, budget)
    old = {v["name"]: v for v in want["verdicts"]}
    failed = {v["name"].split("-")[0] for v in want["verdicts"]
              if v["status"] == "FAIL"}
    assert [v["name"] for v in got["verdicts"] if v["name"] in old] == list(old)
    for v in got["verdicts"]:
        w = old.get(v["name"])
        if w is None:
            assert v["name"].split("-")[0] in failed, (v, want)
        elif v.get("witness", "").startswith(EVAL_ERRORS):
            assert v["status"] == w["status"] == "FAIL", (v, w)
        elif v != w and v["name"] in ("up-inject", "down-sim", "down-max"):
            assert v["status"] == w["status"] == "FAIL", (v, w)
            assert v["witness"] in _failing_witnesses(m, v["name"], max_type)
        else:
            assert v == w
    assert got["subject"] == want["subject"]
    assert got["all_pass"] == want["all_pass"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_suite_agrees_with_the_oracle(name):
    m = CORPUS[name]
    for theory in THEORIES:
        for max_type in range(m.max_type + 1):
            _assert_agrees(m, theory, max_type)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_skipped_comprehension_agrees_with_the_oracle(name):
    # Under these theories every quantified domain fits the budget, so
    # only comprehension is skipped.
    m = CORPUS[name]
    for theory in ("stt", "fjt"):
        for max_type in range(m.max_type + 1):
            _assert_agrees(m, theory, max_type, budget=10)


def test_fjt3_down_agrees_with_the_oracle(fjt3_down):
    for max_type in range(fjt3_down.max_type + 1):
        _assert_agrees(fjt3_down, "stt-down", max_type)


def _subset_rows(m, theory, max_type, budget):
    rep = check_axiom_suite(m, parse_regime(theory), max_type, budget)
    return {v.name: v.status for v in rep.verdicts
            if v.name.startswith("comprehension")}


def test_a_subset_row_skips_only_where_a_subset_is_missing(fjt3_down):
    """A comprehension row PASSes under a small budget exactly when it
    PASSes under a large one, and is SKIPPED only where it FAILs there:
    counting the realized extensions is not charged."""
    seen = set()
    for m in [*CORPUS.values(), fjt3_down]:
        for theory in ("stt", "fjt", "stt-down"):
            for max_type in range(m.max_type + 1):
                full = _subset_rows(m, theory, max_type, 10 ** 6)
                for budget in (40, 8, 2):
                    for row, status in _subset_rows(m, theory, max_type,
                                                    budget).items():
                        assert (status == "PASS") == (full[row] == "PASS")
                        assert status != "SKIPPED" or full[row] == "FAIL"
                        seen.add((status, full[row]))
    assert seen == {("PASS", "PASS"), ("FAIL", "FAIL"), ("SKIPPED", "FAIL")}


def test_the_corpus_reaches_every_difference():
    seen = set()
    for name, m in CORPUS.items():
        for theory in THEORIES:
            got = check_axiom_suite(m, parse_regime(theory), m.max_type)
            want = _expected(m, theory, m.max_type, 10 ** 6)
            if len(got.verdicts) > len(want["verdicts"]):
                seen.add("dropped")
            for v in got.verdicts:
                if (v.witness or "").startswith(EVAL_ERRORS):
                    seen.add("eval-error")
                if v.status == "FAIL" and v.name in ("up-inject", "down-sim"):
                    seen.add(v.name)
        got = check_axiom_suite(m, parse_regime("stt"), m.max_type, budget=10)
        if _oracle(m, "stt", m.max_type, 10)["verdicts"][0]["status"] == "SKIPPED":
            seen.add(("skipped", got.status("comprehension")))
    assert seen == {"dropped", "eval-error", "up-inject", "down-sim",
                    ("skipped", "PASS"), ("skipped", "SKIPPED")}
