"""Bundled corpora: loading plus the end-to-end `corpus run` verification."""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, List, Tuple

from hotk.kernel import (alpha_normalize, check_formation,
                         expand_abbreviations, parse_formula, parse_hol_lines,
                         parse_regime, print_formula)
from hotk.kernel.syntax import Formula


def _data():
    return resources.files("hotk") / "data"


def formation_matrix() -> dict:
    return json.loads((_data() / "formation_matrix.json").read_text())


def separation_corpus() -> List[Formula]:
    return parse_hol_lines((_data() / "set_corpus.hol").read_text(), mode="set")


def golden_cases() -> List[Dict[str, str]]:
    cases = []
    gold = _data() / "goldens"
    for entry in sorted(gold.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".golden"):
            continue
        fields = dict(line.split(": ", 1)
                      for line in entry.read_text().splitlines() if ": " in line)
        fields["name"] = entry.name
        cases.append(fields)
    return cases


def graph_fixture(name: str):
    from hotk.graphs import MembershipGraph
    return MembershipGraph.loads((_data() / "graphs" / name).read_text())


def transitive_fixture_names() -> List[str]:
    return ["chain3.json", "chain4.json", "v2_plus_two.json", "pair_mix.json",
            "v4_minus_rank3.json"]


def run_formation_matrix() -> Tuple[bool, List[str]]:
    doc = formation_matrix()
    regimes = {r: parse_regime(r) for r in doc["regimes"]}
    lines = []
    ok = True
    for entry in doc["formulas"]:
        f = parse_formula(entry["formula"])
        bad = [r for r, expected in entry["verdicts"].items()
               if check_formation(f, regimes[r]).ok != expected]
        if bad:
            ok = False
            lines.append(f"FAIL formation {entry['formula']!r}: wrong under {bad}")
    lines.append(f"{'PASS' if ok else 'FAIL'} formation matrix "
                 f"({len(doc['formulas'])} formulas x {len(regimes)} regimes)")
    return ok, lines


def run_goldens() -> Tuple[bool, List[str]]:
    lines = []
    ok = True
    cases = golden_cases()
    for case in cases:
        regime = parse_regime(case["regime"])
        got = print_formula(alpha_normalize(expand_abbreviations(
            parse_formula(case["input"]), regime)))
        if got != case["expect"]:
            ok = False
            lines.append(f"FAIL golden {case['name']}: got {got!r}")
    lines.append(f"{'PASS' if ok else 'FAIL'} expansion goldens ({len(cases)} files)")
    return ok, lines


def run_roundtrip_print() -> Tuple[bool, List[str]]:
    doc = formation_matrix()
    ok = True
    for entry in doc["formulas"]:
        f = parse_formula(entry["formula"])
        if parse_formula(print_formula(f)) != f:
            ok = False
    return ok, [f"{'PASS' if ok else 'FAIL'} print/parse round trip over the corpus"]


def run_all(budget: int = 10 ** 6) -> dict:
    from hotk.proofkit import verify_fixture_suite
    sections = [run_formation_matrix(), run_goldens(), run_roundtrip_print()]
    lines: List[str] = []
    ok = True
    for section_ok, section_lines in sections:
        ok = ok and section_ok
        lines.extend(section_lines)
    fixtures = verify_fixture_suite()
    lines.extend(fixtures.lines())
    lines.append(f"{'PASS' if fixtures.all_as_expected else 'FAIL'} proof fixtures")
    ok = ok and fixtures.all_as_expected
    return {"ok": ok, "lines": lines,
            "json": {"ok": ok, "log": lines}}
