"""Bundled machine-checkable proofs and their expected verdicts."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import List

from hotk.errors import ProofError
from hotk.proofkit.checker import ProofObject, ProofVerdict, check_proof, loads_proof


@dataclass
class FixtureResult:
    file: str
    expected: str              # "accepted" or a rejection tag
    verdict: ProofVerdict

    @property
    def as_expected(self) -> bool:
        if self.expected == "accepted":
            return self.verdict.accepted
        return (not self.verdict.accepted) and self.verdict.tag == self.expected


@dataclass
class FixtureReport:
    results: List[FixtureResult] = field(default_factory=list)

    @property
    def all_as_expected(self) -> bool:
        return all(r.as_expected for r in self.results)

    def lines(self) -> List[str]:
        out = []
        for r in self.results:
            v = r.verdict
            got = "Accepted" if v.accepted else f"Rejected[{v.tag} at step {v.step}]"
            mark = "ok " if r.as_expected else "BAD"
            out.append(f"{mark} {r.file:28s} {got} (expected {r.expected})")
        return out

    def to_json(self) -> dict:
        return {"all_as_expected": self.all_as_expected,
                "results": [{"file": r.file, "expected": r.expected,
                             "verdict": r.verdict.to_json()} for r in self.results]}


def _data_dir():
    return resources.files("hotk") / "data" / "proofs"


def load_fixture(name: str) -> ProofObject:
    path = _data_dir() / name
    return loads_proof(path.read_text())


def fixture_manifest() -> dict:
    return json.loads((_data_dir() / "manifest.json").read_text())


def verify_fixture_suite() -> FixtureReport:
    """Re-check every bundled proof against its expected verdict."""
    manifest = fixture_manifest()
    report = FixtureReport()
    for name in manifest["positive"]:
        report.results.append(
            FixtureResult(name, "accepted", check_proof(load_fixture(name))))
    for item in manifest["negative"]:
        report.results.append(FixtureResult(
            item["file"], item["tag"], check_proof(load_fixture(item["file"]))))
    if not report.results:
        raise ProofError("no bundled fixtures found")
    return report
