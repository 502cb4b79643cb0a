"""Shared report types for axiom-suite style checks.

Every row of `model check`, `sets check` and `sets kappa-check` is made by
`SuiteReport.row` from the (status, detail) checks of its axiom, and every
such report is judged by `SuiteReport.failed`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

# The note of a row reported only for information: its FAIL is expected at
# finite scale and decides no verdict.
EXPECTED_FAIL = "expected FAIL at finite scale"


@dataclass
class AxiomVerdict:
    name: str
    status: str
    witness: Optional[str] = None
    note: Optional[str] = None

    def to_json(self) -> dict:
        doc = {"name": self.name, "status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.note is not None:
            doc["note"] = self.note
        return doc


@dataclass
class SuiteReport:
    subject: str
    verdicts: List[AxiomVerdict] = field(default_factory=list)

    def add(self, name: str, status: str, witness=None, note=None) -> None:
        self.verdicts.append(AxiomVerdict(name, status, witness, note))

    def row(self, name: str, checks, note=None, fail_note=None) -> None:
        """One row for an axiom's (status, detail) checks: the first FAIL,
        with its detail as witness and fail_note as note, else the first
        SKIPPED, with its detail as note, else PASS with note.  The checks
        are read up to the first FAIL only."""
        skipped = None
        for status, detail in checks:
            if status == FAIL:
                self.add(name, FAIL, witness=detail, note=fail_note)
                return
            if status == SKIPPED and skipped is None:
                skipped = detail
        if skipped is None:
            self.add(name, PASS, note=note)
        else:
            self.add(name, SKIPPED, note=skipped)

    def status(self, name: str) -> str:
        for v in self.verdicts:
            if v.name == name:
                return v.status
        raise KeyError(name)

    @property
    def failed(self) -> bool:
        """The suite's verdict: some row FAILs that is not EXPECTED_FAIL."""
        return any(v.status == FAIL and v.note != EXPECTED_FAIL
                   for v in self.verdicts)

    @property
    def all_pass(self) -> bool:
        return all(v.status == PASS for v in self.verdicts)

    def to_json(self) -> dict:
        return {"subject": self.subject,
                "verdicts": [v.to_json() for v in self.verdicts],
                "all_pass": self.all_pass}

    def lines(self) -> List[str]:
        out = []
        for v in self.verdicts:
            extra = f" (witness {v.witness})" if v.witness else ""
            extra += f" [{v.note}]" if v.note else ""
            out.append(f"{v.status:7s} {v.name}{extra}")
        return out
