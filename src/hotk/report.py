"""Shared report types for axiom-suite style checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


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

    def status(self, name: str) -> str:
        for v in self.verdicts:
            if v.name == name:
                return v.status
        raise KeyError(name)

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
