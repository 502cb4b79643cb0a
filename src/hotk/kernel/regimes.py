"""The six formation regimes plus the pure-theory overlay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from hotk.errors import ParseError
from hotk.kernel.indices import OMEGA, TypeIndex
from hotk.kernel.parser import parse_index

STT = "stt"
STT_UP = "stt_up"
STT_DOWN = "stt_down"
CTT_STRINGENT = "ctt"
CTT_LIBERAL = "ctt_liberal"
FJT = "fjt"

_KINDS = (STT, STT_UP, STT_DOWN, CTT_STRINGENT, CTT_LIBERAL, FJT)

# The kinds by formation rule: the standard theories need head type =
# argument type + 1, the cumulative ones let a head take any lower type
# (the liberal CTT any type at all); all but the CTT kinds have finite
# types only.
STANDARD_KINDS = frozenset({STT, STT_UP, STT_DOWN})
CUMULATIVE_KINDS = frozenset({FJT, CTT_STRINGENT, CTT_LIBERAL})
CTT_KINDS = frozenset({CTT_STRINGENT, CTT_LIBERAL})
FINITE_KINDS = frozenset({STT, STT_UP, STT_DOWN, FJT})


@dataclass(frozen=True)
class Regime:
    kind: str
    bound: Optional[TypeIndex] = None   # CTT kinds only: all indices < bound
    overlay: str = "none"               # "none" or "pctt"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.is_ctt and self.bound is None:
            raise ValueError("CTT regimes need a type bound")
        if self.overlay not in ("none", "pctt"):
            raise ValueError(f"unknown overlay {self.overlay!r}")

    @property
    def is_ctt(self) -> bool:
        return self.kind in CTT_KINDS

    @property
    def finite_only(self) -> bool:
        return self.kind in FINITE_KINDS

    def admits_index(self, idx: TypeIndex) -> bool:
        if self.kind in FINITE_KINDS:
            return idx.omega_coeff == 0
        return idx < self.bound

    def __str__(self) -> str:
        names = {STT: "stt", STT_UP: "stt-up", STT_DOWN: "stt-down",
                 CTT_STRINGENT: "ctt", CTT_LIBERAL: "ctt-liberal", FJT: "fjt"}
        s = names[self.kind]
        if self.is_ctt:
            s += f":{self.bound}"
        if self.overlay == "pctt":
            s = f"pctt:{self.bound}" if self.kind == CTT_STRINGENT else s + "+pctt"
        return s


def stt() -> Regime:
    return Regime(STT)


def stt_up() -> Regime:
    return Regime(STT_UP)


def stt_down() -> Regime:
    return Regime(STT_DOWN)


def ctt(bound: TypeIndex = OMEGA, liberal: bool = False, overlay: str = "none") -> Regime:
    return Regime(CTT_LIBERAL if liberal else CTT_STRINGENT, bound, overlay)


def fjt() -> Regime:
    return Regime(FJT)


def parse_regime(text: str) -> Regime:
    """Parse CLI regime strings: stt, stt-up, stt-down, fjt, ctt:<idx>, ctt-liberal:<idx>, pctt:<idx>."""
    s = text.strip().lower()
    name, _, idx = s.partition(":")
    if name in ("stt",):
        return stt()
    if name in ("stt-up", "sttu", "stt_up"):
        return stt_up()
    if name in ("stt-down", "sttd", "stt_down"):
        return stt_down()
    if name == "fjt":
        return fjt()
    bound = parse_index(idx) if idx else OMEGA
    if name == "ctt":
        return ctt(bound)
    if name in ("ctt-liberal", "ctt_liberal"):
        return ctt(bound, liberal=True)
    if name == "pctt":
        return ctt(bound, overlay="pctt")
    raise ParseError(f"unknown theory {text!r}")
