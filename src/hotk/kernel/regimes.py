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

# Each kind's printed name, then the other spellings parse_regime accepts.
_NAMES = {
    STT: ("stt",),
    STT_UP: ("stt-up", "sttu", "stt_up"),
    STT_DOWN: ("stt-down", "sttd", "stt_down"),
    CTT_STRINGENT: ("ctt",),
    CTT_LIBERAL: ("ctt-liberal", "ctt_liberal"),
    FJT: ("fjt",),
}
_KIND_OF = {name: kind for kind, names in _NAMES.items() for name in names}

# The kinds by formation rule: the standard theories need head type =
# argument type + 1, the cumulative ones let a head take any lower type
# (the liberal CTT any type at all); all but the CTT kinds have finite
# types only; every kind but stt-down and fjt has plain comprehension.
STANDARD_KINDS = frozenset({STT, STT_UP, STT_DOWN})
CUMULATIVE_KINDS = frozenset({FJT, CTT_STRINGENT, CTT_LIBERAL})
CTT_KINDS = frozenset({CTT_STRINGENT, CTT_LIBERAL})
FINITE_KINDS = frozenset({STT, STT_UP, STT_DOWN, FJT})
PLAIN_COMPREHENSION_KINDS = frozenset({STT, STT_UP, CTT_STRINGENT, CTT_LIBERAL})


@dataclass(frozen=True)
class Regime:
    kind: str
    bound: Optional[TypeIndex] = None   # CTT kinds only: all indices < bound
    overlay: str = "none"               # "none" or "pctt"

    def __post_init__(self):
        if self.kind not in _NAMES:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.is_ctt and self.bound is None:
            raise ValueError("CTT regimes need a type bound")
        if self.overlay not in ("none", "pctt"):
            raise ValueError(f"unknown overlay {self.overlay!r}")

    @property
    def is_ctt(self) -> bool:
        return self.kind in CTT_KINDS

    def admits_index(self, idx: TypeIndex) -> bool:
        if self.kind in FINITE_KINDS:
            return idx.omega_coeff == 0
        return idx < self.bound

    def __str__(self) -> str:
        s = _NAMES[self.kind][0]
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


def ctt(liberal: bool = False) -> Regime:
    return Regime(CTT_LIBERAL if liberal else CTT_STRINGENT, OMEGA)


def fjt() -> Regime:
    return Regime(FJT)


def parse_regime(text: str) -> Regime:
    """Parse CLI regime strings: a spelling in _NAMES, or pctt; the CTT kinds take a :<idx> bound."""
    name, _, idx = text.strip().lower().partition(":")
    kind = _KIND_OF.get(name, CTT_STRINGENT if name == "pctt" else None)
    if kind in FINITE_KINDS:
        if idx:
            raise ParseError(f"{name} has no type bound, got {text!r}")
        return Regime(kind)
    bound = parse_index(idx) if idx else OMEGA
    if kind is None:
        raise ParseError(f"unknown theory {text!r}")
    return Regime(kind, bound, "pctt" if name == "pctt" else "none")
