"""The seven theories, each a kind of formation regime."""

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
PCTT = "pctt"
FJT = "fjt"

# Each kind's printed name, then the other spellings parse_regime accepts.
_NAMES = {
    STT: ("stt",),
    STT_UP: ("stt-up", "sttu", "stt_up"),
    STT_DOWN: ("stt-down", "sttd", "stt_down"),
    CTT_STRINGENT: ("ctt",),
    CTT_LIBERAL: ("ctt-liberal", "ctt_liberal"),
    PCTT: ("pctt",),
    FJT: ("fjt",),
}
_KIND_OF = {name: kind for kind, names in _NAMES.items() for name in names}

# The kinds by formation rule: the standard theories need head type =
# argument type + 1, the head-above ones head type > argument type, and
# the liberal CTT takes any pair; the cumulative kinds are the non-standard
# ones; all but the CTT kinds have finite types only; every kind but
# stt-down and fjt has plain comprehension.  pctt is ctt with the pure
# theory's axioms (kernel/axioms.AXIOMS).
STANDARD_KINDS = frozenset({STT, STT_UP, STT_DOWN})
CUMULATIVE_KINDS = frozenset({FJT, CTT_STRINGENT, CTT_LIBERAL, PCTT})
HEAD_ABOVE_KINDS = frozenset({FJT, CTT_STRINGENT, PCTT})
CTT_KINDS = frozenset({CTT_STRINGENT, CTT_LIBERAL, PCTT})
FINITE_KINDS = frozenset({STT, STT_UP, STT_DOWN, FJT})
PLAIN_COMPREHENSION_KINDS = frozenset({STT, STT_UP, CTT_STRINGENT, CTT_LIBERAL, PCTT})


@dataclass(frozen=True)
class Regime:
    kind: str
    bound: Optional[TypeIndex] = None   # CTT kinds only: all indices < bound

    def __post_init__(self):
        if self.kind not in _NAMES:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.is_ctt != (self.bound is not None):
            raise ValueError("CTT regimes need a type bound, and only they take one")

    @property
    def is_ctt(self) -> bool:
        return self.kind in CTT_KINDS

    def admits_index(self, idx: TypeIndex) -> bool:
        if self.kind in FINITE_KINDS:
            return idx.omega_coeff == 0
        return idx < self.bound

    def __str__(self) -> str:
        name = _NAMES[self.kind][0]
        return f"{name}:{self.bound}" if self.is_ctt else name


def stt() -> Regime:
    return Regime(STT)


def stt_up() -> Regime:
    return Regime(STT_UP)


def stt_down() -> Regime:
    return Regime(STT_DOWN)


def ctt() -> Regime:
    return Regime(CTT_STRINGENT, OMEGA)


def fjt() -> Regime:
    return Regime(FJT)


def parse_regime(text: str) -> Regime:
    """Parse CLI regime strings: a spelling in _NAMES; the CTT kinds take a :<idx> bound."""
    name, _, idx = text.strip().lower().partition(":")
    kind = _KIND_OF.get(name)
    if kind in FINITE_KINDS:
        if idx:
            raise ParseError(f"{name} has no type bound, got {text!r}")
        return Regime(kind)
    bound = parse_index(idx) if idx else OMEGA
    if kind is None:
        raise ParseError(f"unknown theory {text!r}")
    return Regime(kind, bound)
