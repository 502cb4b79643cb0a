"""The theory axioms, one builder per axiom, each written in the notation.

These are the only statement of each axiom: a proof's axiom step names one
(hotk.proofkit.checker) and the model suites evaluate them
(hotk.models.axioms).  They live in the kernel so that the model layer can
build them without loading the proof checker.  Each builder fills its type
indices into the notation and parses it (x^w+1 reads as x at index w+1).
"""

from __future__ import annotations

from hotk.errors import ProofError
from hotk.kernel import regimes as rg
from hotk.kernel.indices import TypeIndex
from hotk.kernel.parser import parse_formula
from hotk.kernel.syntax import Formula


def type_raising(alpha: TypeIndex, beta: TypeIndex) -> Formula:
    """Every type-alpha entity has a type-beta copy (a lemma, not an axiom
    that proofs may cite)."""
    return parse_formula(f"all x^{alpha}. some y^{beta}. x^{alpha} eq y^{beta}")


def type_founded(alpha: TypeIndex, beta: TypeIndex) -> Formula:
    a, b, x = f"a^{alpha}", f"b^{beta.succ()}", f"x^{beta}"
    return parse_formula(f"all {a}. all {b}. {a} in {b} -> some {x}. {a} eq {x}")


def type_base(alpha: TypeIndex) -> Formula:
    return parse_formula(f"all x^0. all y^{alpha}. ~y^{alpha} in x^0")


def type_ext(alpha: TypeIndex, beta: TypeIndex) -> Formula:
    if beta < alpha:
        raise ProofError("cross-type extensionality wants alpha <= beta")
    a, b = f"a^{alpha.succ()}", f"b^{beta.succ()}"
    xa, xb, y = f"x^{alpha}", f"x^{beta}", f"y^{alpha}"
    return parse_formula(
        f"all {a}. all {b}. (all {xa}. {a}({xa}) -> {b}({xa}))"
        f" & (all {xb}. {b}({xb}) -> (some {y} eq {xb}. {a}({y}))) -> {a} eq {b}")


def type_purity() -> Formula:
    return parse_formula("all x^0. all y^0. x^0 = y^0")


def up_inject(n: int) -> Formula:
    return parse_formula(f"all x^{n}. all y^{n}. up(x^{n}) = up(y^{n}) -> x^{n} = y^{n}")


def up_possess(n: int) -> Formula:
    x, y = f"x^{n}", f"y^{n + 1}"
    return parse_formula(f"all {x}. all {y}. up({y})(up({x})) <-> {y}({x})")


def up_founded(n: int) -> Formula:
    x, y, z = f"x^{n + 1}", f"y^{n + 1}", f"z^{n}"
    return parse_formula(f"all {x}. all {y}. up({y})({x}) -> some {z}. {x} = up({z})")


def up_base() -> Formula:
    return parse_formula("all x^0. all y^0. ~up(y^0)(x^0)")


def _projection(n: int, text: str) -> Formula:
    """text with z at type n+1 and x, y at type n filled in."""
    if n < 1:
        raise ProofError("projection starts at type 2 over type 1")
    return parse_formula(text.format(z=f"z^{n + 1}", x=f"x^{n}", y=f"y^{n}"))


def down_exists(n: int) -> Formula:
    return _projection(n, "all {z}. some {x}. {z} dn {x}")


def down_sim(n: int) -> Formula:
    return _projection(n, "all {z}. all {x}. all {y}. {z} dn {x} & {z} dn {y}"
                          " -> {x} coext {y} & {y} downeq {x}")


def down_max(n: int) -> Formula:
    return _projection(n, "all {z}. all {x}. all {y}."
                          " {z} dn {x} & {x} coext {y} & {y} downeq {x} -> {z} dn {y}")


# Each axiom a proof may cite: name -> (builder, the scheme-record
# parameters it takes, in order, and the kinds that assume it).
AXIOMS = {
    "type-founded": (type_founded, ("alpha", "beta"), rg.CTT_KINDS),
    "type-base": (type_base, ("alpha",), rg.CTT_KINDS),
    "type-ext": (type_ext, ("alpha", "beta"), (rg.PCTT,)),
    "type-purity": (type_purity, (), (rg.PCTT,)),
    "up-inject": (up_inject, ("n",), (rg.STT_UP,)),
    "up-possess": (up_possess, ("n",), (rg.STT_UP,)),
    "up-founded": (up_founded, ("n",), (rg.STT_UP,)),
    "up-base": (up_base, (), (rg.STT_UP,)),
    "down-exists": (down_exists, ("n",), (rg.STT_DOWN,)),
    "down-sim": (down_sim, ("n",), (rg.STT_DOWN,)),
    "down-max": (down_max, ("n",), (rg.STT_DOWN,)),
}


def axioms_of(theory: rg.Regime) -> list:
    """The names of the axioms theory assumes, in table order."""
    return [name for name, (_, _, by) in AXIOMS.items() if theory.kind in by]
