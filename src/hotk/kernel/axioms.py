"""The theory axioms as formula builders, one per scheme.

These are the only statement of each axiom: the proof checker cites them
(hotk.proofkit.schemes) and the model suites evaluate them
(hotk.models.axioms).  They live in the kernel so that the model layer can
build them without loading the proof checker.
"""

from __future__ import annotations

from hotk.errors import ProofError
from hotk.kernel import regimes as rg
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall, Formula,
                                Iff, Implies, Not, Raised, StrictEq, Sugar,
                                Var)


def type_raising(alpha: TypeIndex, beta: TypeIndex) -> Formula:
    """Every type-alpha entity has a type-beta copy (a lemma, not an axiom
    that proofs may cite)."""
    x, y = Var("x", alpha), Var("y", beta)
    return Forall(x, Exists(y, Sugar("eq", (x, y))))


def type_founded(alpha: TypeIndex, beta: TypeIndex) -> Formula:
    a = Var("a", alpha)
    b = Var("b", beta.succ())
    x = Var("x", beta)
    return Forall(a, Forall(b, Implies(
        Sugar("in", (a, b)), Exists(x, Sugar("eq", (a, x))))))


def type_base(alpha: TypeIndex) -> Formula:
    x = Var("x", fin(0))
    y = Var("y", alpha)
    return Forall(x, Forall(y, Not(Sugar("in", (y, x)))))


def type_ext(alpha: TypeIndex, beta: TypeIndex) -> Formula:
    if beta < alpha:
        raise ProofError("cross-type extensionality wants alpha <= beta")
    a = Var("a", alpha.succ())
    b = Var("b", beta.succ())
    xa = Var("x", alpha)
    xb = Var("x", beta)
    low = Forall(xa, Implies(Apply(a, xa), Apply(b, xa)))
    high = Forall(xb, Implies(
        Apply(b, xb),
        Sugar("bounded", ("some", Var("y", alpha), "eq", xb,
                          Apply(a, Var("y", alpha))))))
    return Forall(a, Forall(b, Implies(And(low, high), Sugar("eq", (a, b)))))


def type_purity() -> Formula:
    x, y = Var("x", fin(0)), Var("y", fin(0))
    return Forall(x, Forall(y, StrictEq(x, y)))


def up_inject(n: int) -> Formula:
    x, y = Var("x", fin(n)), Var("y", fin(n))
    return Forall(x, Forall(y, Implies(StrictEq(Raised(x), Raised(y)),
                                       StrictEq(x, y))))


def up_possess(n: int) -> Formula:
    x, y = Var("x", fin(n)), Var("y", fin(n + 1))
    return Forall(x, Forall(y, Iff(Apply(Raised(y), Raised(x)), Apply(y, x))))


def up_founded(n: int) -> Formula:
    x, y, z = Var("x", fin(n + 1)), Var("y", fin(n + 1)), Var("z", fin(n))
    return Forall(x, Forall(y, Implies(Apply(Raised(y), x),
                                       Exists(z, StrictEq(x, Raised(z))))))


def up_base() -> Formula:
    x, y = Var("x", fin(0)), Var("y", fin(0))
    return Forall(x, Forall(y, Not(Apply(Raised(y), x))))


def down_exists(n: int) -> Formula:
    if n < 1:
        raise ProofError("projection starts at type 2 over type 1")
    z, x = Var("z", fin(n + 1)), Var("x", fin(n))
    return Forall(z, Exists(x, DownRel(z, x)))


def down_sim(n: int) -> Formula:
    if n < 1:
        raise ProofError("projection starts at type 2 over type 1")
    z, x, y = Var("z", fin(n + 1)), Var("x", fin(n)), Var("y", fin(n))
    return Forall(z, Forall(x, Forall(y, Implies(
        And(DownRel(z, x), DownRel(z, y)),
        And(Sugar("coext", (x, y)), Sugar("downeq", (y, x)))))))


def down_max(n: int) -> Formula:
    if n < 1:
        raise ProofError("projection starts at type 2 over type 1")
    z, x, y = Var("z", fin(n + 1)), Var("x", fin(n)), Var("y", fin(n))
    return Forall(z, Forall(x, Forall(y, Implies(
        And(DownRel(z, x), And(Sugar("coext", (x, y)), Sugar("downeq", (y, x)))),
        DownRel(z, y)))))


# Each axiom a proof may cite: name -> (builder, the scheme-record
# parameters it takes, in order, and the kinds or overlay that assume it).
AXIOMS = {
    "type-founded": (type_founded, ("alpha", "beta"), rg.CTT_KINDS),
    "type-base": (type_base, ("alpha",), rg.CTT_KINDS),
    "type-ext": (type_ext, ("alpha", "beta"), ("pctt",)),
    "type-purity": (type_purity, (), ("pctt",)),
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
    return [name for name, (_, _, by) in AXIOMS.items()
            if theory.kind in by or theory.overlay in by]
