"""Axiom-scheme instantiation for every theory the checker supports."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from hotk.errors import ProofError
from hotk.kernel.indices import TypeIndex, fin, parse_index
from hotk.kernel.parser import parse_formula, parse_term
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall,
                                Formula, Iff, Implies, Not, Raised, StrictEq,
                                Sugar, Term, Var, conj, occurs_free,
                                term_index)


def _check_witness_absent(phi: Formula, witness: Var) -> None:
    if occurs_free(witness, phi):
        raise ProofError(
            f"comprehension witness {witness.name}^{witness.index} occurs in the matrix")


def comprehension(phi: Formula, level: TypeIndex, var: str = "x",
                  witness: str = "z") -> Formula:
    """One level of plain comprehension: some z^(a+1) holds of exactly the
    type-a satisfiers of phi.  Serves the standard, raised and cumulative
    theories alike."""
    x = Var(var, level)
    z = Var(witness, level.succ())
    _check_witness_absent(phi, z)
    return Exists(z, Forall(x, Iff(Apply(z, x), phi)))


def fjt_comprehension(phis: Sequence[Formula], n: int, var: str = "x",
                      witness: str = "z") -> Formula:
    """The finitary scheme: one matrix per lower type, conjoined."""
    if n < 1 or len(phis) != n:
        raise ProofError(f"need one matrix per type below {n}")
    z = Var(witness, fin(n))
    conjuncts = []
    for i in range(n - 1, -1, -1):
        phi = phis[i]
        _check_witness_absent(phi, z)
        x = Var(var, fin(i))
        conjuncts.append(Forall(x, Iff(Apply(z, x), phi)))
    return Exists(z, conj(conjuncts))


def sttd_comprehension(phi: Formula, n: int, var: str = "x", witness: str = "z",
                       anchor: str = "y") -> Formula:
    """Augmented comprehension: the witness additionally projects down to
    any given type-n anchor."""
    if n < 1:
        raise ProofError("augmented comprehension starts at type 1")
    x = Var(var, fin(n))
    z = Var(witness, fin(n + 1))
    y = Var(anchor, fin(n))
    _check_witness_absent(phi, z)
    return Forall(y, Exists(z, And(DownRel(z, y),
                                   Forall(x, Iff(Apply(z, x), phi)))))


def identity_scheme(left: Term, right: Term, witness: str = "z") -> Formula:
    n = term_index(left)
    if n != term_index(right) or n is None:
        raise ProofError("identity scheme takes two terms of one type")
    z = Var(witness, n.succ())
    return Iff(StrictEq(left, right),
               Forall(z, Iff(Apply(z, left), Apply(z, right))))


# -- theory axioms ----------------------------------------------------------

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


_AXIOMS = {
    "type-founded": (type_founded, ("alpha", "beta")),
    "type-base": (type_base, ("alpha",)),
    "type-ext": (type_ext, ("alpha", "beta")),
    "type-purity": (type_purity, ()),
    "up-inject": (up_inject, ("n",)),
    "up-possess": (up_possess, ("n",)),
    "up-founded": (up_founded, ("n",)),
    "up-base": (up_base, ()),
    "down-exists": (down_exists, ("n",)),
    "down-sim": (down_sim, ("n",)),
    "down-max": (down_max, ("n",)),
}

AXIOM_AVAILABILITY = {
    "type-founded": ("ctt", "ctt_liberal"),
    "type-base": ("ctt", "ctt_liberal"),
    "type-ext": ("pctt",),
    "type-purity": ("pctt",),
    "up-inject": ("stt_up",),
    "up-possess": ("stt_up",),
    "up-founded": ("stt_up",),
    "up-base": ("stt_up",),
    "down-exists": ("stt_down",),
    "down-sim": ("stt_down",),
    "down-max": ("stt_down",),
}


def _index_arg(value) -> TypeIndex:
    if isinstance(value, TypeIndex):
        return value
    if isinstance(value, int):
        return fin(value)
    return parse_index(str(value))


def axiom_instance(name: str, params: Optional[Dict] = None) -> Formula:
    """Instantiate a named scheme from a parameter record (CLI/proof files).

    Comprehension schemes take their matrices as formula strings; theory
    axioms take type indices.
    """
    params = dict(params or {})
    if name in ("comprehension", "stt-comprehension", "ctt-comprehension"):
        phi = params["phi"]
        if isinstance(phi, str):
            phi = parse_formula(phi)
        return comprehension(phi, _index_arg(params.get("type", 0)),
                             var=params.get("var", "x"),
                             witness=params.get("witness", "z"))
    if name == "fjt-comprehension":
        phis = [parse_formula(p) if isinstance(p, str) else p
                for p in params["phis"]]
        return fjt_comprehension(phis, int(params["n"]),
                                 var=params.get("var", "x"),
                                 witness=params.get("witness", "z"))
    if name == "sttd-comprehension":
        phi = params["phi"]
        if isinstance(phi, str):
            phi = parse_formula(phi)
        return sttd_comprehension(phi, int(params["n"]),
                                  var=params.get("var", "x"),
                                  witness=params.get("witness", "z"),
                                  anchor=params.get("anchor", "y"))
    if name == "identity":
        left = parse_term(params["left"]) if isinstance(params["left"], str) else params["left"]
        right = parse_term(params["right"]) if isinstance(params["right"], str) else params["right"]
        return identity_scheme(left, right, witness=params.get("witness", "z"))
    if name in _AXIOMS:
        fn, argnames = _AXIOMS[name]
        try:
            args = [_index_arg(params[a]) if a != "n" else int(params[a])
                    for a in argnames]
        except KeyError as e:
            raise ProofError(f"axiom {name} needs parameter {e.args[0]!r}") from e
        return fn(*args)
    raise ProofError(f"unknown scheme {name!r}")
