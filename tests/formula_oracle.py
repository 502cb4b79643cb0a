"""Hand-built fixed formulas, kept as an oracle for the notation.

These are the builders hotk.kernel.axioms, hotk.models.domains and
hotk.settheory used before each fixed formula was written as one
parse_formula call on its notation: every axiom scheme, domain definition
and set axiom is assembled here node by node, with the bounded-quantifier
Sugar layouts spelled out.  tests/test_formula_oracle.py checks that the
module's formulas are == to these over a grid of arguments.
"""

from __future__ import annotations

from hotk.errors import FormationError, ProofError
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.syntax import (And, Apply, Const, DownRel, Exists, Forall,
                                Formula, Iff, Implies, InSet, Not, Or, Raised,
                                StrictEq, Sugar, Var, conj)
from hotk.models.domains import (M_RUSSELLIAN, M_RUSSELLIAN_STAR,
                                 M_UNRESTRICTED, UNRESTRICTED_STT)


# ---------------------------------------------------------------------------
# The theory axioms (hotk.kernel.axioms).

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


# ---------------------------------------------------------------------------
# The domain definitions (hotk.models.domains).

def domain_const(n: int) -> Const:
    return Const("d", fin(n))


def _disj(parts):
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def gen_domain_formula(kind: str, n: int, m: int = 1) -> Formula:
    """Build the chosen definition at domain type n (and predicate type m)."""
    if n < 1 or m < 1:
        raise FormationError("domain formulas need types >= 1")
    d = domain_const(n)

    if kind == UNRESTRICTED_STT:
        y = Var("y", fin(n))
        x = Var("x", fin(n - 1))
        return Forall(y, Implies(
            Forall(x, Implies(Apply(d, x), Apply(y, x))),
            Forall(x, Apply(y, x))))

    if kind == M_UNRESTRICTED:
        y = Var("y", fin(m))
        hyp = conj([Forall(Var("x", fin(i)),
                            Implies(Apply(d, Var("x", fin(i))),
                                    Apply(y, Var("x", fin(i)))))
                     for i in range(min(m, n) - 1, -1, -1)])
        conc = conj([Forall(Var("x", fin(i)), Apply(y, Var("x", fin(i))))
                      for i in range(m - 1, -1, -1)])
        return Forall(y, Implies(hyp, conc))

    if kind == M_RUSSELLIAN:
        covers = []
        for k in range(m - 1, -1, -1):
            y = Var("y", fin(k))
            disj = _disj([Sugar("bounded",
                                ("some", Var("x", fin(i)), "eq", y,
                                 Apply(d, Var("x", fin(i)))))
                          for i in range(n - 1, -1, -1)])
            covers.append(Forall(y, disj))
        only = []
        for i in range(n - 1, -1, -1):
            x = Var("x", fin(i))
            disj = _disj([Exists(Var("y", fin(k)),
                                 Sugar("eq", (x, Var("y", fin(k)))))
                          for k in range(m - 1, -1, -1)])
            only.append(Forall(x, Implies(Apply(d, x), disj)))
        return And(conj(covers), conj(only))

    if kind == M_RUSSELLIAN_STAR:
        if n < m:
            raise FormationError(
                "the starred form is ill-formed (rather than false) when n < m")
        have = conj([Forall(Var("y", fin(k)), Apply(d, Var("y", fin(k))))
                      for k in range(m - 1, -1, -1)])
        if m == n:
            return have
        lack = conj([Forall(Var("y", fin(k)), Not(Apply(d, Var("y", fin(k)))))
                      for k in range(n - 1, m - 1, -1)])
        return And(have, lack)

    raise FormationError(f"unknown domain-formula kind {kind!r}")


# ---------------------------------------------------------------------------
# The set axioms (hotk.settheory).

def _v(name: str) -> Var:
    return Var(name, None)


def extensionality_formula() -> Formula:
    a, b, x = _v("a"), _v("b"), _v("x")
    return Forall(a, Forall(b, Implies(
        Forall(x, Iff(InSet(x, a), InSet(x, b))), StrictEq(a, b))))


def stratification_formula() -> Formula:
    a, s = _v("a"), _v("s")
    return Forall(a, Exists(s, And(Sugar("subset", (a, s)), Sugar("level", (s,)))))


def endless_formula() -> Formula:
    a, b = _v("a"), _v("b")
    return Forall(a, Exists(b, InSet(a, b)))


def infinity_formula() -> Formula:
    a, x, y = _v("a"), _v("x"), _v("y")
    return Exists(a, And(
        Exists(x, InSet(x, a)),
        Forall(x, Implies(InSet(x, a),
                          Exists(y, And(InSet(x, y), InSet(y, a)))))))
