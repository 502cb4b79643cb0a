"""Domain-of-quantification formulas: unrestrictedness and Russellianness.

Each generator returns the definition's right-hand side with the candidate
domain free as the constant d^n, ready for evaluation against a model
entity.
"""

from __future__ import annotations

from hotk.errors import FormationError
from hotk.kernel.indices import fin
from hotk.kernel.syntax import (And, Apply, Const, Exists, Forall, Formula,
                                Implies, Not, Or, Sugar, Var, conj)

UNRESTRICTED_STT = "unrestricted-stt"
M_RUSSELLIAN = "m-russellian"
M_RUSSELLIAN_STAR = "m-russellian-star"
M_UNRESTRICTED = "m-unrestricted"

KINDS = (UNRESTRICTED_STT, M_RUSSELLIAN, M_RUSSELLIAN_STAR, M_UNRESTRICTED)


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
