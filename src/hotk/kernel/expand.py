"""Expansion of every defined symbol into primitive notation.

Typed sugars bottom out in Apply/StrictEq/DownRel; the set-theoretic
macros of the untyped language bottom out in primitive membership.  The
defined identity at types (a, b) quantifies at max(a, b)+1, and defined
membership nests a second quantifier one higher, so expansion is where the
"+2 below the bound" requirement comes from.
"""

from __future__ import annotations

from operator import is_not
from typing import Optional

from hotk.errors import FormationError
from hotk.kernel import regimes as rg
from hotk.kernel.formation import sugar_violation
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import (ATOMS, And, Apply, DownRel, Exists, Forall,
                                FreshNames, Formula, Iff, Implies, InSet, Not,
                                StrictEq, Sugar, Term, conj, parts, rebuild,
                                term_index)


def _member(left: Term, right: Term) -> Formula:
    """Ambient membership: defined membership when typed, primitive when not."""
    if term_index(left) is None:
        return InSet(left, right)
    return Sugar("in", (left, right))


def _below(f: Sugar, n: TypeIndex) -> TypeIndex:
    """The type below n that coext or downeq f binds; none below type 0 or
    a limit type."""
    if n.finite_part == 0:
        reason = sugar_violation(f, rg.stt_down())
        raise FormationError(f"{reason} in {print_formula(f)}")
    return n.pred()


def define(f: Sugar, fresh: FreshNames) -> Formula:
    """The definiens of the sugar node f, its new variables drawn from
    fresh; sugar inside f or in the definiens is left as it is."""
    k = f.kind
    if k == "eq":
        l, r = f.args
        gamma = max(term_index(l), term_index(r)).succ()
        x = fresh.var(gamma)
        return Forall(x, Iff(Apply(x, l), Apply(x, r)))
    if k == "in":
        l, r = f.args
        gamma = max(term_index(l), term_index(r)).succ()
        x = fresh.var(gamma)
        return Exists(x, And(Sugar("eq", (x, r)), Apply(x, l)))
    if k == "coext":
        l, r = f.args
        x = fresh.var(_below(f, term_index(l)))
        return Forall(x, Iff(Apply(l, x), Apply(r, x)))
    if k == "coext_k":
        n, l, r = f.args
        if n < 1:       # an empty conjunction
            raise FormationError(f"{sugar_violation(f, rg.fjt())} in {print_formula(f)}")
        xs = (fresh.var(fin(i)) for i in range(n - 1, -1, -1))
        return conj(Forall(x, Iff(Apply(l, x), Apply(r, x))) for x in xs)
    if k == "downeq":
        l, r = f.args
        n = term_index(l)
        if n == fin(1):
            return StrictEq(l, l)   # stipulated vacuous truth at type 1
        x = fresh.var(_below(f, n))
        return Forall(x, Iff(DownRel(l, x), DownRel(r, x)))
    if k == "bounded":
        quant, var, rel, bound, body = f.args
        if rel == "eq":
            atom: Formula = Sugar("eq", (var, bound))
        elif rel == "in":
            atom = _member(var, bound)
        else:
            atom = DownRel(var, bound)
        if quant == "all":
            return Forall(var, Implies(atom, body))
        return Exists(var, And(atom, body))
    if k == "subset":
        l, r = f.args
        v = fresh.var(term_index(l))
        return Forall(v, Implies(_member(v, l), _member(v, r)))
    if k == "history":
        (h,) = f.args
        idx = term_index(h)
        a, x, c = fresh.var(idx), fresh.var(idx), fresh.var(idx)
        inner = Exists(c, And(_member(c, h),
                              And(Sugar("subset", (x, c)), _member(c, a))))
        return Forall(a, Implies(_member(a, h),
                                 Forall(x, Iff(_member(x, a), inner))))
    if k == "level":
        (s,) = f.args
        idx = term_index(s)
        h, x, c = fresh.var(idx), fresh.var(idx), fresh.var(idx)
        body = Forall(x, Iff(_member(x, s),
                             Exists(c, And(Sugar("subset", (x, c)), _member(c, h)))))
        return Exists(h, And(Sugar("history", (h,)), body))
    if k == "rank":
        a, s = f.args
        idx = term_index(s)
        r = fresh.var(idx)
        least = Forall(r, Implies(_member(r, s),
                                  Implies(Sugar("level", (r,)),
                                          Not(Sugar("subset", (a, r))))))
        return And(Sugar("level", (s,)),
                   And(Sugar("subset", (a, s)), least))
    raise TypeError(f"unknown sugar kind {k!r}")


def expand_abbreviations(f: Formula, regime: Optional[rg.Regime] = None) -> Formula:
    """Eliminate sugar nodes, innermost first; a node that holds no sugar
    is returned as it is, not rebuilt.

    With a regime, each sugar's side-condition is enforced before it is
    rewritten; regime=None expands permissively (model evaluation uses
    this, since bundled models answer liberal queries anyway).
    """
    fresh = FreshNames(f)

    def go(g: Formula) -> Formula:
        if type(g) in ATOMS:
            return g
        sugar = type(g) is Sugar
        if sugar and regime is not None:
            err = sugar_violation(g, regime)
            if err:
                raise FormationError(err)
        terms, binder, bodies = parts(g)
        new = []
        for b in bodies:
            new.append(b if type(b) in ATOMS else go(b))
        if any(map(is_not, new, bodies)):
            g = rebuild(g, terms, binder, new)
        return go(define(g, fresh)) if sugar else g

    return go(f)
