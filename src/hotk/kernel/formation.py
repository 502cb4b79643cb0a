"""Formation checking for all six regimes.

Application gaps are the heart of it: standard regimes demand head type =
argument type + 1, the cumulative formation rules demand head > argument
(stringent) or nothing at all (liberal).  Sugar nodes are checked against
their own side-conditions before any expansion happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

from hotk.kernel import regimes as rg
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.printer import print_formula, print_term
from hotk.kernel.syntax import (Apply, DownRel, Formula, InSet, Raised,
                                StrictEq, Sugar, Term, parts, term_index)


@dataclass(frozen=True)
class FormationVerdict:
    """ok, and for an ill-formed formula the reason and the offending node
    (a formula or a term), which offender prints."""
    ok: bool
    reason: Optional[str] = None
    node: Union[Formula, Term, None] = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def offender(self) -> Optional[str]:
        if self.node is None:
            return None
        try:
            return print_formula(self.node)
        except TypeError:
            return print_term(self.node)


WELL_FORMED = FormationVerdict(True)
_bad = partial(FormationVerdict, False)     # (reason, node) -> ill-formed

_ZERO = fin(0)

# The kinds whose application heads must lie above their arguments.
_HEAD_ABOVE = frozenset({rg.CTT_STRINGENT, rg.FJT})


def _is_succ(a: TypeIndex, b: TypeIndex) -> bool:
    """a == b.succ(), without building b.succ()."""
    return a.omega_coeff == b.omega_coeff and a.finite_part == b.finite_part + 1


def _check_term(t: Term, regime: rg.Regime) -> Optional[FormationVerdict]:
    if type(t) is Raised:
        if regime.kind != rg.STT_UP:
            return _bad("up(...) terms exist only in the raised-type theory", t)
        return _check_term(t.inner, regime)
    idx = t.index
    if idx is None:
        return _bad("untyped term in a typed regime", t)
    if not regime.admits_index(idx):
        if regime.kind in rg.FINITE_KINDS:
            return _bad(f"transfinite index {idx} in a finite-type theory", t)
        return _bad(f"index {idx} is not below the bound {regime.bound}", t)
    return None


def _apply_gap_ok(head: TypeIndex, arg: TypeIndex, regime: rg.Regime) -> Optional[str]:
    kind = regime.kind
    if kind in rg.STANDARD_KINDS:
        if not _is_succ(head, arg):
            gap = "transfinite" if not (head.is_finite and arg.is_finite) \
                else str(head.finite_value - arg.finite_value)
            return f"application gap {gap} != 1 (head {head} over argument {arg})"
        return None
    if kind in _HEAD_ABOVE:
        if not head > arg:
            return f"head type {head} not above argument type {arg}"
        return None
    return None   # liberal: any pair


def _projection_violation(a: TypeIndex, b: TypeIndex) -> Optional[str]:
    """Why a projection from type a down to type b is ill-formed, or None."""
    if b == _ZERO:
        return "no projection constant reaches type 0"
    if not _is_succ(a, b):
        return f"projection relates type n+1 to type n, got {a} over {b}"
    return None


def sugar_violation(f: Sugar, regime: rg.Regime) -> Optional[str]:
    """Side-condition of a sugar node in the regime; None when satisfied."""
    k = f.kind
    if k in ("eq", "in"):
        a, b = (term_index(f.args[0]), term_index(f.args[1]))
        gamma = max(a, b).succ()
        if regime.kind in rg.STANDARD_KINDS:
            if k == "in":
                return "defined membership is not available in standard-type regimes"
            if a != b:
                return f"defined identity needs equal types in this regime ({a} vs {b})"
            return None
        need = gamma if k == "eq" else gamma.succ()
        if regime.is_ctt and not regime.admits_index(need):
            return f"expansion needs type {need}, not below bound {regime.bound}"
        return None
    if k == "coext":
        a, b = (term_index(f.args[0]), term_index(f.args[1]))
        if a != b:
            return f"coextensiveness needs equal types ({a} vs {b})"
        if a == _ZERO:
            return "coextensiveness undefined at type 0"
        if a.is_limit:
            return f"coextensiveness undefined at limit type {a}"
        return None
    if k == "coext_k":
        n, l, r = f.args
        if regime.kind not in rg.CUMULATIVE_KINDS:
            return "bounded coextensiveness lives in the cumulative-formation regimes"
        a, b = term_index(l), term_index(r)
        low = min((a, b))
        if n < 1 or fin(n) > low:
            return f"bound {n} must satisfy 1 <= {n} <= min({a}, {b})"
        return None
    if k == "downeq":
        if regime.kind != rg.STT_DOWN:
            return "downward-projection equivalence needs the projection theory"
        a, b = (term_index(f.args[0]), term_index(f.args[1]))
        if a != b or a == _ZERO:
            return f"projection equivalence needs equal types >= 1 ({a} vs {b})"
        if a.is_limit:
            return f"projection equivalence undefined at limit type {a}"
        return None
    if k == "bounded":
        quant, var, rel, bound, body = f.args
        if rel == "dn":
            if regime.kind != rg.STT_DOWN:
                return "dn-bounded quantifier needs the projection theory"
            return _projection_violation(term_index(var), term_index(bound))
        return sugar_violation(Sugar(rel, (var, bound)), regime)
    if k in ("subset", "level", "history", "rank"):
        idxs = [term_index(a) for a in f.args]
        if any(i is None for i in idxs):
            return None   # untyped set language: always fine
        if len(set(idxs)) != 1:
            return f"set-theoretic sugar needs one common type, got {idxs}"
        if regime.kind in rg.STANDARD_KINDS:
            return "set-theoretic sugar expands through defined membership, unavailable here"
        kappa = idxs[0]
        if regime.is_ctt and not regime.admits_index(kappa.plus(2)):
            return f"expansion needs type {kappa.plus(2)}, not below bound {regime.bound}"
        return None
    raise TypeError(f"unknown sugar kind {k!r}")


def _check_node(g: Formula, terms, binder, regime: rg.Regime) -> Optional[FormationVerdict]:
    """The verdict on one node's own terms and side-condition, None when
    they pass (its subformulas are checked separately)."""
    kind = type(g)
    if kind is InSet:
        return _bad("untyped membership atom in a typed regime", g)
    if kind is DownRel and regime.kind != rg.STT_DOWN:
        return _bad("dn atoms exist only in the projection theory", g)
    if binder is not None:
        v = _check_term(binder, regime)
        if v is not None:
            return v
    for t in terms:
        v = _check_term(t, regime)
        if v is not None:
            return v
    if kind is Apply:
        err = _apply_gap_ok(term_index(g.head), term_index(g.arg), regime)
    elif kind is StrictEq:
        a, b = term_index(g.left), term_index(g.right)
        err = f"strict identity needs equal types ({a} vs {b})" if a != b else None
    elif kind is DownRel:
        err = _projection_violation(term_index(g.left), term_index(g.right))
    elif kind is Sugar:
        err = sugar_violation(g, regime)
    else:
        return None
    return _bad(err, g) if err else None


def check_formation(f: Formula, regime: rg.Regime) -> FormationVerdict:
    """Verdict on f under the regime, locating the offending subformula
    (the first in pre-order)."""
    stack = [f]
    while stack:
        g = stack.pop()
        terms, binder, bodies = parts(g)
        if terms or binder is not None:     # connectives have nothing of their own
            v = _check_node(g, terms, binder, regime)
            if v is not None:
                return v
        if bodies:
            stack += bodies[::-1]
    return WELL_FORMED
