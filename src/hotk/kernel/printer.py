"""ASCII rendering of formulas; inverse of hotk.kernel.parser.

Precedence (loose to tight): quantifiers < "<->" < "->" < "|" < "&" < "~".
The binary connectives associate to the right; quantifier scope extends as
far right as possible.  The tokens are those of the notation tables in
hotk.kernel.syntax, inverted.
"""

from __future__ import annotations

from hotk.kernel.syntax import (CONNECTIVES, INFIX, PREFIX, Apply, Forall,
                                InSet, Not, Raised, Sugar, Term, parts)

_PREC = {node: level + 1 for level, (_, node) in enumerate(CONNECTIVES)}
_OPS = {node: token for token, node in CONNECTIVES}
_INFIX = {**{node: token for token, node in INFIX.items()}, InSet: "in"}
_PREFIX = {kind: name for name, kind in PREFIX.items()}


def print_term(t: Term) -> str:
    if type(t) is Raised:
        return f"up({print_term(t.inner)})"
    idx = t.index
    if idx is None:
        return t.name
    if idx.omega_coeff == 0:
        return f"{t.name}^{idx.finite_part}"
    return f"{t.name}^({idx})"


def _render(f, parent_prec: int) -> str:
    kind = f.kind if type(f) is Sugar else type(f)
    if kind is Not:
        return f"~{_render(f.body, 5)}"
    if kind in _PREC:
        prec = _PREC[kind]
        left = _render(f.left, prec + 1)   # right-assoc: left child binds tighter
        right = _render(f.right, prec)
        s = f"{left} {_OPS[kind]} {right}"
        return f"({s})" if prec < parent_prec else s
    terms, binder, bodies = parts(f)
    terms = list(map(print_term, terms))
    if kind in _INFIX:
        return f"{terms[0]} {_INFIX[kind]} {terms[1]}"
    if kind is Apply:
        return f"{terms[0]}({terms[1]})"
    if kind in _PREFIX:
        return f"{_PREFIX[kind]}({', '.join(terms)})"
    if kind == "coext_k":
        return f"{terms[0]} coext_{f.args[0]} {terms[1]}"
    if binder is None:
        raise TypeError(f"unknown sugar kind {kind!r}")
    if kind == "bounded":
        word, _, rel, _, _ = f.args
        head = f"{word} {print_term(binder)} {rel} {terms[0]}"
    else:
        head = f"{'all' if kind is Forall else 'some'} {print_term(binder)}"
    s = f"{head}. {_render(bodies[0], 0)}"
    return f"({s})" if parent_prec > 0 else s


def print_formula(f) -> str:
    return _render(f, 0)
