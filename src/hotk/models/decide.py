"""Decision procedure for the pure extensional finitary theory.

With purity and extensionality surrogates, the type-n domain provably has
exactly h(n) entities, so every quantifier has a fixed finite range and
truth in the canonical model decides the sentence.
"""

from __future__ import annotations

from typing import Tuple

from hotk.errors import DEFAULT_BUDGET, EvalError, FormationError
from hotk.kernel.expand import define
from hotk.kernel.formation import check_formation
from hotk.kernel.regimes import fjt
from hotk.kernel.syntax import (Formula, FreshNames, Sugar, Var, base_atom,
                                free_atoms, parts, term_index)
from hotk.models.builders import (FJT_HEIGHTS, build_fjt_canonical,
                                  check_fjt_height)
from hotk.models.core import Model, eval_formula

_OPEN = "decision procedure needs a closed sentence"
_FJT = fjt()


def top_type(g: Formula) -> Tuple[int, bool]:
    """(the height a model needs: the largest term or binder type of g with
    each defined symbol read as its definiens, whether every atom is bound),
    in one walk.  A sugar node is walked as define(node, fresh), from one
    FreshNames of g, which scans g only when the first sugar node asks.  The
    binders in scope are a tuple of (name, index) pairs, so no set is built
    per binder.  An untyped or transfinite index is reported after the
    walk, so an ill-formed sugar node met anywhere in it is reported
    first."""
    top, closed, typed, fresh = 0, True, True, FreshNames(g)
    stack = [(g, ())]
    while stack:
        h, bound = stack.pop()
        if type(h) is Sugar:
            stack.append((define(h, fresh), bound))
            continue
        terms, binder, bodies = parts(h)
        for t in terms:
            idx = term_index(t)
            if idx is None or idx.omega_coeff:
                typed = False
            elif idx.finite_part > top:
                top = idx.finite_part
            if closed:
                a = base_atom(t)
                closed = type(a) is Var and (a.name, a.index) in bound
        if binder is not None:
            idx = binder.index
            if idx is None or idx.omega_coeff:
                typed = False
            elif idx.finite_part > top:
                top = idx.finite_part
            bound = (*bound, (binder.name, idx))
        for b in bodies:
            stack.append((b, bound))
    if not typed:
        raise FormationError("finitary sentences need finite typed terms")
    return top, closed


def decide_fjt(f: Formula, height: int, budget: int = DEFAULT_BUDGET,
               model: Model = None) -> bool:
    """Truth of a closed finitary sentence in the canonical model of the
    given height, which decides the theory for sentences of bounded type.
    An open sentence is refused before any other fault is named."""
    verdict = check_formation(f, _FJT)
    if not verdict:
        if free_atoms(f):
            raise EvalError(_OPEN)
        raise FormationError(verdict.reason)
    # Under fjt, each definiens keeps every term and binds only fresh
    # variables, so top_type finds f closed exactly when it is.
    need, closed = top_type(f)
    if not closed:
        raise EvalError(_OPEN)
    if model is None and height < FJT_HEIGHTS[0]:
        check_fjt_height(height)    # no sentence fits: name the heights
    if need > height:
        raise EvalError(f"sentence uses type {need}, above height {height}")
    if model is None:
        model = build_fjt_canonical(height, budget)
    return eval_formula(model, f, budget=budget)
