"""Decision procedure for the pure extensional finitary theory.

With purity and extensionality surrogates, the type-n domain provably has
exactly h(n) entities, so every quantifier has a fixed finite range and
truth in the canonical model decides the sentence.
"""

from __future__ import annotations

from typing import Tuple

from hotk.errors import EvalError, FormationError
from hotk.kernel.expand import define
from hotk.kernel.formation import check_formation
from hotk.kernel.regimes import fjt
from hotk.kernel.syntax import (Formula, FreshNames, Sugar, Var, base_atom,
                                free_atoms, parts, term_index)
from hotk.models.builders import build_fjt_canonical
from hotk.models.core import DEFAULT_BUDGET, Model, eval_formula

_OPEN = "decision procedure needs a closed sentence"


def top_type(g: Formula) -> Tuple[int, bool]:
    """(the height a model needs: the largest term or binder type of g with
    each defined symbol read as its definiens, whether every atom is bound),
    in one walk.  A sugar node is walked as define(node, fresh), from one
    FreshNames of g, which scans g only when the first sugar node asks."""
    indices, closed, fresh = set(), True, FreshNames(g)
    stack = [(g, frozenset())]
    while stack:
        h, bound = stack.pop()
        if type(h) is Sugar:
            stack.append((define(h, fresh), bound))
            continue
        terms, binder, bodies = parts(h)
        for t in terms:
            indices.add(term_index(t))
            if closed:
                a = base_atom(t)
                closed = type(a) is Var and (a.name, a.index) in bound
        if binder is not None:
            indices.add(binder.index)
            bound = bound | {(binder.name, binder.index)}
        for b in bodies:
            stack.append((b, bound))
    top = 0
    for idx in indices:
        if idx is None or not idx.is_finite:
            raise FormationError("finitary sentences need finite typed terms")
        top = max(top, idx.finite_value)
    return top, closed


def decide_fjt(f: Formula, height: int, budget: int = DEFAULT_BUDGET,
               model: Model = None) -> bool:
    """Truth of a closed finitary sentence in the canonical model of the
    given height, which decides the theory for sentences of bounded type.
    An open sentence is refused before any other fault is named."""
    verdict = check_formation(f, fjt())
    if not verdict:
        if free_atoms(f):
            raise EvalError(_OPEN)
        raise FormationError(verdict.reason)
    # Under fjt, each definiens keeps every term and binds only fresh
    # variables, so top_type finds f closed exactly when it is.
    need, closed = top_type(f)
    if not closed:
        raise EvalError(_OPEN)
    if need > height:
        raise EvalError(f"sentence uses type {need}, above height {height}")
    if model is None:
        model = build_fjt_canonical(height, budget)
    return eval_formula(model, f, budget=budget)
