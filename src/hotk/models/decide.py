"""Decision procedure for the pure extensional finitary theory.

With purity and extensionality surrogates, the type-n domain provably has
exactly h(n) entities, so every quantifier has a fixed finite range and
truth in the canonical model decides the sentence.
"""

from __future__ import annotations

from hotk.errors import EvalError, FormationError
from hotk.kernel.formation import check_formation
from hotk.kernel.regimes import fjt
from hotk.kernel.syntax import Formula, Sugar, free_atoms, parts, term_index
from hotk.models.builders import build_fjt_canonical
from hotk.models.core import DEFAULT_BUDGET, Model, eval_formula


def max_finite_type(f: Formula) -> int:
    """Largest type index occurring in f (terms and binders), counting the
    type that a defined identity or membership (bounded or not) quantifies
    at once expanded."""
    top = 0
    stack = [f]
    while stack:
        g = stack.pop()
        terms, binder, bodies = parts(g)
        node_top = 0
        for t in terms if binder is None else (binder, *terms):
            idx = term_index(t)
            if idx is None or not idx.is_finite:
                raise FormationError("finitary sentences need finite typed terms")
            node_top = max(node_top, idx.finite_value)
        if type(g) is Sugar:
            rel = g.args[2] if g.kind == "bounded" else g.kind
            node_top += {"eq": 1, "in": 2}.get(rel, 0)
        top = max(top, node_top)
        stack.extend(bodies)
    return top


def decide_fjt(f: Formula, height: int, budget: int = DEFAULT_BUDGET,
               model: Model = None) -> bool:
    """Truth of a closed finitary sentence in the canonical model of the
    given height, which decides the theory for sentences of bounded type."""
    if free_atoms(f):
        raise EvalError("decision procedure needs a closed sentence")
    verdict = check_formation(f, fjt())
    if not verdict:
        raise FormationError(verdict.reason)
    need = max_finite_type(f)
    if need > height:
        raise EvalError(f"sentence uses type {need}, above height {height}")
    if model is None:
        model = build_fjt_canonical(height, budget)
    return eval_formula(model, f, budget=budget)
