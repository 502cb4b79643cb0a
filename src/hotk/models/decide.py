"""Decision procedure for the pure extensional finitary theory.

With purity and extensionality surrogates, the type-n domain provably has
exactly h(n) entities, so every quantifier has a fixed finite range and
truth in the canonical model decides the sentence.
"""

from __future__ import annotations

from hotk.errors import EvalError, FormationError
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.formation import check_formation
from hotk.kernel.regimes import fjt
from hotk.kernel.syntax import (Formula, free_atoms, parts, subformulas,
                                term_index)
from hotk.models.builders import build_fjt_canonical
from hotk.models.core import DEFAULT_BUDGET, Model, _compile_slots


def max_finite_type(f: Formula) -> int:
    """Largest type index among the terms and binders of f's expansion: the
    height a model needs to evaluate f."""
    return _top_type(expand_abbreviations(f))


def _top_type(g: Formula) -> int:
    """max_finite_type of a formula that holds no sugar."""
    top = 0
    for h in subformulas(g):
        terms, binder, _ = parts(h)
        for t in terms if binder is None else (binder, *terms):
            idx = term_index(t)
            if idx is None or not idx.is_finite:
                raise FormationError("finitary sentences need finite typed terms")
            top = max(top, idx.finite_value)
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
    g = expand_abbreviations(f)
    need = _top_type(g)
    if need > height:
        raise EvalError(f"sentence uses type {need}, above height {height}")
    if model is None:
        model = build_fjt_canonical(height, budget)
    root, env, _ = _compile_slots(model, g, (), budget)
    return root(env)
