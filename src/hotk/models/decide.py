"""Decision procedure for the pure extensional finitary theory.

With purity and extensionality surrogates, the type-n domain provably has
exactly h(n) entities, so every quantifier has a fixed finite range and
truth in the canonical model decides the sentence.
"""

from __future__ import annotations

from hotk.errors import EvalError, FormationError
from hotk.kernel.formation import check_formation
from hotk.kernel.regimes import fjt
from hotk.kernel.syntax import Formula, free_atoms
from hotk.models.builders import build_fjt_canonical
from hotk.models.core import DEFAULT_BUDGET, Model, eval_formula


def max_finite_type(f: Formula) -> int:
    """Largest type index occurring in f (terms and binders)."""
    from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall, Iff,
                                    Implies, InSet, Not, Or, Raised, StrictEq,
                                    Sugar, term_index)
    top = 0

    def tm(t):
        nonlocal top
        idx = term_index(t)
        if idx is None or not idx.is_finite:
            raise FormationError("finitary sentences need finite typed terms")
        top = max(top, idx.finite_value)

    def go(g):
        nonlocal top
        if isinstance(g, Apply):
            tm(g.head), tm(g.arg)
        elif isinstance(g, (StrictEq, DownRel, InSet)):
            tm(g.left), tm(g.right)
        elif isinstance(g, Not):
            go(g.body)
        elif isinstance(g, (And, Or, Implies, Iff)):
            go(g.left), go(g.right)
        elif isinstance(g, (Forall, Exists)):
            tm(g.var), go(g.body)
        elif isinstance(g, Sugar):
            if g.kind == "bounded":
                quant, var, rel, bound, body = g.args
                tm(var), tm(bound), go(body)
                if rel in ("eq", "in"):
                    bump = 1 if rel == "eq" else 2
                    guard_top = max(term_index(var).finite_value,
                                    term_index(bound).finite_value) + bump
                    top = max(top, guard_top)
            else:
                for a in g.args:
                    if isinstance(a, int):
                        continue
                    if hasattr(a, "name") or isinstance(a, Raised):
                        tm(a)
                    else:
                        go(a)
            if g.kind in ("eq", "in"):
                bump = 1 if g.kind == "eq" else 2
                top = max(top, max(term_index(g.args[0]).finite_value,
                                   term_index(g.args[1]).finite_value) + bump)
        else:
            raise FormationError(f"unknown node {g!r}")

    go(f)
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
