"""Reference tree-walking evaluators, kept as oracles for the compiled one.

`tree_eval_formula` walks a typed formula over a Model and
`tree_eval_set_formula` walks a set-language formula over a
MembershipGraph.  Both re-expand the formula on every call, dispatch on
node type, copy the environment for every binding and memoize quantifiers
by their free variables' values.  `tree_evaluator(m, f)` is
`tree_eval_formula(m, f, ·)` with f expanded once and the memo kept
across calls, for oracles that evaluate one formula at many assignments.  `hotk.models.eval_formula` must agree
with them on every input: the same truth value, or the same error class
and message.
"""

from typing import Dict, Optional, Tuple

from hotk.errors import EvalError
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall, Iff,
                                Implies, InSet, Not, Or, Raised, StrictEq,
                                free_atoms, term_index)
from hotk.models.core import akey


def _eval_term(m, t, env):
    if isinstance(t, Raised):
        inner = _eval_term(m, t.inner, env)
        n = term_index(t.inner)
        if n is None or not n.is_finite:
            raise EvalError(f"cannot raise a term of type {n}")
        if m.up_map is None:
            raise EvalError("model has no raising map")
        key = (n.finite_value, inner)
        if key not in m.up_map:
            raise EvalError(f"raising map undefined at type {n} for {inner}")
        return m.up_map[key]
    key = akey(t)
    if key not in env:
        raise EvalError(f"unassigned free term {t.name}^{t.index}")
    return env[key]


def tree_eval_formula(m, f, assignment: Optional[dict] = None) -> bool:
    return tree_evaluator(m, f)(assignment)


def tree_evaluator(m, f):
    f = expand_abbreviations(f, None)
    fv_cache: Dict[int, Tuple] = {}
    memo: Dict[Tuple, bool] = {}

    def fv_keys(g):
        got = fv_cache.get(id(g))
        if got is None:
            got = tuple(sorted((a.name, str(a.index)) for a in free_atoms(g)))
            fv_cache[id(g)] = got
        return got

    def go(g, env):
        if isinstance(g, Apply):
            return m.applies(_eval_term(m, g.head, env), _eval_term(m, g.arg, env))
        if isinstance(g, StrictEq):
            return _eval_term(m, g.left, env) == _eval_term(m, g.right, env)
        if isinstance(g, DownRel):
            if m.down_rel is None:
                raise EvalError("model has no projection relation")
            hi = term_index(g.left)
            if hi is None or not hi.is_finite:
                raise EvalError(f"bad projection type {hi}")
            return (hi.finite_value, _eval_term(m, g.left, env),
                    _eval_term(m, g.right, env)) in m.down_rel
        if isinstance(g, InSet):
            raise EvalError("untyped membership atom in a typed model")
        if isinstance(g, Not):
            return not go(g.body, env)
        if isinstance(g, And):
            return go(g.left, env) and go(g.right, env)
        if isinstance(g, Or):
            return go(g.left, env) or go(g.right, env)
        if isinstance(g, Implies):
            return (not go(g.left, env)) or go(g.right, env)
        if isinstance(g, Iff):
            return go(g.left, env) == go(g.right, env)
        if isinstance(g, (Forall, Exists)):
            free = set(fv_keys(g))
            key = (id(g), tuple(sorted((k[0], str(k[1]), v)
                                       for k, v in env.items()
                                       if (k[0], str(k[1])) in free)))
            got = memo.get(key)
            if got is not None:
                return got
            if g.var.index is None:
                raise EvalError("untyped quantifier in a typed model")
            dom = m.domain(g.var.index)
            vkey = akey(g.var)
            is_all = isinstance(g, Forall)
            result = is_all
            for e in dom:
                env2 = dict(env)
                env2[vkey] = e
                val = go(g.body, env2)
                if is_all and not val:
                    result = False
                    break
                if not is_all and val:
                    result = True
                    break
            memo[key] = result
            return result
        raise EvalError(f"cannot evaluate node {g!r}")

    return lambda assignment=None: go(f, dict(assignment) if assignment else {})


def tree_eval_set_formula(g, f, env: Optional[dict] = None) -> bool:
    f = expand_abbreviations(f, None)
    env = dict(env) if env else {}
    memo: Dict[Tuple, bool] = {}
    fv_cache: Dict[int, frozenset] = {}

    def fv(node):
        got = fv_cache.get(id(node))
        if got is None:
            got = frozenset(a.name for a in free_atoms(node))
            fv_cache[id(node)] = got
        return got

    def term(t, env):
        if t.name not in env:
            raise EvalError(f"unassigned set variable {t.name}")
        return env[t.name]

    def go(h, env):
        if isinstance(h, InSet):
            return term(h.left, env) in g.members(term(h.right, env))
        if isinstance(h, StrictEq):
            return term(h.left, env) == term(h.right, env)
        if isinstance(h, Not):
            return not go(h.body, env)
        if isinstance(h, And):
            return go(h.left, env) and go(h.right, env)
        if isinstance(h, Or):
            return go(h.left, env) or go(h.right, env)
        if isinstance(h, Implies):
            return (not go(h.left, env)) or go(h.right, env)
        if isinstance(h, Iff):
            return go(h.left, env) == go(h.right, env)
        if isinstance(h, (Forall, Exists)):
            free = fv(h)
            key = (id(h), tuple(sorted((k, v) for k, v in env.items() if k in free)))
            got = memo.get(key)
            if got is not None:
                return got
            is_all = isinstance(h, Forall)
            result = is_all
            for e in g.nodes:
                env2 = dict(env)
                env2[h.var.name] = e
                val = go(h.body, env2)
                if is_all and not val:
                    result = False
                    break
                if not is_all and val:
                    result = True
                    break
            memo[key] = result
            return result
        raise EvalError(f"cannot evaluate set formula node {print_formula(h)}")

    return go(f, {k if isinstance(k, str) else k[0]: v for k, v in env.items()})
