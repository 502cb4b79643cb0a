"""Seeded random formula generators and an independent grounding evaluator.

The oracle interprets defined symbols directly (loops over domains) rather
than expanding them, so it shares no code path with the kernel's
expand-then-evaluate pipeline.
"""

import random
from itertools import product

from hotk.kernel import regimes as rg
from hotk.kernel.indices import fin
from hotk.kernel.syntax import (And, Apply, Const, DownRel, Exists, Forall,
                                Iff, Implies, Not, Or, StrictEq, Sugar, Var,
                                term_index)
from hotk.models.core import akey

CONNECTIVES = (And, Or, Implies, Iff)


class FormulaGen:
    """Well-formed formula generator for one source regime."""

    def __init__(self, regime: rg.Regime, seed: int, max_type: int = 2,
                 max_depth: int = 3, max_free: int = 2):
        self.regime = regime
        self.rng = random.Random(seed)
        self.max_type = max_type
        self.max_depth = max_depth
        self.max_free = max_free

    def formula(self):
        self.free_budget = self.max_free
        return self._formula([], self.max_depth)

    def sentence(self):
        self.free_budget = 0
        scope = [Var(f"s{n}", fin(n)) for n in range(self.max_type + 1)]
        f = self._formula(scope, self.max_depth - 1)
        for v in reversed(scope):
            quant = Forall if self.rng.random() < 0.5 else Exists
            f = quant(v, f)
        return f

    def _formula(self, scope, depth):
        r = self.rng.random()
        if depth == 0 or r < 0.35:
            return self._atom(scope)
        if r < 0.5:
            return Not(self._formula(scope, depth - 1))
        if r < 0.8:
            conn = self.rng.choice(CONNECTIVES)
            return conn(self._formula(scope, depth - 1),
                        self._formula(scope, depth - 1))
        n = self.rng.randint(0, self.max_type)
        v = Var(f"q{len(scope)}_{n}", fin(n))
        quant = Forall if self.rng.random() < 0.5 else Exists
        return quant(v, self._formula(scope + [v], depth - 1))

    def _term(self, scope, n):
        candidates = [v for v in scope if v.index == fin(n)]
        if candidates and self.rng.random() < 0.7:
            return self.rng.choice(candidates)
        if self.free_budget > 0:
            self.free_budget -= 1
            return Const(self.rng.choice("abc"), fin(n))
        if candidates:
            return self.rng.choice(candidates)
        return Const(self.rng.choice("abc"), fin(n))

    def _atom(self, scope):
        kind = self.regime.kind
        r = self.rng.random()
        if self.max_type == 0:      # no type to apply a term of
            return StrictEq(self._term(scope, 0), self._term(scope, 0))
        if kind in (rg.CTT_STRINGENT, rg.FJT):
            if r < 0.75:
                n = self.rng.randint(1, self.max_type)
                m = self.rng.randint(0, n - 1)
                return Apply(self._term(scope, n), self._term(scope, m))
            if r < 0.9 and kind == rg.FJT:
                i = self.rng.randint(0, 1)
                j = self.rng.randint(0, 1)
                if max(i, j) + 1 <= self.max_type:
                    return Sugar("eq", (self._term(scope, i), self._term(scope, j)))
            n = self.rng.randint(0, self.max_type)
            return StrictEq(self._term(scope, n), self._term(scope, n))
        if kind == rg.STT_UP:
            if r < 0.75:
                n = self.rng.randint(1, self.max_type)
                m = self.rng.randint(0, n - 1)
                arg = self._term(scope, m)
                from hotk.kernel.syntax import raise_term
                return Apply(self._term(scope, n), raise_term(arg, n - 1 - m))
            n = self.rng.randint(0, self.max_type)
            return StrictEq(self._term(scope, n), self._term(scope, n))
        if kind == rg.STT_DOWN:
            if r < 0.5:
                n = self.rng.randint(1, self.max_type)
                return Apply(self._term(scope, n), self._term(scope, n - 1))
            if r < 0.85 and self.max_type >= 2:
                n = self.rng.randint(1, self.max_type - 1)
                return DownRel(self._term(scope, n + 1), self._term(scope, n))
            n = self.rng.randint(0, self.max_type)
            return StrictEq(self._term(scope, n), self._term(scope, n))
        raise ValueError(f"no generator for regime {self.regime}")


def oracle_eval(m, f, env):
    """Direct-semantics evaluation: defined symbols interpreted by loops
    over domains, never by formula expansion."""

    def dom(n):
        return m.domain(fin(n))

    def term(t, env):
        from hotk.kernel.syntax import Raised
        if isinstance(t, Raised):
            n = term_index(t.inner).finite_value
            return m.up_map[(n, term(t.inner, env))]
        return env[akey(t)]

    def eq(a, alpha, b, beta):
        gamma = max(alpha, beta) + 1
        return all(m.applies(z, a) == m.applies(z, b) for z in dom(gamma))

    def isin(a, alpha, b, beta):
        gamma = max(alpha, beta) + 1
        return any(eq(x, gamma, b, beta) and m.applies(x, a) for x in dom(gamma))

    def go(g, env):
        if isinstance(g, Apply):
            return m.applies(term(g.head, env), term(g.arg, env))
        if isinstance(g, StrictEq):
            return term(g.left, env) == term(g.right, env)
        if isinstance(g, DownRel):
            n1 = term_index(g.left).finite_value
            return (n1, term(g.left, env), term(g.right, env)) in m.down_rel
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
        if isinstance(g, Forall):
            return all(go(g.body, {**env, akey(g.var): e})
                       for e in dom(g.var.index.finite_value))
        if isinstance(g, Exists):
            return any(go(g.body, {**env, akey(g.var): e})
                       for e in dom(g.var.index.finite_value))
        if isinstance(g, Sugar):
            return sugar(g, env)
        raise TypeError(f"oracle cannot evaluate {g!r}")

    def sugar(g, env):
        k = g.kind
        if k == "eq":
            l, r = g.args
            return eq(term(l, env), term_index(l).finite_value,
                      term(r, env), term_index(r).finite_value)
        if k == "in":
            l, r = g.args
            return isin(term(l, env), term_index(l).finite_value,
                        term(r, env), term_index(r).finite_value)
        if k == "coext":
            l, r = g.args
            n = term_index(l).finite_value
            a, b = term(l, env), term(r, env)
            return all(m.applies(a, x) == m.applies(b, x) for x in dom(n - 1))
        if k == "coext_k":
            kk, l, r = g.args
            a, b = term(l, env), term(r, env)
            return all(m.applies(a, x) == m.applies(b, x)
                       for i in range(kk) for x in dom(i))
        if k == "downeq":
            l, r = g.args
            n = term_index(l).finite_value
            if n == 1:
                return True
            a, b = term(l, env), term(r, env)
            return all(((n, a, x) in m.down_rel) == ((n, b, x) in m.down_rel)
                       for x in dom(n - 1))
        if k == "bounded":
            quant, var, rel, bound, body = g.args
            n = var.index.finite_value
            hits = []
            for e in dom(n):
                env2 = {**env, akey(var): e}
                if rel == "eq":
                    guard = eq(e, n, term(bound, env), term_index(bound).finite_value)
                elif rel == "in":
                    guard = isin(e, n, term(bound, env), term_index(bound).finite_value)
                else:
                    guard = (n, e, term(bound, env)) in m.down_rel
                hits.append((guard, env2))
            if quant == "all":
                return all(go(body, e) for gd, e in hits if gd)
            return any(gd and go(body, e) for gd, e in hits)
        raise TypeError(f"oracle cannot evaluate sugar {k!r}")

    return go(f, dict(env))


def all_env(m, atoms):
    """Every assignment of the given free atoms over the model's domains."""
    atoms = sorted(atoms, key=lambda a: (str(a.index), a.name))
    doms = [m.domain(a.index) for a in atoms]
    for combo in product(*doms):
        yield {akey(a): e for a, e in zip(atoms, combo)}


def replace_const(f, const, var):
    """Swap a free constant for a variable everywhere (for universal closure)."""
    from hotk.kernel.syntax import (And, Apply, Const, DownRel, Exists,
                                    Forall, Iff, Implies, InSet, Not, Or,
                                    Raised, StrictEq, Sugar)

    def tm(t):
        if isinstance(t, Raised):
            return Raised(tm(t.inner))
        if isinstance(t, Const) and t.name == const.name and t.index == const.index:
            return var
        return t

    def go(g):
        if isinstance(g, Apply):
            return Apply(tm(g.head), tm(g.arg))
        if isinstance(g, (StrictEq, DownRel, InSet)):
            return type(g)(tm(g.left), tm(g.right))
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, go(g.body))
        if isinstance(g, Sugar):
            args = tuple(tm(a) if isinstance(a, (Var, Const, Raised))
                         else (a if isinstance(a, (int, str)) else go(a))
                         for a in g.args)
            return Sugar(g.kind, args)
        raise TypeError(g)

    return go(f)


def universal_closure(proof):
    """hyps -> conclusion, universally closed over its free atoms."""
    from hotk.kernel.syntax import Const, Forall, Implies, free_atoms
    from hotk.kernel import substitute

    f = proof.steps[-1].formula
    for h in reversed(proof.hypotheses):
        f = Implies(h, f)
    atoms = sorted(free_atoms(f), key=lambda a: (str(a.index), a.name))
    for i, atom in enumerate(atoms):
        v = Var(f"cl{i}", atom.index)
        if isinstance(atom, Const):
            f = replace_const(f, atom, v)
        else:
            f = substitute(f, atom, v)
        f = Forall(v, f)
    return f
