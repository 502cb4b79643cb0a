"""Reference AST walks, kept as oracles for the ones built on parts/rebuild.

Each function here is a hand-written `isinstance` ladder that restates the
argument layout of every node kind, as the kernel's walks did before
`hotk.kernel.syntax.parts` and `rebuild` took that layout over.  The walks
in `hotk` must agree with them on every input: the same result, or the same
error class and message.  `top_type` is kept as it stood before the type
walk stopped building a set per binder and a set of indices.
"""

from hotk.errors import FormationError, SubstitutionError
from hotk.kernel import regimes as rg
from hotk.kernel.expand import define
from hotk.kernel.formation import (WELL_FORMED, _apply_gap_ok, _bad,
                                   _check_term, sugar_violation)
from hotk.kernel.indices import TypeIndex
from hotk.kernel.syntax import (And, Apply, Const, DownRel, Exists, Forall,
                                FreshNames, Iff, Implies, InSet, Not, Or,
                                Raised, StrictEq, Sugar, Var, base_atom, parts,
                                term_index)

BINARY = (And, Or, Implies, Iff)
QUANTIFIERS = (Forall, Exists)


def subformulas(f):
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, BINARY):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, QUANTIFIERS):
        yield from subformulas(f.body)
    elif isinstance(f, Sugar):
        for a in f.args:
            if isinstance(a, (Apply, StrictEq, DownRel, InSet, Not, And, Or,
                              Implies, Iff, Forall, Exists, Sugar)):
                yield from subformulas(a)


def _terms_of(f):
    if isinstance(f, (Apply,)):
        yield f.head
        yield f.arg
    elif isinstance(f, (StrictEq, DownRel, InSet)):
        yield f.left
        yield f.right
    elif isinstance(f, Sugar):
        for a in f.args:
            if isinstance(a, (Var, Const, Raised)):
                yield a


def free_atoms(f):
    def go(g, bound):
        if isinstance(g, Not):
            return go(g.body, bound)
        if isinstance(g, BINARY):
            return go(g.left, bound) | go(g.right, bound)
        if isinstance(g, Forall) or isinstance(g, Exists):
            return go(g.body, bound | {(g.var.name, g.var.index)})
        if isinstance(g, Sugar) and g.kind == "bounded":
            quant, var, rel, bnd, body = g.args
            out = _atom_free(bnd, bound)
            return out | go(body, bound | {(var.name, var.index)})
        out = frozenset()
        if isinstance(g, Sugar):
            for a in g.args:
                if isinstance(a, (Var, Const, Raised)):
                    out |= _atom_free(a, bound)
                elif not isinstance(a, (int, str)):
                    out |= go(a, bound)
            return out
        for t in _terms_of(g):
            out |= _atom_free(t, bound)
        return out

    def _atom_free(t, bound):
        a = base_atom(t)
        if isinstance(a, Var) and (a.name, a.index) in bound:
            return frozenset()
        return frozenset([a])

    return go(f, frozenset())


def free_names(f):
    return frozenset(a.name for a in free_atoms(f))


def all_names(f):
    names = set()

    def go(g):
        if isinstance(g, Not):
            go(g.body)
        elif isinstance(g, BINARY):
            go(g.left)
            go(g.right)
        elif isinstance(g, QUANTIFIERS):
            names.add(g.var.name)
            go(g.body)
        elif isinstance(g, Sugar):
            if g.kind == "bounded":
                quant, var, rel, bnd, body = g.args
                names.add(var.name)
                names.add(base_atom(bnd).name)
                go(body)
            else:
                for a in g.args:
                    if isinstance(a, (Var, Const, Raised)):
                        names.add(base_atom(a).name)
                    elif not isinstance(a, (int, str)):
                        go(a)
        else:
            for t in _terms_of(g):
                names.add(base_atom(t).name)

    go(f)
    return frozenset(names)


def fresh_name(stem, used):
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


def _subst_term(t, var, repl):
    if isinstance(t, Raised):
        return Raised(_subst_term(t.inner, var, repl))
    if isinstance(t, Var) and t.name == var.name and t.index == var.index:
        return repl
    return t


def substitute(f, var, repl, strict_type=True):
    if strict_type and term_index(repl) != var.index:
        raise SubstitutionError(
            f"cannot substitute term of type {term_index(repl)} for {var.name}^{var.index}")
    repl_names = {base_atom(repl).name}

    def go(g):
        if isinstance(g, Apply):
            return Apply(_subst_term(g.head, var, repl), _subst_term(g.arg, var, repl))
        if isinstance(g, StrictEq):
            return StrictEq(_subst_term(g.left, var, repl), _subst_term(g.right, var, repl))
        if isinstance(g, DownRel):
            return DownRel(_subst_term(g.left, var, repl), _subst_term(g.right, var, repl))
        if isinstance(g, InSet):
            return InSet(_subst_term(g.left, var, repl), _subst_term(g.right, var, repl))
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, BINARY):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, QUANTIFIERS):
            if g.var.name == var.name and g.var.index == var.index:
                return g
            if g.var.name in repl_names and var.name in free_names(g.body):
                renamed = Var(fresh_name("r", all_names(g.body) | repl_names), g.var.index)
                body = substitute(g.body, g.var, renamed, strict_type=False)
                return type(g)(renamed, go(body))
            return type(g)(g.var, go(g.body))
        if isinstance(g, Sugar):
            if g.kind == "bounded":
                quant, bvar, rel, bnd, body = g.args
                bnd2 = _subst_term(bnd, var, repl)
                if bvar.name == var.name and bvar.index == var.index:
                    return Sugar("bounded", (quant, bvar, rel, bnd2, body))
                if bvar.name in repl_names and var.name in free_names(body):
                    renamed = Var(fresh_name("r", all_names(body) | repl_names), bvar.index)
                    body = substitute(body, bvar, renamed, strict_type=False)
                    bvar = renamed
                return Sugar("bounded", (quant, bvar, rel, bnd2, go(body)))
            new_args = []
            for a in g.args:
                if isinstance(a, (Var, Const, Raised)):
                    new_args.append(_subst_term(a, var, repl))
                elif isinstance(a, (int, str)):
                    new_args.append(a)
                else:
                    new_args.append(go(a))
            return Sugar(g.kind, tuple(new_args))
        raise TypeError(f"unknown formula node {g!r}")

    return go(f)


def alpha_normalize(f):
    taken = free_names(f)
    counter = [0]

    def next_var(index):
        while True:
            counter[0] += 1
            name = f"v{counter[0]}"
            if name not in taken:
                return Var(name, index)

    def go(g, env):
        if isinstance(g, (Apply, StrictEq, DownRel, InSet)):
            return _map_terms(g, env)
        if isinstance(g, Not):
            return Not(go(g.body, env))
        if isinstance(g, BINARY):
            return type(g)(go(g.left, env), go(g.right, env))
        if isinstance(g, QUANTIFIERS):
            fresh = next_var(g.var.index)
            env2 = dict(env)
            env2[(g.var.name, g.var.index)] = fresh
            return type(g)(fresh, go(g.body, env2))
        if isinstance(g, Sugar):
            if g.kind == "bounded":
                quant, bvar, rel, bnd, body = g.args
                bnd2 = _ren_term(bnd, env)
                fresh = next_var(bvar.index)
                env2 = dict(env)
                env2[(bvar.name, bvar.index)] = fresh
                return Sugar("bounded", (quant, fresh, rel, bnd2, go(body, env2)))
            new_args = []
            for a in g.args:
                if isinstance(a, (Var, Const, Raised)):
                    new_args.append(_ren_term(a, env))
                elif isinstance(a, (int, str)):
                    new_args.append(a)
                else:
                    new_args.append(go(a, env))
            return Sugar(g.kind, tuple(new_args))
        raise TypeError(f"unknown formula node {g!r}")

    def _ren_term(t, env):
        if isinstance(t, Raised):
            return Raised(_ren_term(t.inner, env))
        if isinstance(t, Var) and (t.name, t.index) in env:
            return env[(t.name, t.index)]
        return t

    def _map_terms(g, env):
        if isinstance(g, Apply):
            return Apply(_ren_term(g.head, env), _ren_term(g.arg, env))
        return type(g)(_ren_term(g.left, env), _ren_term(g.right, env))

    return go(f, {})


class _EagerFresh:
    """Fresh names v1, v2, ... avoiding every name of the formula, collected
    up front."""

    def __init__(self, used):
        self.used = set(used)
        self.n = 0

    def var(self, index):
        while True:
            self.n += 1
            name = f"v{self.n}"
            if name not in self.used:
                self.used.add(name)
                return Var(name, index)


def expand_abbreviations(f, regime=None):
    fresh = _EagerFresh(all_names(f))

    def go(g):
        if isinstance(g, (Apply, StrictEq, DownRel, InSet)):
            return g
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, go(g.body))
        if isinstance(g, Sugar):
            if regime is not None:
                err = sugar_violation(g, regime)
                if err:
                    raise FormationError(err)
            if g.kind == "bounded":
                quant, var, rel, bound, body = g.args
                g = Sugar("bounded", (quant, var, rel, bound, go(body)))
            return go(define(g, fresh))
        raise TypeError(f"unknown formula node {g!r}")

    return go(f)


def check_formation(f, regime):
    if isinstance(f, Apply):
        for t in (f.head, f.arg):
            v = _check_term(t, regime)
            if v is not None:
                return v
        err = _apply_gap_ok(term_index(f.head), term_index(f.arg), regime)
        return _bad(err, f) if err else WELL_FORMED
    if isinstance(f, StrictEq):
        for t in (f.left, f.right):
            v = _check_term(t, regime)
            if v is not None:
                return v
        a, b = term_index(f.left), term_index(f.right)
        if a != b:
            return _bad(f"strict identity needs equal types ({a} vs {b})", f)
        return WELL_FORMED
    if isinstance(f, DownRel):
        if regime.kind != rg.STT_DOWN:
            return _bad("dn atoms exist only in the projection theory", f)
        for t in (f.left, f.right):
            v = _check_term(t, regime)
            if v is not None:
                return v
        a, b = term_index(f.left), term_index(f.right)
        if b == TypeIndex(0, 0):
            return _bad("no projection constant reaches type 0", f)
        if a != b.succ():
            return _bad(f"projection relates type n+1 to type n, got {a} over {b}", f)
        return WELL_FORMED
    if isinstance(f, InSet):
        return _bad("untyped membership atom in a typed regime", f)
    if isinstance(f, Not):
        return check_formation(f.body, regime)
    if isinstance(f, (And, Or, Implies, Iff)):
        v = check_formation(f.left, regime)
        if not v:
            return v
        return check_formation(f.right, regime)
    if isinstance(f, (Forall, Exists)):
        v = _check_term(f.var, regime)
        if v is not None:
            return v
        return check_formation(f.body, regime)
    if isinstance(f, Sugar):
        if f.kind == "bounded":
            quant, var, rel, bound, body = f.args
            for t in (var, bound):
                v = _check_term(t, regime)
                if v is not None:
                    return v
            err = sugar_violation(f, regime)
            if err:
                return _bad(err, f)
            return check_formation(body, regime)
        for a in f.args:
            if isinstance(a, (Var, Const, Raised)):
                v = _check_term(a, regime)
                if v is not None:
                    return v
        err = sugar_violation(f, regime)
        if err:
            return _bad(err, f)
        return WELL_FORMED
    raise TypeError(f"unknown formula node {f!r}")


def max_finite_type(f):
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


def top_type(g):
    """models.decide.top_type with the binders in scope as a frozenset and
    every index collected in a set, checked after the walk."""
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


def map_formula(f, atom_fn):
    """translate._map_formula: rebuild f, sending every atom through atom_fn."""
    if isinstance(f, Not):
        return Not(map_formula(f.body, atom_fn))
    if isinstance(f, BINARY):
        return type(f)(map_formula(f.left, atom_fn), map_formula(f.right, atom_fn))
    if isinstance(f, QUANTIFIERS):
        return type(f)(f.var, map_formula(f.body, atom_fn))
    return atom_fn(f)


def kappa_translate(f, kappa):
    def term(t):
        if isinstance(t, Raised):
            raise FormationError("raised term in a set-language formula")
        if t.index is not None:
            raise FormationError("input to the superscripting translation must be untyped")
        return type(t)(t.name, kappa)

    def go(g):
        if isinstance(g, InSet):
            return Sugar("in", (term(g.left), term(g.right)))
        if isinstance(g, StrictEq):
            return Sugar("eq", (term(g.left), term(g.right)))
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, BINARY):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, QUANTIFIERS):
            return type(g)(Var(g.var.name, kappa), go(g.body))
        if isinstance(g, Sugar):
            k = g.kind
            if k == "bounded":
                quant, var, rel, bound, body = g.args
                if rel not in ("in",):
                    raise FormationError(f"{rel!r}-bounded quantifier in set language")
                return Sugar("bounded",
                             (quant, Var(var.name, kappa), "in", term(bound), go(body)))
            if k in ("subset", "level", "history", "rank"):
                return Sugar(k, tuple(term(a) for a in g.args))
            raise FormationError(f"sugar {k!r} has no place in the set language")
        if isinstance(g, (Apply, DownRel)):
            raise FormationError("typed atom in a set-language formula")
        raise TypeError(f"unknown formula node {g!r}")

    return go(f)
