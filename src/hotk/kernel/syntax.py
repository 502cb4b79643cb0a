"""Abstract syntax for typed higher-order formulas and the untyped set language.

Terms carry an optional TypeIndex; None marks terms of the untyped
set-theoretic language.  Sugar nodes hold every defined symbol; they are
eliminable via hotk.kernel.expand.

All nodes are immutable: frozen dataclasses whose ==, hash and repr are
those of their fields.  Node kinds with the same fields share one slotted
layout (Var and Const are _Atoms, the seven binary kinds _Pairs, Forall
and Exists _Binders) as subclasses with no slots of their own, so type(f)
still names the kind.  Every node is built through a layout's __init__,
which sets each slot through the slot's member descriptor: a frozen
dataclass's own __init__ pays an object.__setattr__ per field, and parsing,
formation, expansion and the translation maps all build nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from hotk.kernel.indices import TypeIndex

# A node layout: frozen, slotted, and with the state methods that pickle and
# copy need to rebuild a frozen slotted instance.
_layout = dataclass(frozen=True, slots=True, init=False)


# ---------------------------------------------------------------------------
# Terms

@_layout
class _Atom:
    name: str
    index: Optional[TypeIndex]

    def __init__(self, name, index):
        _atom_name(self, name)
        _atom_index(self, index)


class Var(_Atom):
    __slots__ = ()


class Const(_Atom):
    __slots__ = ()


@_layout
class Raised:
    """The up(...) term former of the raised-type theory; type = succ(inner)."""
    inner: Term

    def __init__(self, inner):
        _raised_inner(self, inner)


Term = Var | Const | Raised


def term_index(t: Term) -> Optional[TypeIndex]:
    if type(t) is Raised:
        inner = term_index(t.inner)
        return None if inner is None else inner.succ()
    return t.index


def base_atom(t: Term) -> Var | Const:
    """Strip Raised wrappers down to the underlying variable/constant."""
    while isinstance(t, Raised):
        t = t.inner
    return t


def raise_term(t: Term, times: int) -> Term:
    for _ in range(times):
        t = Raised(t)
    return t


# ---------------------------------------------------------------------------
# Formulas

@_layout
class Apply:
    head: Term
    arg: Term

    def __init__(self, head, arg):
        _apply_head(self, head)
        _apply_arg(self, arg)


@_layout
class _Pair:
    """Two terms (StrictEq, DownRel, InSet) or two formulas (the binary
    connectives)."""
    left: Term | Formula
    right: Term | Formula

    def __init__(self, left, right):
        _pair_left(self, left)
        _pair_right(self, right)


class StrictEq(_Pair):
    __slots__ = ()


class DownRel(_Pair):
    """left dn right: left projects down to right (types n+1 over n, n >= 1)."""
    __slots__ = ()


class InSet(_Pair):
    """Primitive membership of the untyped set-theoretic language."""
    __slots__ = ()


class And(_Pair):
    __slots__ = ()


class Or(_Pair):
    __slots__ = ()


class Implies(_Pair):
    __slots__ = ()


class Iff(_Pair):
    __slots__ = ()


@_layout
class Not:
    body: Formula

    def __init__(self, body):
        _not_body(self, body)


@_layout
class _Binder:
    var: Var
    body: Formula

    def __init__(self, var, body):
        _binder_var(self, var)
        _binder_body(self, body)


class Forall(_Binder):
    __slots__ = ()


class Exists(_Binder):
    __slots__ = ()


# Sugar kinds: eq, in, coext, coext_k, downeq, bounded, subset, level,
# history, rank.  Arguments per kind:
#   eq/in/coext/subset/downeq: (left, right)
#   coext_k:  (k, left, right)
#   bounded:  (quant, var, rel, bound, body)   quant in {all, some}, rel in {eq, in, dn}
#   level/history: (term,)
#   rank:     (term, level)   "level is the in-least level including term"
@_layout
class Sugar:
    kind: str
    args: Tuple

    def __init__(self, kind, args):
        _sugar_kind(self, kind)
        _sugar_args(self, args)


# The setters the layouts' __init__ methods call: each slot's member
# descriptor, the cheapest write a frozen class allows.
_atom_name, _atom_index = _Atom.name.__set__, _Atom.index.__set__
_raised_inner = Raised.inner.__set__
_apply_head, _apply_arg = Apply.head.__set__, Apply.arg.__set__
_pair_left, _pair_right = _Pair.left.__set__, _Pair.right.__set__
_not_body = Not.body.__set__
_binder_var, _binder_body = _Binder.var.__set__, _Binder.body.__set__
_sugar_kind, _sugar_args = Sugar.kind.__set__, Sugar.args.__set__

Formula = (Apply | StrictEq | DownRel | InSet | Not | And | Or | Implies | Iff
           | Forall | Exists | Sugar)

ATOMS = frozenset({Apply, StrictEq, DownRel, InSet})


# ---------------------------------------------------------------------------
# Notation.  hotk.kernel.parser reads these tables and hotk.kernel.printer
# inverts them; the README grammar lists the same tokens.

# Binary connectives from the loosest to the tightest.
CONNECTIVES = (("<->", Iff), ("->", Implies), ("|", Or), ("&", And))

# term TOKEN term: the node class or sugar kind of each token.  In the set
# language "in" is primitive membership (InSet) and only "=", "in" and "sub"
# are allowed.  The indexed "coext_NAT" is read on its own.
INFIX = {"=": StrictEq, "dn": DownRel, "in": "in", "eq": "eq",
         "coext": "coext", "downeq": "downeq", "sub": "subset"}

# NAME(term, ...): the level-theory sugar kind of each name.
PREFIX = {"Lev": "level", "Hist": "history", "Rank": "rank"}

# The sugar kinds the set language may use beside membership and identity.
SET_SUGAR = ("subset", "level", "history", "rank")


# ---------------------------------------------------------------------------
# Node layout.  parts/rebuild are the one place that knows where each node
# kind keeps its pieces; the walks over formulas go through them.  The walks
# that also meet the deeper formulas the translations build (expansion,
# normalization, the translation maps) collect new bodies in a plain loop:
# a comprehension would cost more per node on these one- and two-element
# tuples and add a stack frame per level of nesting.

def _sugar_parts(f):
    if f.kind == "bounded":
        _, var, _, bound, body = f.args
        return (bound,), var, (body,)
    return tuple([a for a in f.args if not isinstance(a, (int, str))]), None, ()


_PARTS = {
    Apply: lambda f: ((f.head, f.arg), None, ()),
    **dict.fromkeys((StrictEq, DownRel, InSet), lambda f: ((f.left, f.right), None, ())),
    Not: lambda f: ((), None, (f.body,)),
    **dict.fromkeys((And, Or, Implies, Iff), lambda f: ((), None, (f.left, f.right))),
    **dict.fromkeys((Forall, Exists), lambda f: ((), f.var, (f.body,))),
    Sugar: _sugar_parts,
}


def parts(f: Formula) -> Tuple[Tuple[Term, ...], Optional[Var], Tuple[Formula, ...]]:
    """(terms, binder, bodies) of a formula node.

    terms lie outside the binder's scope, binder is the variable the node
    binds (or None) and bodies are the subformulas inside its scope.  A
    bounded quantifier binds its body but not its bound:
    ((bound,), var, (body,)).  Other sugar kinds give their term arguments;
    their int and str arguments stay with the node (see rebuild).
    """
    try:
        split = _PARTS[type(f)]
    except KeyError:
        raise TypeError(f"unknown formula node {f!r}") from None
    return split(f)


def rebuild(f: Formula, terms, binder: Optional[Var], bodies) -> Formula:
    """The node of f's kind (and sugar kind) with the given parts; the
    inverse of parts."""
    kind = type(f)
    if kind is Sugar:
        if f.kind == "bounded":
            quant, _, rel, _, _ = f.args
            return Sugar("bounded", (quant, binder, rel, *terms, *bodies))
        terms = iter(terms)
        return Sugar(f.kind, tuple([a if isinstance(a, (int, str)) else next(terms)
                                    for a in f.args]))
    if binder is None:
        return kind(*terms, *bodies)
    return kind(binder, *bodies)


def conj(formulas) -> Formula:
    """Right-nested conjunction of one or more formulas."""
    formulas = list(formulas)
    if not formulas:
        raise ValueError("empty conjunction")
    out = formulas[-1]
    for g in reversed(formulas[:-1]):
        out = And(g, out)
    return out


def subformulas(f: Formula):
    """f and every formula inside it, in pre-order."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += parts(g)[2][::-1]


def free_atoms(f: Formula) -> frozenset:
    """Free variables and constants of f (Raised wrappers stripped).  The
    binders in scope are a tuple of (name, index) pairs: a formula binds few
    variables, and a tuple grows without building a set per binder."""
    out = set()
    stack = [(f, ())]
    while stack:
        g, bound = stack.pop()
        terms, binder, bodies = parts(g)
        for t in terms:
            a = base_atom(t)
            if not (type(a) is Var and (a.name, a.index) in bound):
                out.add(a)
        if binder is not None:
            bound = (*bound, (binder.name, binder.index))
        for b in bodies:
            stack.append((b, bound))
    return frozenset(out)


def free_names(f: Formula) -> frozenset:
    return frozenset(a.name for a in free_atoms(f))


def occurs_free(t: Var | Const, f: Formula) -> bool:
    """Whether the variable or constant t occurs free in f.  Atoms match by
    name and type alone: the parser reads a free identifier as a Const and
    a bound one as a Var."""
    return any(a.name == t.name and a.index == t.index for a in free_atoms(f))


def all_names(f: Formula) -> frozenset:
    """Every variable/constant name occurring in f, bound or free."""
    names = set()
    stack = [f]
    while stack:
        terms, binder, bodies = parts(stack.pop())
        for t in terms:
            names.add(base_atom(t).name)
        if binder is not None:
            names.add(binder.name)
        stack += bodies
    return frozenset(names)


class FreshNames:
    """The one supply of new variables, for expansion, the compiler's sugar
    nodes, the translation maps, substitution, normalization and separation
    instances: names stem1, stem2, ... (v1, v2, ... by default) that are not
    in used and occur nowhere in f, each handed out once.  f's names are
    collected on the first request, so a formula that needs no new variable
    is never scanned."""

    def __init__(self, f: Optional[Formula] = None, used=()):
        self.f = f                 # its names are not collected yet
        self.used = set(used)
        self.last: dict = {}       # stem -> the number it last gave

    def var(self, index: Optional[TypeIndex], stem: str = "v") -> Var:
        if self.f is not None:
            self.used |= all_names(self.f)
            self.f = None
        i = self.last.get(stem, 0) + 1
        while f"{stem}{i}" in self.used:
            i += 1
        self.last[stem] = i
        name = f"{stem}{i}"
        self.used.add(name)
        return Var(name, index)


def _rename(t: Term, images: dict) -> Term:
    """t with every variable whose (name, index) images maps replaced by
    its image."""
    if isinstance(t, Raised):
        return Raised(_rename(t.inner, images))
    if isinstance(t, Var):
        return images.get((t.name, t.index), t)
    return t


def substitute(f: Formula, var: Var, repl: Term) -> Formula:
    """Capture-avoiding substitution of repl for free occurrences of var,
    whatever repl's type: each regime's instantiation rule is stated once,
    in proofkit.checker._types_ok."""
    key = (var.name, var.index)
    images = {key: repl}
    repl_names = {base_atom(repl).name}

    def go(g: Formula) -> Formula:
        terms, binder, bodies = parts(g)
        terms = [_rename(t, images) for t in terms]
        if binder is not None:
            if (binder.name, binder.index) == key:
                return rebuild(g, terms, binder, bodies)
            (body,) = bodies
            if binder.name in repl_names and var.name in free_names(body):
                renamed = FreshNames(body, repl_names).var(binder.index, "r")
                bodies = (substitute(body, binder, renamed),)
                binder = renamed
        return rebuild(g, terms, binder, [go(b) for b in bodies])

    return go(f)


def alpha_normalize(f: Formula) -> Formula:
    """Rename bound variables canonically (v1, v2, ... in binder order).

    Alpha-equivalent formulas become structurally equal; canonical names
    skip anything occurring free so no capture is possible.
    """
    fresh = FreshNames(used=free_names(f))

    def go(g: Formula, images: dict) -> Formula:
        terms, binder, bodies = parts(g)
        if images:
            terms = [_rename(t, images) for t in terms]
        if binder is not None:
            canon = fresh.var(binder.index)
            images = {**images, (binder.name, binder.index): canon}
            binder = canon
        new = []
        for b in bodies:
            new.append(go(b, images))
        return rebuild(g, terms, binder, new)

    return go(f, {})


def _same_term(s: Term, t: Term, bound_s: dict, bound_t: dict) -> bool:
    """Whether two terms agree under the binder numbering of each side: the
    same Raised depth over atoms of one class and type, and either the same
    binder number (variables bound on both sides) or the same name (free)."""
    while type(s) is Raised:
        if type(t) is not Raised:
            return False
        s, t = s.inner, t.inner
    if type(s) is not type(t) or s.index != t.index:
        return False
    if type(s) is Var:
        n = bound_s.get((s.name, s.index))
        if n != bound_t.get((t.name, t.index)):
            return False
        if n is not None:
            return True
    return s.name == t.name


def _same_sugar_layout(f: Sugar, g: Sugar) -> bool:
    """Same sugar kind with the same int and str arguments in the same
    places, so that parts gives both nodes the same layout."""
    return f.kind == g.kind and len(f.args) == len(g.args) and all(
        a == b for a, b in zip(f.args, g.args)
        if isinstance(a, (int, str)) or isinstance(b, (int, str)))


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Whether f and g differ at most in the names of bound variables, i.e.
    alpha_normalize(f) == alpha_normalize(g).

    One walk over both trees in step: binders are numbered in the order
    met, and a variable occurrence is looked up by (name, index) in the
    numbering of its own side, so paired binders may have different names.
    A subtree shared by both sides under the same numbering is skipped.
    """
    count = 0
    stack = [(f, g, {}, {})]
    while stack:
        f, g, bound_f, bound_g = stack.pop()
        if f is g and bound_f == bound_g:
            continue
        if type(f) is not type(g):
            return False
        if type(f) is Sugar and not _same_sugar_layout(f, g):
            return False
        terms_f, binder_f, bodies_f = parts(f)
        terms_g, binder_g, bodies_g = parts(g)
        for s, t in zip(terms_f, terms_g):
            if not _same_term(s, t, bound_f, bound_g):
                return False
        if binder_f is not None:
            if binder_f.index != binder_g.index:
                return False
            count += 1
            bound_f = {**bound_f, (binder_f.name, binder_f.index): count}
            bound_g = {**bound_g, (binder_g.name, binder_g.index): count}
        for pair in zip(reversed(bodies_f), reversed(bodies_g)):
            stack.append((*pair, bound_f, bound_g))
    return True
