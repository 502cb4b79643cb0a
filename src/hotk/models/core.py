"""Finite typed structures and formula evaluation.

Every bundled model is membership-backed: apply(b, a) asks whether a is in
b's member set, which covers the cumulative hierarchies, the tuple-extension
models (a member's own shape determines which slot it sits in), and graph
structures alike.  Entities are canonical name strings, so a model survives
a JSON round trip byte-for-byte.

Formulas are evaluated by compiling them once into closures (Feeley and
Lapalme, "Using closures for code generation", Computer Languages 12(1),
1987).  The compiler reads a structure as its domains, a member dict and a
key for each term, so one compiler serves typed models and membership
graphs; a graph is a one-sorted structure whose one domain is its nodes.
A defined symbol is compiled where the walk meets it, as its definiens
(kernel.expand.define), so no expansion pass runs first.  Defined identity
on a typed model is the exception: `a eq b`, and the quantifier
`all v. v(a) <-> v(b)` it abbreviates, compile to one comparison of a's
and b's owners, from the converse of the member table (Codd,
"Relational Completeness of Data Base Sublanguages", 1972), which each
Model fills one entity at a time on first use.  There are two
ways in: eval_formula evaluates a formula under one assignment, and
counterexamples sweeps every assignment to some atoms of a formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import attrgetter, itemgetter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from hotk.errors import (DEFAULT_BUDGET, BudgetExceeded, EvalError, HotkError,
                         above_budget, check_json, load_json)
from hotk.graphs import MembershipGraph, canonical_key
from hotk.kernel.expand import define
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall, Formula,
                                FreshNames, Iff, Implies, InSet, Not, Or,
                                Raised, StrictEq, Sugar, Term, base_atom,
                                term_index)

Entity = str
_EMPTY: FrozenSet[Entity] = frozenset()
Assignment = dict[tuple[str, TypeIndex | None], Entity]

_MODEL_SHAPE = {"kind": str, "height": int, "domains": [[str]],
                "apply": {str: [str]}, "meta": dict,
                "up_map": {int: {str: str}}, "down_rel": {int: [(str, str)]}}


@dataclass
class Model:
    kind: str
    max_type: int
    domains: Tuple[Tuple[Entity, ...], ...]
    members: Dict[Entity, FrozenSet[Entity]]
    cumulative: bool
    open_above: bool = False
    up_map: Optional[Dict[Tuple[int, Entity], Entity]] = None
    down_rel: Optional[Set[Tuple[int, Entity, Entity]]] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # type -> its _Converse, made on first use; no field, so ==, repr,
        # dataclasses.replace and to_json never see it
        self._tables: Dict[int, _Converse] = {}

    def domain(self, index: Optional[TypeIndex]) -> Tuple[Entity, ...]:
        if index is None:
            raise EvalError("untyped quantifier in a typed model")
        if index.omega_coeff:
            raise EvalError(f"type bound exceeded: no transfinite domain {index}")
        n = index.finite_part
        if n <= self.max_type:
            return self.domains[n]
        if not self.reaches(n):
            raise EvalError(f"type bound exceeded: model has no type {n}")
        return self.domains[self.max_type]

    def reaches(self, n: int) -> bool:
        """Whether type n has a domain: every type up to the height, and
        every type above it in an open cumulative model."""
        return n <= self.max_type or (self.cumulative and self.open_above)

    def applies(self, b: Entity, a: Entity) -> bool:
        return a in self.members.get(b, frozenset())

    def extension(self, e: Entity, n: int) -> FrozenSet[Entity]:
        return self.members.get(e, _EMPTY) & self.converse(n).domain

    def converse(self, n: int) -> "_Converse":
        """Type n's converse member table, made on first use."""
        got = self._tables.get(n)
        if got is None:
            got = self._tables[n] = _Converse(self.domain(fin(n)), self.members)
        return got

    def entity_count(self) -> int:
        return len(self.members)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "height": self.max_type,
            "domains": [list(d) for d in self.domains],
            "apply": {e: sorted(ms, key=canonical_key)
                      for e, ms in sorted(self.members.items()) if ms},
            "meta": dict(self.meta, cumulative=self.cumulative,
                         open_above=self.open_above),
        }
        if self.up_map is not None:
            up: Dict[str, Dict[str, str]] = {}
            for (n, e), v in sorted(self.up_map.items()):
                up.setdefault(str(n), {})[e] = v
            doc["up_map"] = up
        if self.down_rel is not None:
            dn: Dict[str, list] = {}
            for (n, b, a) in sorted(self.down_rel):
                dn.setdefault(str(n), []).append([b, a])
            doc["down_rel"] = dn
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, doc: dict) -> "Model":
        check_json(doc, _MODEL_SHAPE, ("kind", "height", "domains"), "model file")
        if len(doc["domains"]) != doc["height"] + 1:
            raise HotkError("model file needs exactly one domain per type "
                            "from 0 to its height")
        meta = dict(doc.get("meta", {}))
        cumulative = meta.pop("cumulative", False)
        open_above = meta.pop("open_above", False)
        members = {e: frozenset(ms) for e, ms in doc.get("apply", {}).items()}
        domains = tuple(tuple(d) for d in doc["domains"])
        for dom in domains:
            for e in dom:
                members.setdefault(e, frozenset())
        up_map = None
        if "up_map" in doc:
            up_map = {(int(n), e): v
                      for n, m in doc["up_map"].items() for e, v in m.items()}
        down_rel = None
        if "down_rel" in doc:
            down_rel = {(int(n), b, a)
                        for n, pairs in doc["down_rel"].items() for b, a in pairs}
        return cls(kind=doc["kind"], max_type=doc["height"], domains=domains,
                   members=members, cumulative=cumulative,
                   open_above=open_above, up_map=up_map, down_rel=down_rel,
                   meta=meta)

    @classmethod
    def loads(cls, text: str) -> "Model":
        return cls.from_json(load_json(text, "model file"))


class _Converse(dict):
    """The converse of the member table on one domain, an entity e to its
    owner row: one byte per entity of the domain, in domain order, 1 where
    that entity's member set holds e.  A row is found in one pass over the
    domain when first asked for, and two entities have the same owners
    exactly when their rows are equal.  A row takes a byte per entity where
    the owner set itself would take a hash-table slot."""

    def __init__(self, dom: Tuple[Entity, ...], members: Dict[Entity, FrozenSet[Entity]]):
        super().__init__()
        self.dom, self.members = dom, members

    @cached_property
    def domain(self) -> FrozenSet[Entity]:
        return frozenset(self.dom)

    def __missing__(self, e: Entity) -> bytes:
        members = self.members
        got = self[e] = bytes([e in members.get(d, _EMPTY) for d in self.dom])
        return got


def akey(t: Term) -> Tuple[str, Optional[TypeIndex]]:
    if isinstance(t, Raised):
        raise EvalError("raised terms are not assignment keys")
    return (t.name, t.index)


Structure = Model | MembershipGraph

_UNSET = object()       # value of a slot not yet filled
_NO_SLOTS: FrozenSet[int] = frozenset()


def _fail(error, message: str):
    """A closure that raises when it is reached, never when it is built."""
    def fail(env):
        raise error(message)
    return fail


def _once_then_true(c):
    """c -> c or c <-> c: c runs once, for its errors, and the answer is true."""
    def once(env):
        c(env)
        return True
    return once


# binary connective -> (closure over its two sides' closures, closure when
# both sides compiled to one closure)
_CONNECTIVES = {
    And: (lambda l, r: lambda env: l(env) and r(env), lambda c: c),
    Or: (lambda l, r: lambda env: l(env) or r(env), lambda c: c),
    Implies: (lambda l, r: lambda env: not l(env) or r(env), _once_then_true),
    Iff: (lambda l, r: lambda env: l(env) == r(env), _once_then_true),
}


class _Compiler:
    """One walk of a formula over one structure, seen as `domain` (a
    variable's index to its entities), `members` (an entity to its member
    set) and `keyof` (a term to its key).  A Model has a domain per type
    and keys a term by (name, index), as akey and an Assignment do; a
    MembershipGraph is one-sorted, with the nodes as its one domain and
    terms keyed by (name, None).

    The keys given to `compile` get the first slots and are read as binders
    are; any other free atom is unassigned, so it compiles to a closure that
    raises, and it still gets the next slot where the walk meets it.  A
    sugar node compiles as its definiens in the same scope, the definiens'
    new variables drawn from one FreshNames of the root, made at the first
    sugar node; an ill-formed sugar raises its FormationError here, before
    anything is evaluated.  A subformula is compiled once per scope (binder
    keys to slots): `memo` maps (id(node), id(scope)) to its (closure,
    slots read), and `alive` keeps every scope and definiens it names
    alive, so no id is reused during the walk.  So a subtree that occurs
    twice in one scope becomes one closure, and a binary connective of a
    closure with itself reduces to it (& and |) or runs it once and holds
    (-> and <->).  No closure refers back to the compiler.
    """

    def __init__(self, m: Structure, budget: int):
        self.m, self.budget = m, budget
        self.sets = isinstance(m, MembershipGraph)
        if self.sets:
            nodes = m.nodes
            self.members, self.build = m.member_map, _SET_BUILD
            self.keyof = lambda t: (t.name, None)
            self.domain = lambda index: nodes
            self.sort_name = lambda index: "the nodes"
        else:
            self.members, self.build = m.members, _BUILD
            self.keyof = attrgetter("name", "index")
            self.domain, self.sort_name = m.domain, "type {}".format
        self.free: Dict = {}        # key -> slot, for every free atom
        self.nslots = 0
        self.memo: Dict = {}
        self.alive = []
        self.root: Optional[Formula] = None
        self.fresh: Optional[FreshNames] = None

    def compile(self, f: Formula, keys: Iterable):
        """(root, env, slots): root maps a list environment to f's truth
        value, env has every slot _UNSET, and slots holds the slot of each of
        `keys`, which the caller fills before each run (of keys that repeat,
        the last filled wins)."""
        slots = [self.free.setdefault(k, len(self.free)) for k in keys]
        self.nslots = len(self.free)
        self.root = f
        root, _ = self.node(f, dict(self.free))
        return root, [_UNSET] * self.nslots, slots

    def node(self, g: Formula, scope: dict):
        """(closure, slots read) for a formula node, built once per scope."""
        key = (id(g), id(scope))
        got = self.memo.get(key)
        if got is None:
            try:
                build = self.build[type(g)]
            except KeyError:
                raise TypeError(f"unknown formula node {g!r}") from None
            got = self.memo[key] = build(self, g, scope)
        return got

    def bound(self, scope: dict, s: Term, t: Term):
        """The slots of s and t when both are read directly, else None."""
        if isinstance(s, Raised) or isinstance(t, Raised):
            return None
        x = scope.get(self.keyof(s))
        y = None if x is None else scope.get(self.keyof(t))
        return None if y is None else (x, y)

    def term(self, t: Term, scope: dict):
        """(getter, slots read) for a term; an atom no binder or key reads
        gets a getter that raises, and a slot of its own, which the
        quantifiers around it count when they decide whether to cache."""
        sets = self.sets
        if isinstance(t, Raised):
            if sets:
                return (_fail(EvalError, "raised term in a set-language formula"),
                        _NO_SLOTS)
            inner, slots = self.term(t.inner, scope)
            n = term_index(t.inner)
            up = self.m.up_map
            if n is None or not n.is_finite:
                err = f"cannot raise a term of type {n}"
            elif up is None:
                err = "model has no raising map"
            else:
                err, below = None, n.finite_value

            def raised(env):
                e = inner(env)
                if err is not None:
                    raise EvalError(err)
                got = up.get((below, e), _UNSET)
                if got is _UNSET:
                    raise EvalError(f"raising map undefined at type {n} for {e}")
                return got
            return raised, slots
        key = self.keyof(t)
        slot = scope.get(key)
        if slot is not None:
            return itemgetter(slot), frozenset([slot])
        slot = self.free.get(key)
        if slot is None:
            slot = self.free[key] = self.nslots
            self.nslots += 1
        message = (f"unassigned set variable {t.name}" if sets
                   else f"unassigned free term {t.name}^{t.index}")
        return _fail(EvalError, message), frozenset([slot])

    def sugar(self, g: Sugar, scope: dict):
        if g.kind == "eq" and not self.sets:
            s, t = g.args
            gamma = max(term_index(s), term_index(t)).succ()
            return self.identity(s, t, gamma, scope)
        if self.fresh is None:
            self.fresh = FreshNames(self.root)
        definiens = define(g, self.fresh)
        self.alive.append(definiens)
        return self.node(definiens, scope)

    def negation(self, g: Not, scope: dict):
        body, slots = self.node(g.body, scope)
        return (lambda env: not body(env)), slots

    def binary(self, g, scope: dict):
        l, ls = self.node(g.left, scope)
        r, rs = self.node(g.right, scope)
        join, same = _CONNECTIVES[type(g)]
        return (same(l) if l is r else join(l, r)), ls | rs

    def membership(self, g: Apply | InSet, scope: dict):
        """x is a member of a: Apply(a, x) in a model, InSet(x, a) in a
        graph.  Terms not read directly are read in the node's own order."""
        members = self.members
        applied = type(g) is Apply
        owner, elem = (g.head, g.arg) if applied else (g.right, g.left)
        both = self.bound(scope, owner, elem)
        if both:
            a, x = both
            return ((lambda env: env[x] in members.get(env[a], _EMPTY)),
                    frozenset(both))
        a, slots = self.term(owner, scope)
        x, xs = self.term(elem, scope)
        if applied:
            def member(env):
                b = a(env)
                return x(env) in members.get(b, _EMPTY)
        else:
            def member(env):
                return x(env) in members.get(a(env), _EMPTY)
        return member, slots | xs

    def untyped(self, g: InSet, scope: dict):
        return _fail(EvalError, "untyped membership atom in a typed model"), _NO_SLOTS

    def unevaluable(self, g, scope: dict):
        return (_fail(EvalError, "cannot evaluate set formula node "
                      + print_formula(g)), _NO_SLOTS)

    def equality(self, g: StrictEq, scope: dict):
        both = self.bound(scope, g.left, g.right)
        if both:
            x, y = both
            return (lambda env: env[x] == env[y]), frozenset(both)
        l, ls = self.term(g.left, scope)
        r, rs = self.term(g.right, scope)
        return (lambda env: l(env) == r(env)), ls | rs

    def projection(self, g: DownRel, scope: dict):
        l, ls = self.term(g.left, scope)
        r, rs = self.term(g.right, scope)
        slots = ls | rs
        hi = term_index(g.left)
        down = self.m.down_rel
        if down is None:
            return _fail(EvalError, "model has no projection relation"), slots
        if hi is None or not hi.is_finite:
            return _fail(EvalError, f"bad projection type {hi}"), slots
        n = hi.finite_value
        both = self.bound(scope, g.left, g.right)
        if both:
            x, y = both
            return (lambda env: (n, env[x], env[y]) in down), slots
        return (lambda env: (n, l(env), r(env)) in down), slots

    def checked_domain(self, index):
        """(the domain of index, None), or (None, a closure that raises the
        missing domain's or the budget's error when it is reached)."""
        try:
            dom = self.domain(index)
        except EvalError as e:
            return None, _fail(EvalError, str(e))
        if len(dom) > self.budget:
            return None, _fail(BudgetExceeded,
                               f"quantifier over {self.sort_name(index)} ranges over "
                               + above_budget(len(dom), "entities", self.budget))
        return dom, None

    def identity(self, s: Term, t: Term, gamma, scope: dict):
        """all v^gamma. v(s) <-> v(t) as one comparison: s and t have the
        same type-gamma owner rows.  As in the loop, the domain lookup and the
        budget come first, an empty domain makes it true without reading
        s or t, and s is read before t."""
        both = self.bound(scope, s, t)
        if both:
            slots = frozenset(both)
        else:
            l, ls = self.term(s, scope)
            r, rs = self.term(t, scope)
            slots = ls | rs
        dom, fail = self.checked_domain(gamma)
        if fail:
            return fail, slots
        if not dom:
            return (lambda env: True), _NO_SLOTS
        owners = self.m.converse(gamma.finite_value)
        if both:
            x, y = both
            return (lambda env: owners[env[x]] == owners[env[y]]), slots
        return (lambda env: owners[l(env)] == owners[r(env)]), slots

    def quantifier(self, g, scope: dict):
        """A loop over the domain, cached when its slots read are a strict
        subset of the slots in scope.  A quantifier whose body never reads
        its variable is its body on a non-empty domain and a constant on an
        empty one, after the same domain lookup and budget check.  In a
        typed model, `all v. v(s) <-> v(t)` with v in neither s nor t is
        an identity."""
        kind, v, body = type(g), g.var, g.body
        if (kind is Forall and type(body) is Iff and not self.sets
                and type(body.left) is Apply and type(body.right) is Apply
                and body.left.head == v and body.right.head == v):
            s, t = body.left.arg, body.right.arg
            if not (_reads(s, v) or _reads(t, v)):
                return self.identity(s, t, v.index, scope)
        slot = self.nslots
        self.nslots += 1
        inner = {**scope, self.keyof(v): slot}
        self.alive.append(inner)
        body, slots = self.node(body, inner)
        vacuous = slot not in slots
        if not vacuous:
            slots = slots - {slot}
        dom, fail = self.checked_domain(v.index)
        if fail:
            return fail, slots
        if vacuous:
            return (body, slots) if dom else (_EMPTY_RANGE[kind], _NO_SLOTS)
        loop = _LOOPS[kind](dom, slot, body)
        if self.cacheable(slots, scope):
            return _cached(loop, slots), slots
        return loop, slots

    def cacheable(self, slots: FrozenSet[int], scope: dict) -> bool:
        """Whether the slots a loop reads are a strict subset of the slots
        in scope and the free atoms'."""
        return slots < {*scope.values(), *self.free.values()}


def _forall(dom, slot: int, body):
    """The loop of `all`: body true with each entity of dom in the slot."""
    def loop(env):
        for e in dom:
            env[slot] = e
            if not body(env):
                return False
        return True
    return loop


def _exists(dom, slot: int, body):
    """The loop of `some`: body true with some entity of dom in the slot."""
    def loop(env):
        for e in dom:
            env[slot] = e
            if body(env):
                return True
        return False
    return loop


_LOOPS = {Forall: _forall, Exists: _exists}
# each quantifier's value over an empty domain
_EMPTY_RANGE = {Forall: lambda env: True, Exists: lambda env: False}


def _cached(loop, slots):
    """loop, its value kept per values of the slots it reads."""
    key = itemgetter(*sorted(slots)) if slots else (lambda env: ())
    cache: Dict = {}

    def cached(env):
        k = key(env)
        got = cache.get(k)
        if got is None:
            got = cache[k] = loop(env)
        return got
    return cached


def _reads(t: Term, v: Term) -> bool:
    """Whether the term t reads the variable v, by name and index."""
    a = base_atom(t)
    return a.name == v.name and a.index == v.index


# node type -> its builder in a typed model; a graph's table differs only
# in the membership atoms and projection.
_BUILD = {Sugar: _Compiler.sugar, Not: _Compiler.negation,
          And: _Compiler.binary, Or: _Compiler.binary,
          Implies: _Compiler.binary, Iff: _Compiler.binary,
          Forall: _Compiler.quantifier, Exists: _Compiler.quantifier,
          Apply: _Compiler.membership, StrictEq: _Compiler.equality,
          InSet: _Compiler.untyped, DownRel: _Compiler.projection}
_SET_BUILD = {**_BUILD, Apply: _Compiler.unevaluable, InSet: _Compiler.membership,
              DownRel: _Compiler.unevaluable}


def counterexamples(m: Structure, atoms: Sequence[Term], f: Formula,
                    budget: int = DEFAULT_BUDGET):
    """(assignments checked, the atoms' values) at each assignment to atoms,
    in product order over their domains, that makes f false in m (a Model
    or a MembershipGraph); then (all assignments, None).  f is compiled
    once, so a quantifier's cache serves every assignment.  Its other free
    atoms stay unassigned, and of atoms sharing a key, the later wins.
    Domains are looked up in atom order, up to the first empty one."""
    c = _Compiler(m, budget)
    root, env, slots = c.compile(f, [c.keyof(a) for a in atoms])
    domains = []
    for a in atoms:
        domains.append(c.domain(a.index))
        if not domains[-1]:
            break
    checked = 0
    for checked, values in enumerate(product(*domains), 1):
        for slot, e in zip(slots, values):
            env[slot] = e
        if not root(env):
            yield checked, values
    yield checked, None


def eval_formula(m: Structure, f: Formula, assignment: Optional[Assignment] = None,
                 budget: int = DEFAULT_BUDGET) -> bool:
    """Classical truth value of f in m (a Model or a MembershipGraph) under
    the assignment, which keys each term by (name, index); a graph's
    variable has the index None.  Errors (an unassigned term, a missing
    domain, a domain of more than `budget` entities) are raised only when
    the offending node is reached; an ill-formed sugar raises when f is
    compiled."""
    assignment = assignment or {}
    root, env, slots = _Compiler(m, budget).compile(f, assignment)
    for slot, v in zip(slots, assignment.values()):
        env[slot] = v
    return root(env)
