"""Finite typed structures and formula evaluation.

Every bundled model is membership-backed: apply(b, a) asks whether a is in
b's member set, which covers the cumulative hierarchies, the tuple-extension
models (a member's own shape determines which slot it sits in), and graph
structures alike.  Entities are canonical name strings, so a model survives
a JSON round trip byte-for-byte.

Formulas are evaluated by compiling them once into closures (Feeley and
Lapalme, "Using closures for code generation", Computer Languages 12(1),
1987); the same compiler serves typed models and membership graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter, itemgetter
from typing import (Callable, Dict, FrozenSet, Iterable, Optional, Sequence,
                    Set, Tuple, Union)

from hotk.errors import (BudgetExceeded, EvalError, HotkError, check_json,
                         load_json)
from hotk.graphs import MembershipGraph, canonical_key
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.indices import TypeIndex
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall, Formula,
                                Iff, Implies, InSet, Not, Or, Raised,
                                StrictEq, Term, free_atoms, term_index)

Entity = str
Assignment = Dict[Tuple[str, Optional[TypeIndex]], Entity]

DEFAULT_BUDGET = 10**6

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

    def domain(self, index: TypeIndex) -> Tuple[Entity, ...]:
        if not index.is_finite:
            raise EvalError(f"type bound exceeded: no transfinite domain {index}")
        n = index.finite_value
        if not self.reaches(n):
            raise EvalError(f"type bound exceeded: model has no type {n}")
        return self.domains[min(n, self.max_type)]

    def reaches(self, n: int) -> bool:
        """Whether type n has a domain: every type up to the height, and
        every type above it in an open cumulative model."""
        return n <= self.max_type or (self.cumulative and self.open_above)

    def applies(self, b: Entity, a: Entity) -> bool:
        return a in self.members.get(b, frozenset())

    def extension(self, e: Entity, n: int) -> FrozenSet[Entity]:
        dom = frozenset(self.domain(TypeIndex(0, n)))
        return self.members.get(e, frozenset()) & dom

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


def akey(t: Term) -> Tuple[str, Optional[TypeIndex]]:
    if isinstance(t, Raised):
        raise EvalError("raised terms are not assignment keys")
    return (t.name, t.index)


Structure = Union[Model, MembershipGraph]
Compiled = Callable[[Optional[Assignment]], bool]

_UNSET = object()       # value of a free slot the assignment leaves out
_EMPTY: FrozenSet[Entity] = frozenset()
_NO_SLOTS: FrozenSet[int] = frozenset()


def _fail(error, message: str):
    """A closure that raises when it is reached, never when it is built."""
    def fail(env):
        raise error(message)
    return fail


def _true(env):
    return True


def _false(env):
    return False


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


def compile_formula(m: Structure, f: Formula,
                    budget: int = DEFAULT_BUDGET) -> Compiled:
    """Compile f once for m into a function from assignments to truth values.

    Sugar is expanded here, once.  Every free atom and every binder gets a
    slot in a list environment and every node becomes a closure over it.
    In a typed Model a quantifier ranges over the full domain of its
    variable's type (cumulative or not, as the model dictates); in a
    MembershipGraph, the structure of the untyped set language, every
    quantifier ranges over the nodes, variables are keyed by name alone and
    InSet(x, a) holds when x is a member of a.

    Every free atom of f is numbered before the walk, so that a quantifier
    whose slots read are a strict subset of the slots in scope (every free
    slot and the binders around it) caches its value keyed by those slots'
    values.  The cache lives as long as the compiled function, so it also
    serves later assignments.  Errors (unassigned terms, missing domains, a
    domain of more than `budget` entities) are raised only when the
    offending node is reached.
    """
    f = expand_abbreviations(f, None)
    graph = isinstance(m, MembershipGraph)
    keys = [a.name if graph else akey(a) for a in free_atoms(f)]
    root, blank, slots = _compile_slots(m, f, keys, budget)
    free_slots = tuple(zip(keys, slots))

    def run(assignment: Optional[Assignment] = None) -> bool:
        env = blank.copy()
        if assignment:
            if graph:
                assignment = _names(assignment)
            for k, i in free_slots:
                env[i] = assignment.get(k, _UNSET)
        return root(env)
    return run


def _names(assignment: Assignment) -> Dict[str, Entity]:
    """A graph assignment keyed by names alone."""
    return {k if isinstance(k, str) else k[0]: v for k, v in assignment.items()}


def _compile_slots(m: Structure, f: Formula, keys: Iterable,
                   budget: int = DEFAULT_BUDGET, assigned: bool = False):
    """(root, env, slots) for an f with no sugar: root maps a list
    environment to f's truth value, env has every slot _UNSET, and slots
    holds the slot of each assignment key in `keys` ((name, index) pairs,
    names in a graph).  The keys are numbered from 0 up, then each other
    free atom of f where the walk first meets it.  When `assigned`, the
    caller fills every key's slot before each run, so its terms read the
    list directly, as bound variables do."""
    c = _Compiler(m, keys, budget)
    root, _ = c.node(f, dict(c.free) if assigned else {})
    return root, [_UNSET] * c.nslots, c.given


def _slot_key(name: str, index: Optional[TypeIndex]):
    """A typed term's key in the compiler's tables: its name and index, the
    index spelled as its two naturals, which hash faster than a TypeIndex."""
    if index is None:
        return name, None
    return name, index.omega_coeff, index.finite_part


class _Compiler:
    """One walk of a sugar-free formula over one structure.

    A scope maps the keys of the binders around a node to their slots.  A
    subformula is compiled once per scope: `memo` maps (id(node),
    id(scope)) to its (closure, slots read), and `scopes` keeps every scope
    it names alive.  So a subtree that occurs twice in one scope (a round
    trip's unchanged image, say) becomes one closure, and a binary
    connective of a closure with itself reduces to that closure (& and |)
    or runs it once and holds (-> and <->).  No closure refers back to the
    compiler, so the memo goes when the compile returns.
    """

    def __init__(self, m: Structure, keys: Iterable, budget: int):
        self.m, self.budget = m, budget
        self.graph = isinstance(m, MembershipGraph)
        self.keyof = (attrgetter("name") if self.graph
                      else lambda t: _slot_key(t.name, t.index))
        self.free: Dict = {}        # key -> slot, for every free atom
        self.given = []             # the slot of each of `keys`
        for k in keys:
            k = k if self.graph else _slot_key(*k)
            self.given.append(self.free.setdefault(k, len(self.free)))
        self.nslots = len(self.free)
        self.memo: Dict = {}
        self.scopes = []

    def node(self, g: Formula, scope: dict):
        """(closure, slots read) for a formula node, built once per scope."""
        key = (id(g), id(scope))
        got = self.memo.get(key)
        if got is None:
            build = _BUILD.get(type(g))
            if build is None:
                raise TypeError(f"unknown formula node {g!r}")
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
        """(getter, slots read) for a term; a free atom met for the first
        time gets the next slot."""
        m, graph = self.m, self.graph
        if isinstance(t, Raised):
            if graph:
                return (_fail(EvalError, "raised term in a set-language formula"),
                        _NO_SLOTS)
            inner, slots = self.term(t.inner, scope)
            n = term_index(t.inner)
            up = m.up_map
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

        def free_term(env):
            e = env[slot]
            if e is _UNSET:
                raise EvalError(f"unassigned set variable {t.name}" if graph
                                else f"unassigned free term {t.name}^{t.index}")
            return e
        return free_term, frozenset([slot])

    def negation(self, g: Not, scope: dict):
        body, slots = self.node(g.body, scope)
        return (lambda env: not body(env)), slots

    def binary(self, g, scope: dict):
        l, ls = self.node(g.left, scope)
        r, rs = self.node(g.right, scope)
        join, same = _CONNECTIVES[type(g)]
        return (same(l) if l is r else join(l, r)), ls | rs

    def application(self, g: Apply, scope: dict):
        both = None if self.graph else self.bound(scope, g.head, g.arg)
        members = self.m.members
        if both:
            x, y = both
            return ((lambda env: env[y] in members.get(env[x], _EMPTY)),
                    frozenset(both))
        h, hs = self.term(g.head, scope)
        a, as_ = self.term(g.arg, scope)
        if self.graph:
            return (_fail(EvalError, f"cannot evaluate set formula node {g!r}"),
                    hs | as_)

        def apply(env):
            b = h(env)
            return a(env) in members.get(b, _EMPTY)
        return apply, hs | as_

    def equality(self, g: StrictEq, scope: dict):
        both = self.bound(scope, g.left, g.right)
        if both:
            x, y = both
            return (lambda env: env[x] == env[y]), frozenset(both)
        l, ls = self.term(g.left, scope)
        r, rs = self.term(g.right, scope)
        return (lambda env: l(env) == r(env)), ls | rs

    def membership(self, g: InSet, scope: dict):
        l, ls = self.term(g.left, scope)
        r, rs = self.term(g.right, scope)
        if not self.graph:
            return (_fail(EvalError, "untyped membership atom in a typed model"),
                    ls | rs)
        members = self.m.members
        return (lambda env: l(env) in members(r(env))), ls | rs

    def projection(self, g: DownRel, scope: dict):
        l, ls = self.term(g.left, scope)
        r, rs = self.term(g.right, scope)
        slots = ls | rs
        if self.graph:
            return _fail(EvalError, f"cannot evaluate set formula node {g!r}"), slots
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

    def quantifier(self, g, scope: dict):
        """A loop over the domain, cached when its slots read are a strict
        subset of the slots in scope.  A quantifier whose body never reads
        its variable is its body on a non-empty domain and a constant on an
        empty one, after the same domain lookup and budget check."""
        m, graph, budget = self.m, self.graph, self.budget
        slot = self.nslots
        self.nslots += 1
        inner = {**scope, self.keyof(g.var): slot}
        self.scopes.append(inner)
        body, slots = self.node(g.body, inner)
        vacuous = slot not in slots
        slots = slots - {slot}
        if graph:
            dom = m.nodes
        elif g.var.index is None:
            return _fail(EvalError, "untyped quantifier in a typed model"), slots
        else:
            try:
                dom = m.domain(g.var.index)
            except EvalError as e:
                return _fail(EvalError, str(e)), slots
        if len(dom) > budget:
            over = "the nodes" if graph else f"type {g.var.index}"
            return _fail(BudgetExceeded,
                         f"quantifier over {over} ranges over {len(dom)} "
                         f"entities, above budget {budget}"), slots
        if vacuous:
            if dom:
                return body, slots
            return (_true if isinstance(g, Forall) else _false), _NO_SLOTS
        if isinstance(g, Forall):
            def loop(env):
                for e in dom:
                    env[slot] = e
                    if not body(env):
                        return False
                return True
        else:
            def loop(env):
                for e in dom:
                    env[slot] = e
                    if body(env):
                        return True
                return False
        if not slots < {*scope.values(), *self.free.values()}:
            return loop, slots
        key = itemgetter(*sorted(slots)) if slots else (lambda env: ())
        cache: Dict = {}

        def cached(env):
            k = key(env)
            got = cache.get(k)
            if got is None:
                got = cache[k] = loop(env)
            return got
        return cached, slots


_BUILD = {Not: _Compiler.negation, And: _Compiler.binary, Or: _Compiler.binary,
          Implies: _Compiler.binary, Iff: _Compiler.binary,
          Forall: _Compiler.quantifier, Exists: _Compiler.quantifier,
          Apply: _Compiler.application, StrictEq: _Compiler.equality,
          InSet: _Compiler.membership, DownRel: _Compiler.projection}


def counterexamples(m: Model, atoms: Sequence[Term], f: Formula,
                    budget: int = DEFAULT_BUDGET):
    """(assignments checked, the atoms' values) at each assignment to atoms,
    in product order over their domains, that makes f (no sugar) false;
    then (all assignments, None).  f is compiled once, with atoms numbered
    first; its other free atoms stay unassigned, and of atoms sharing a
    key, the later wins.  Domains are looked up in atom order, up to the
    first empty one."""
    root, env, slots = _compile_slots(m, f, [akey(a) for a in atoms], budget,
                                      assigned=True)
    domains = []
    for a in atoms:
        domains.append(m.domain(a.index))
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
    the assignment; see compile_formula.  The assignment's keys are
    numbered first and f's other free atoms as the compile meets them."""
    assignment = assignment or {}
    if isinstance(m, MembershipGraph):
        assignment = _names(assignment)
    root, env, slots = _compile_slots(m, expand_abbreviations(f, None),
                                      assignment, budget, assigned=True)
    for slot, v in zip(slots, assignment.values()):
        env[slot] = v
    return root(env)
