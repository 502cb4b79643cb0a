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
from operator import itemgetter
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


def _fail(error, message: str):
    """A closure that raises when it is reached, never when it is built."""
    def fail(env):
        raise error(message)
    return fail


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

    A quantifier whose free slots are a strict subset of the slots in scope
    caches its value keyed by those slots' values.  The cache lives as
    long as the compiled function, so it also serves later assignments.
    Errors (unassigned terms, missing domains, a domain of more than
    `budget` entities) are raised only when the offending node is reached.
    """
    return _compile_expanded(m, expand_abbreviations(f, None), budget)


def _compile_expanded(m: Structure, f: Formula,
                      budget: int = DEFAULT_BUDGET) -> Compiled:
    """compile_formula for an f that holds no sugar, which it does not
    expand again (decisions and axiom checks have expanded it already)."""
    graph = isinstance(m, MembershipGraph)
    root, blank, free = _compile_slots(m, f, free_atoms(f), budget)
    free_slots = tuple(free.items())

    def run(assignment: Optional[Assignment] = None) -> bool:
        env = blank.copy()
        if assignment:
            if graph:
                assignment = {k if isinstance(k, str) else k[0]: v
                              for k, v in assignment.items()}
            for k, i in free_slots:
                env[i] = assignment.get(k, _UNSET)
        return root(env)
    return run


def _compile_slots(m: Structure, f: Formula, atoms: Iterable[Term],
                   budget: int = DEFAULT_BUDGET):
    """(root, env, free) for an f with no sugar: root maps a list
    environment to f's truth value, env has every slot _UNSET, and free
    numbers the keys (names in a graph) of atoms, f's free atoms among
    them, from 0 up in order of first appearance; binders' slots follow."""
    graph = isinstance(m, MembershipGraph)
    keyof = (lambda t: t.name) if graph else akey
    free: Dict = {}
    for a in atoms:
        free.setdefault(keyof(a), len(free))
    nfree = nslots = len(free)

    def term(t: Term, scope: dict):
        """(getter, slots read) for a term."""
        if isinstance(t, Raised):
            if graph:
                return (_fail(EvalError, "raised term in a set-language formula"),
                        frozenset())
            inner, slots = term(t.inner, scope)
            n = term_index(t.inner)
            up = m.up_map
            if n is None or not n.is_finite:
                err = f"cannot raise a term of type {n}"
            elif up is None:
                err = "model has no raising map"
            else:
                err = None

            def raised(env):
                e = inner(env)
                if err is not None:
                    raise EvalError(err)
                got = up.get((n.finite_value, e), _UNSET)
                if got is _UNSET:
                    raise EvalError(f"raising map undefined at type {n} for {e}")
                return got
            return raised, slots
        slot = scope[keyof(t)]
        if slot >= nfree:
            return itemgetter(slot), frozenset([slot])

        def free_term(env):
            e = env[slot]
            if e is _UNSET:
                raise EvalError(f"unassigned set variable {t.name}" if graph
                                else f"unassigned free term {t.name}^{t.index}")
            return e
        return free_term, frozenset([slot])

    def node(g: Formula, scope: dict):
        """(closure, slots read) for a formula node."""
        if isinstance(g, Not):
            body, slots = node(g.body, scope)
            return (lambda env: not body(env)), slots
        if isinstance(g, (And, Or, Implies, Iff)):
            l, ls = node(g.left, scope)
            r, rs = node(g.right, scope)
            if isinstance(g, And):
                fn = lambda env: l(env) and r(env)
            elif isinstance(g, Or):
                fn = lambda env: l(env) or r(env)
            elif isinstance(g, Implies):
                fn = lambda env: not l(env) or r(env)
            else:
                fn = lambda env: l(env) == r(env)
            return fn, ls | rs
        if isinstance(g, (Forall, Exists)):
            return quantifier(g, scope)
        if isinstance(g, Apply):
            h, hs = term(g.head, scope)
            a, as_ = term(g.arg, scope)
            if graph:
                return (_fail(EvalError, f"cannot evaluate set formula node {g!r}"),
                        hs | as_)
            members = m.members

            def apply(env):
                b = h(env)
                return a(env) in members.get(b, _EMPTY)
            return apply, hs | as_
        if not isinstance(g, (StrictEq, DownRel, InSet)):
            raise TypeError(f"unknown formula node {g!r}")
        l, ls = term(g.left, scope)
        r, rs = term(g.right, scope)
        slots = ls | rs
        if isinstance(g, StrictEq):
            return (lambda env: l(env) == r(env)), slots
        if isinstance(g, InSet):
            if not graph:
                return (_fail(EvalError, "untyped membership atom in a typed model"),
                        slots)
            members = m.members
            return (lambda env: l(env) in members(r(env))), slots
        if graph:
            return _fail(EvalError, f"cannot evaluate set formula node {g!r}"), slots
        hi = term_index(g.left)
        if m.down_rel is None:
            return _fail(EvalError, "model has no projection relation"), slots
        if hi is None or not hi.is_finite:
            return _fail(EvalError, f"bad projection type {hi}"), slots
        n, down = hi.finite_value, m.down_rel
        return (lambda env: (n, l(env), r(env)) in down), slots

    def quantifier(g, scope: dict):
        nonlocal nslots
        slot = nslots
        nslots += 1
        body, slots = node(g.body, {**scope, keyof(g.var): slot})
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
        if not slots < set(scope.values()):
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

    root, _ = node(f, dict(free))
    return root, [_UNSET] * nslots, free


def counterexamples(m: Model, atoms: Sequence[Term], f: Formula,
                    others: Iterable[Term] = (), budget: int = DEFAULT_BUDGET):
    """(assignments checked, the atoms' values) at each assignment to atoms,
    in product order over their domains, that makes f (no sugar) false;
    then (all assignments, None).  f is compiled once over atoms and then
    others, which stay unassigned; of atoms sharing a key, the later wins.
    Domains are looked up in atom order, up to the first empty one."""
    root, env, free = _compile_slots(m, f, (*atoms, *others), budget)
    slots = [free[akey(a)] for a in atoms]
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
    the assignment; see compile_formula."""
    return compile_formula(m, f, budget)(assignment)
