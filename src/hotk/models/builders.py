"""Canonical model builders: class hierarchy, pure hierarchy, the tuple
model of the finitary theory, its projection companion, the raised-type
companion, and graph-backed structures."""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from hotk.errors import BudgetExceeded, EvalError, GraphError
from hotk.graphs import MembershipGraph, brace_name, canonical_key, powerset
from hotk.models.core import DEFAULT_BUDGET, Model


def hierarchy_levels(urelements: int, height: int, budget: int):
    """Levels U_1..U_height of the class semantics as name/member tables."""
    members: Dict[str, FrozenSet[str]] = {}
    urs = [f"u{i}" for i in range(urelements)]
    for u in urs:
        members[u] = frozenset()
    empty = brace_name([])
    members[empty] = frozenset()
    level = sorted(urs + [empty], key=canonical_key)
    levels = [level]
    for _ in range(height - 1):
        if 2 ** len(level) + urelements > budget:
            raise BudgetExceeded(
                f"powerset of {len(level)} entities exceeds budget {budget}")
        nxt = set(urs)
        for subset in powerset(level):
            nm = brace_name(subset)
            members.setdefault(nm, frozenset(subset))
            nxt.add(nm)
        level = sorted(nxt, key=canonical_key)
        levels.append(level)
    return levels, members


def build_class_model(urelement_count: int, height: int,
                      budget: int = DEFAULT_BUDGET) -> Model:
    """Cumulative class-semantics model: type a entities are the members of
    U_{a+1}, where U_1 = U + {empty} and U_{a+1} = powerset(U_a) + U."""
    if height < 1:
        raise EvalError("height must be at least 1")
    if urelement_count < 0:
        raise EvalError("urelement count must not be negative")
    levels, members = hierarchy_levels(urelement_count, height, budget)
    return Model(kind="class", max_type=height - 1,
                 domains=tuple(tuple(l) for l in levels), members=members,
                 cumulative=True,
                 meta={"urelements": urelement_count, "height": height})


def build_pure_model(height: int, budget: int = DEFAULT_BUDGET) -> Model:
    """Pure cumulative hierarchy: one type 0 entity, type n = all
    hereditarily pure sets of rank <= n.  Capped at five levels."""
    if not 1 <= height <= 5:
        raise EvalError("pure hierarchy heights run from 1 to 5")
    levels, members = hierarchy_levels(0, height, budget)
    return Model(kind="pure", max_type=height - 1,
                 domains=tuple(tuple(l) for l in levels), members=members,
                 cumulative=True, meta={"height": height})


def fjt_counts(n: int) -> int:
    """h(0) = 1 and h(n+1) = 2^(h(0)+...+h(n))."""
    sizes = [1]
    for _ in range(n):
        sizes.append(2 ** sum(sizes))
    return sizes[n]


def build_fjt_canonical(height: int, budget: int = DEFAULT_BUDGET) -> Model:
    """The canonical pure extensional model of the finitary theory: a type n
    entity is a tuple of extensions, one per lower type; types never share
    entities."""
    if not 0 <= height <= 3:
        raise EvalError("canonical model heights run from 0 to 3")
    domains = [("o",)]
    members: Dict[str, FrozenSet[str]] = {"o": frozenset()}
    name_of: Dict[object, str] = {"o": "o"}
    objects = [["o"]]
    for n in range(height):
        expected = fjt_counts(n + 1)
        if expected > budget:
            raise BudgetExceeded(f"type {n + 1} needs {expected} entities")
        tuples = [()]
        for lower in objects:
            tuples = [t + (frozenset(s),) for t in tuples for s in powerset(lower)]
        names = []
        for t in tuples:
            nm = "(" + "|".join(brace_name(slot) for slot in t) + ")"
            name_of[t] = nm
            members[nm] = frozenset().union(*t) if t else frozenset()
            names.append(nm)
        names.sort(key=canonical_key)
        domains.append(tuple(names))
        objects.append(names)
    return Model(kind="fjt", max_type=height,
                 domains=tuple(tuple(d) for d in domains), members=members,
                 cumulative=False, meta={"height": height})


def build_sttu_companion(m: Model) -> Model:
    """Add the raising map to a pure cumulative model: each entity's unique
    copy one type up is itself."""
    if m.kind not in ("pure", "class") or not m.cumulative:
        raise EvalError("raised-type companion needs a cumulative hierarchy model")
    up = {(n, e): e for n in range(m.max_type) for e in m.domains[n]}
    return Model(kind=m.kind, max_type=m.max_type, domains=m.domains,
                 members=m.members, cumulative=True, open_above=m.open_above,
                 up_map=up, meta=dict(m.meta, companion="up"))


def build_sttd_companion(m: Model) -> Model:
    """Add the projection relation to a canonical tuple model: b at type n+1
    projects to a at type n iff they are coextensive at every type < n."""
    if m.kind != "fjt":
        raise EvalError("projection companion needs the canonical tuple model")
    down = set()
    for hi in range(2, m.max_type + 1):
        lows = [frozenset(m.domains[i]) for i in range(hi - 1)]
        below: Dict[tuple, list] = {}   # extension key -> type-(hi-1) entities
        for a in m.domains[hi - 1]:
            am = m.members[a]
            below.setdefault(tuple(am & d for d in lows), []).append(a)
        for b in m.domains[hi]:
            bm = m.members[b]
            for a in below.get(tuple(bm & d for d in lows), ()):
                down.add((hi, b, a))
    return Model(kind="fjt", max_type=m.max_type, domains=m.domains,
                 members=m.members, cumulative=False, down_rel=down,
                 meta=dict(m.meta, companion="down"))


def build_graph_model(g: MembershipGraph, rho: Optional[Dict[str, int]] = None,
                      height: Optional[int] = None) -> Model:
    """Cumulative model over graph nodes: type n entities are the nodes of
    rank label <= n, application is the edge relation."""
    if rho is None:
        rho = g.ranks
    if rho is None:
        rho = g.structural_ranks()
    missing = [n for n in g.nodes if n not in rho]
    if missing:
        raise GraphError(f"rank labels missing for {missing}")
    top = max(rho.values()) if rho else 0
    if height is None:
        height = top
    if top > height:
        raise GraphError(f"rank labels reach {top}, above height {height}")
    domains = tuple(tuple(sorted((n for n in g.nodes if rho[n] <= k),
                                 key=canonical_key))
                    for k in range(height + 1))
    if not domains[-1]:
        raise GraphError("empty graph model")
    members = {a: g.members(a) for a in g.nodes}
    return Model(kind="graph", max_type=height, domains=domains,
                 members=members, cumulative=True, open_above=True,
                 meta={"nodes": len(g.nodes)})


def count_entities(m: Model, n: int) -> int:
    if not 0 <= n <= m.max_type:
        raise ValueError(f"model has no type {n}")
    return len(m.domains[n])
