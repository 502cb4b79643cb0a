"""Directed membership graphs.

Nodes are name strings; an edge (x, a) says x is a member of a.  A graph
whose node names are all canonical brace codes ("{}", "{{}}", ...) that
agree with its edges is transitive in the set-theoretic sense; the
non-well-founded fixtures deliberately are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Optional, Tuple

from hotk.errors import GraphError, check_json

_GRAPH_SHAPE = {"nodes": [str], "edges": [(str, str)], "ranks": {str: int}}


def brace_name(member_names) -> str:
    return "{" + ",".join(sorted(member_names, key=lambda s: (len(s), s))) + "}"


def parse_brace_name(name: str) -> Optional[FrozenSet[str]]:
    """Member names encoded in a canonical brace code, or None if not a code."""
    if not (name.startswith("{") and name.endswith("}")):
        return None
    inner = name[1:-1]
    if not inner:
        return frozenset()
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return None
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    if depth != 0:
        return None
    parts.append(inner[start:])
    return frozenset(parts)


@dataclass(frozen=True)
class MembershipGraph:
    nodes: Tuple[str, ...]
    edges: FrozenSet[Tuple[str, str]]          # (member, owner)
    ranks: Optional[Dict[str, int]] = None     # explicit labels for fixtures

    def __post_init__(self):
        names = set(self.nodes)
        if len(names) != len(self.nodes):
            raise GraphError("duplicate node names")
        for x, a in self.edges:
            if x not in names or a not in names:
                raise GraphError(f"edge ({x}, {a}) mentions a missing node")

    def members(self, a: str) -> FrozenSet[str]:
        return self._member_map.get(a, frozenset())

    @cached_property
    def _member_map(self) -> Dict[str, FrozenSet[str]]:
        out: Dict[str, set] = {a: set() for a in self.nodes}
        for x, a in self.edges:
            out[a].add(x)
        return {a: frozenset(s) for a, s in out.items()}

    def subset(self, x: str, c: str) -> bool:
        return self.members(x) <= self.members(c)

    @cached_property
    def transitive(self) -> bool:
        """True iff node names are set codes, hereditarily present, matching edges."""
        names = set(self.nodes)
        for a in self.nodes:
            code = parse_brace_name(a)
            if code is None:
                return False
            if not code <= names:
                return False
            if code != self.members(a):
                return False
        return True

    @cached_property
    def well_founded(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self):
        """A membership cycle [a0, a1, ..., a0] if one exists, else None."""
        color: Dict[str, int] = {}
        stack: list = []

        def visit(a):
            color[a] = 1
            stack.append(a)
            for x in sorted(self.members(a), key=lambda s: (len(s), s)):
                c = color.get(x, 0)
                if c == 1:
                    return stack[stack.index(x):] + [x]
                if c == 0:
                    got = visit(x)
                    if got:
                        return got
            stack.pop()
            color[a] = 2
            return None

        for a in self.nodes:
            if color.get(a, 0) == 0:
                got = visit(a)
                if got:
                    return got
        return None

    @cached_property
    def extensional_witness(self):
        """A pair of distinct nodes with identical member sets, else None."""
        seen: Dict[FrozenSet[str], str] = {}
        for a in sorted(self.nodes, key=lambda s: (len(s), s)):
            ms = self.members(a)
            if ms in seen:
                return (seen[ms], a)
            seen[ms] = a
        return None

    def structural_ranks(self) -> Dict[str, int]:
        """rank(x) = sup of member ranks + 1; needs well-foundedness."""
        cyc = self.find_cycle()
        if cyc:
            raise GraphError(f"ill-founded graph (cycle {' -> '.join(cyc)})")
        memo: Dict[str, int] = {}

        def rank_of(a):
            if a in memo:
                return memo[a]
            ms = self.members(a)
            memo[a] = 0 if not ms else max(rank_of(x) for x in ms) + 1
            return memo[a]

        for a in self.nodes:
            rank_of(a)
        return memo

    def ord(self) -> int:
        """Least missing rank: max structural rank + 1 (0 for the empty graph)."""
        ranks = self.structural_ranks()
        return max(ranks.values()) + 1 if ranks else 0

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        doc = {"nodes": list(self.nodes),
               "edges": sorted([list(e) for e in self.edges])}
        if self.ranks is not None:
            doc["ranks"] = dict(sorted(self.ranks.items()))
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, doc: dict) -> "MembershipGraph":
        check_json(doc, _GRAPH_SHAPE, ("nodes", "edges"), "graph", GraphError)
        return cls(nodes=tuple(doc["nodes"]),
                   edges=frozenset((x, a) for x, a in doc["edges"]),
                   ranks=dict(doc["ranks"]) if "ranks" in doc else None)

    @classmethod
    def loads(cls, text: str) -> "MembershipGraph":
        return cls.from_json(json.loads(text))


def graph_from_sets(sets) -> MembershipGraph:
    """Canonical graph over a collection of hereditarily finite frozensets."""
    names: Dict[frozenset, str] = {}

    def name_of(s) -> str:
        if s not in names:
            names[s] = brace_name(name_of(m) for m in s)
        return names[s]

    node_names = sorted((name_of(s) for s in sets), key=lambda s: (len(s), s))
    present = set(node_names)
    edges = set()
    rev = {v: k for k, v in names.items()}
    for n in node_names:
        for m in rev[n]:
            mn = names[m]
            if mn in present:
                edges.add((mn, n))
    g = MembershipGraph(tuple(node_names), frozenset(edges))
    return MembershipGraph(g.nodes, g.edges, ranks=g.structural_ranks())
