"""Directed membership graphs.

Nodes are name strings; an edge (x, a) says x is a member of a.  A graph
is transitive, in the set-theoretic sense, when every node is named by the
canonical brace code of its members, `brace_name(members(node))` ("{}",
"{{}}", "{{},{{}}}", ...): members listed once each, shortest first, then
by text.  The non-well-founded fixtures deliberately are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from typing import Dict, FrozenSet, List, Optional, Tuple

from hotk.errors import (BudgetExceeded, GraphError, above_budget, check_json,
                         load_json)

_GRAPH_SHAPE = {"nodes": [str], "edges": [(str, str)], "ranks": {str: int}}


def canonical_key(name: str) -> Tuple[int, str]:
    """Sort key of node and entity names: shorter first, then by text."""
    return (len(name), name)


def brace_name(member_names) -> str:
    """The canonical brace code of a set whose members have these names."""
    return "{" + ",".join(sorted(member_names, key=canonical_key)) + "}"


def powerset(items):
    """Every subset of items as a tuple, smallest first, in combinations order."""
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def first_unrealized(doms, realized, budget: int):
    """The first tuple of subsets of doms, in powerset and product order,
    whose frozensets are not a tuple in `realized`, or None.  Every tuple in
    `realized` must lie inside doms, so all are realized, at no charge, when
    as many distinct ones are as exist.  Only a shortfall walks the tuples,
    and it raises BudgetExceeded first if they are more than budget."""
    total = 2 ** sum(map(len, doms))
    if len(realized) < total:
        if total > budget:
            raise BudgetExceeded(above_budget(total, "tuples of subsets", budget))
        for combo in product(*map(powerset, doms)):
            if tuple(map(frozenset, combo)) not in realized:
                return combo
    return None


def ord_of_ranks(ranks: Dict[str, int]) -> int:
    """Least missing rank: max rank + 1 (0 for the empty graph)."""
    return max(ranks.values(), default=-1) + 1


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
        return self.member_map.get(a, frozenset())

    @cached_property
    def member_map(self) -> Dict[str, FrozenSet[str]]:
        """Each node's member set, read as a Model's `members` is."""
        out: Dict[str, set] = {a: set() for a in self.nodes}
        for x, a in self.edges:
            out[a].add(x)
        return {a: frozenset(s) for a, s in out.items()}

    def subset(self, x: str, c: str) -> bool:
        return self.members(x) <= self.members(c)

    @cached_property
    def transitive(self) -> bool:
        """True iff every node is named by the canonical brace code of its
        members, brace_name(members(node)).  No name contains itself, so
        such a graph has no membership cycle."""
        return all(a == brace_name(self.members(a)) for a in self.nodes)

    def _depth_first(self) -> Tuple[List[str], Optional[List[str]]]:
        """Depth-first search from each node in turn, members in canonical
        order: the nodes in post-order, up to the first cycle met, if any."""
        finished: Dict[str, bool] = {}      # False while on the path
        order: List[str] = []
        path: List[str] = []
        pending = [iter(self.nodes)]
        while pending:
            for x in pending[-1]:
                if x not in finished:
                    finished[x] = False
                    path.append(x)
                    pending.append(iter(sorted(self.members(x), key=canonical_key)))
                    break
                if not finished[x]:
                    return order, path[path.index(x):] + [x]
            else:
                pending.pop()
                if path:
                    order.append(path.pop())
                    finished[order[-1]] = True
        return order, None

    def find_cycle(self):
        """A membership cycle [a0, a1, ..., a0] if one exists, else None."""
        return self._depth_first()[1]

    def postorder(self) -> List[str]:
        """Every node after all of its members; needs well-foundedness."""
        order, cycle = self._depth_first()
        if cycle:
            raise GraphError(f"ill-founded graph (cycle {' -> '.join(cycle)})")
        return order

    @cached_property
    def extensional_witness(self):
        """A pair of distinct nodes with identical member sets, else None."""
        seen: Dict[FrozenSet[str], str] = {}
        for a in sorted(self.nodes, key=canonical_key):
            ms = self.members(a)
            if ms in seen:
                return (seen[ms], a)
            seen[ms] = a
        return None

    def structural_ranks(self) -> Dict[str, int]:
        """rank(x) = sup of member ranks + 1; needs well-foundedness.

        Computed once per graph (an ill-founded graph raises every time);
        every call returns the same dict, which callers must not change."""
        return self._structural_ranks

    @cached_property
    def _structural_ranks(self) -> Dict[str, int]:
        ranks: Dict[str, int] = {}
        for a in self.postorder():
            ranks[a] = max((ranks[x] + 1 for x in self.members(a)), default=0)
        return ranks

    def ord(self) -> int:
        """Least missing structural rank."""
        return ord_of_ranks(self.structural_ranks())

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
        check_json(doc, _GRAPH_SHAPE, ("nodes", "edges"), "graph file", GraphError)
        return cls(nodes=tuple(doc["nodes"]),
                   edges=frozenset((x, a) for x, a in doc["edges"]),
                   ranks=dict(doc["ranks"]) if "ranks" in doc else None)

    @classmethod
    def loads(cls, text: str) -> "MembershipGraph":
        return cls.from_json(load_json(text, "graph file", GraphError))

