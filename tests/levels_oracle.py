"""Reference level theory, kept as an oracle for hotk.settheory.

These are the hand-written loops that hotk.settheory ran before histories
and levels were evaluated from their `Hist`/`Lev` sugar and before one
counting scan (`graphs.first_unrealized`) decided every "all subsets
realized" question: each definition is written out a second time as a
Python loop over the graph, and standardness, full separation and typed
standardness each walk their own powersets.  T_construction builds its
rank-bounded domains itself, where the module reuses build_graph_model.
build_V iterates powersets of frozensets and names them with
graph_from_sets, where the module takes the last level of the pure
hierarchy's builder, and check_wellordering_of_levels looks for a least
level in every subset of the levels (in singletons only above 16 levels),
where the module looks for a membership cycle among them.  S_construction
evaluates membership with the tree-walking oracle at each node pair, where the
module takes the edges as the counterexamples of `~(a in b)`.
tests/test_levels_oracle.py compares their results with the module's.
"""

from __future__ import annotations

from typing import Iterable, List

from itertools import combinations

from hotk.errors import BudgetExceeded, EvalError, GraphError
from hotk.graphs import (MembershipGraph, brace_name, canonical_key,
                         ord_of_ranks, powerset)
from hotk.kernel.indices import fin, t_shunt
from hotk.kernel.syntax import Formula, Sugar, Var
from hotk.models.core import DEFAULT_BUDGET, Model, akey, eval_formula
from hotk.report import FAIL, PASS, SKIPPED, SuiteReport
from hotk.settheory import (endless_formula, infinity_formula,
                            separation_instance, stratification_formula)

from tree_eval import tree_evaluator


def graph_from_sets(sets) -> MembershipGraph:
    """Canonical graph over a collection of hereditarily finite frozensets."""
    names = {}

    def name_of(s) -> str:
        if s not in names:
            names[s] = brace_name(name_of(m) for m in s)
        return names[s]

    node_names = sorted((name_of(s) for s in sets), key=canonical_key)
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


def build_V(n: int, budget: int = DEFAULT_BUDGET) -> MembershipGraph:
    """Transitive graph of the pure hierarchy up to rank n (V_0 is empty)."""
    if n < 0:
        raise ValueError("n must be a natural")
    level: set = set()
    for _ in range(n):
        if 2 ** len(level) > budget:
            raise BudgetExceeded(f"powerset of {len(level)} sets exceeds budget")
        level = {frozenset(s) for s in powerset(level)}
    collected = set()
    stack = list(level)
    while stack:
        s = stack.pop()
        if s in collected:
            continue
        collected.add(s)
        stack.extend(s)
    return graph_from_sets(collected)


def is_history(g: MembershipGraph, h: str) -> bool:
    for a in g.members(h):
        for x in g.nodes:
            lhs = x in g.members(a)
            rhs = any(g.subset(x, c) and c in g.members(a) for c in g.members(h))
            if lhs != rhs:
                return False
    return True


def is_level(g: MembershipGraph, s: str) -> bool:
    for h in g.nodes:
        if not is_history(g, h):
            continue
        ok = True
        for x in g.nodes:
            lhs = x in g.members(s)
            rhs = any(g.subset(x, c) and c in g.members(h) for c in g.nodes)
            if lhs != rhs:
                ok = False
                break
        if ok:
            return True
    return False


def levels_of(g: MembershipGraph) -> List[str]:
    """All levels, sorted by member count (the in-order when B.3 holds)."""
    return sorted((s for s in g.nodes if is_level(g, s)),
                  key=lambda s: (len(g.members(s)), s))


def check_set_axioms(g: MembershipGraph, which: str = "lt",
                     separation_corpus: Iterable[Formula] = (),
                     budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """Check LT (extensionality, separation, stratification) or Zr (plus
    endless, infinity).  Separation is checked on the corpus and by direct
    subset search (every subset of every node's members realized)."""
    if which not in ("lt", "zr"):
        raise ValueError("which must be 'lt' or 'zr'")
    report = SuiteReport(subject=f"{which} on {len(g.nodes)}-node graph")
    n = len(g.nodes)
    brute_ok = n ** 3 <= budget   # the definitional checks nest three quantifiers

    wit = g.extensional_witness
    report.add("extensionality", PASS if wit is None else FAIL,
               witness=None if wit is None else f"{wit[0]} and {wit[1]} share members")

    member_sets = {g.members(a) for a in g.nodes}
    sep_fail = None
    skipped = False
    enumerated = 0
    for a in g.nodes:
        ms = sorted(g.members(a), key=canonical_key)
        enumerated += 2 ** len(ms)
        if enumerated > budget:
            skipped = True
            break
        for sub in powerset(ms):
            if frozenset(sub) not in member_sets:
                sep_fail = f"{a}: subset {brace_name(sub)} unrealized"
                break
        if sep_fail:
            break
    if sep_fail:
        report.add("separation-full", FAIL, witness=sep_fail)
    elif skipped:
        report.add("separation-full", SKIPPED, note="budget")
    else:
        report.add("separation-full", PASS)

    corpus = list(separation_corpus)
    if corpus and not brute_ok:
        report.add("separation-corpus", SKIPPED, note="budget")
    elif corpus:
        bad = None
        for i, phi in enumerate(corpus):
            if not eval_formula(g, separation_instance(phi)):
                bad = f"corpus formula #{i}"
                break
        report.add("separation-corpus", PASS if bad is None else FAIL,
                   witness=bad, note=f"{len(corpus)} instances")

    def brute(name, formula):
        if not brute_ok:
            report.add(name, SKIPPED, note="budget")
        else:
            report.add(name, PASS if eval_formula(g, formula) else FAIL)

    brute("stratification", stratification_formula())
    if which == "zr":
        brute("endless", endless_formula())
        brute("infinity", infinity_formula())
    return report


def is_standard(g: MembershipGraph, budget: int = DEFAULT_BUDGET) -> bool:
    """Every subset of every bounded-rank stratum is realized as a node.

    Checked for strata whose subsets still have room to appear (rank below
    the top); at the top rank no finite structure could qualify.
    """
    if not g.transitive:
        raise GraphError("standardness is defined for transitive graphs")
    ranks = g.structural_ranks()
    top = ord_of_ranks(ranks)
    member_sets = {g.members(a) for a in g.nodes}
    for alpha in range(top - 1):
        stratum = sorted((n for n in g.nodes if ranks[n] <= alpha),
                         key=canonical_key)
        if 2 ** len(stratum) > budget:
            raise BudgetExceeded(f"stratum of {len(stratum)} nodes at rank {alpha}")
        for sub in powerset(stratum):
            if frozenset(sub) not in member_sets:
                return False
    return True


def is_standard_typed(m: Model, budget: int = DEFAULT_BUDGET) -> bool:
    """Typed-model standardness: for each type below the greatest, some
    next-type property applies exactly to any given entities of that type."""
    for alpha in range(m.max_type):
        dom = m.domains[alpha]
        if 2 ** len(dom) > budget:
            raise BudgetExceeded(f"domain of {len(dom)} entities at type {alpha}")
        exts = {m.extension(z, alpha) for z in m.domains[alpha + 1]}
        for sub in powerset(dom):
            if frozenset(sub) not in exts:
                return False
    return True


def T_construction(g: MembershipGraph) -> Model:
    """Expand a transitive graph into a cumulative typed model: the type-b
    domain collects the nodes of rank <= b, application is membership.
    Ranks here are finite, so the rank-to-type shunt is the identity.

    Domains stabilize at the top rank, so the model is safe to query above
    its nominal height (every higher type has the same, full, domain)."""
    if not g.transitive:
        raise GraphError("the typed expansion needs a transitive graph")
    ranks = g.structural_ranks()
    top = ord_of_ranks(ranks)
    if top == 0:
        raise GraphError("cannot expand the empty graph")
    max_type = t_shunt(fin(top)).finite_value - 1
    domains = tuple(tuple(sorted((n for n in g.nodes if ranks[n] <= b),
                                 key=canonical_key))
                    for b in range(max_type + 1))
    members = {a: g.members(a) for a in g.nodes}
    return Model(kind="pure", max_type=max_type, domains=domains,
                 members=members, cumulative=True, open_above=True,
                 meta={"source": "t-construction", "ord": top})


def S_construction(m: Model, kappa: int) -> MembershipGraph:
    """Slice a cumulative typed model at one type: the domain is the type's
    entities, membership is the defined-membership relation, evaluated by
    the tree-walking oracle with one assignment dict per node pair."""
    if not 0 <= kappa <= m.max_type:
        raise EvalError(f"model has no type {kappa}")
    nodes = m.domains[kappa]
    k = fin(kappa)
    a, b = Var("a", k), Var("b", k)
    member = tree_evaluator(m, Sugar("in", (a, b)))
    edges = set()
    for x in nodes:
        for y in nodes:
            if member({akey(a): x, akey(b): y}):
                edges.add((x, y))
    return MembershipGraph(tuple(nodes), frozenset(edges))


def check_wellordering_of_levels(g: MembershipGraph, subset_budget: int = 2 ** 16) -> bool:
    """Trichotomy and least-witness clauses for the levels, plus the
    accumulation identity: every level is exactly the collection of things
    included in some level that is a member of it."""
    levels = levels_of(g)
    for s in levels:
        for t in levels:
            if s != t and not (s in g.members(t) or t in g.members(s)):
                return False
    if 2 ** len(levels) <= subset_budget:
        subsets = (c for r in range(1, len(levels) + 1)
                   for c in combinations(levels, r))
    else:
        subsets = ([s] for s in levels)   # linearity makes singletons enough
    for chosen in subsets:
        least = [s for s in chosen
                 if not any(r in g.members(s) for r in chosen if r != s)]
        if not least:
            return False
    for s in levels:
        expected = {x for x in g.nodes
                    if any(g.subset(x, r) and r in g.members(s) for r in levels)}
        if expected != g.members(s):
            return False
    return True
