"""Level theory over finite membership graphs.

Histories and levels are the `Hist`/`Lev` sugar of hotk.kernel.expand,
evaluated over the graph, and rank is read off the levels.  The level
theory LT (extensionality, separation, stratification) and its extension
Zr (endless, infinity) are checked on graphs; transitive graphs convert to
cumulative typed models and back via the slice construction and Mostowski
collapse.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from hotk.errors import BudgetExceeded, EvalError, GraphError, RankUndefined
from hotk.graphs import (MembershipGraph, brace_name, canonical_key,
                         first_unrealized, ord_of_ranks)
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.indices import fin
from hotk.kernel.parser import parse_formula
from hotk.kernel.syntax import (And, Exists, Forall, Formula, FreshNames, Iff,
                                InSet, Not, Sugar, Var, free_names)
from hotk.models.axioms import plain_comprehension_checks
from hotk.models.builders import build_graph_model, hierarchy_levels
from hotk.models.core import (DEFAULT_BUDGET, Model, counterexamples,
                              eval_formula)
from hotk.report import FAIL, PASS, SKIPPED, SuiteReport
from hotk.translate import kappa_translate


# ---------------------------------------------------------------------------
# The pure hierarchy as graphs.

def build_V(n: int, budget: int = DEFAULT_BUDGET) -> MembershipGraph:
    """Transitive graph of the pure hierarchy up to rank n (V_0 is empty):
    the last of the pure hierarchy's first n levels."""
    if n < 0:
        raise GraphError("n must be a natural")
    levels, members = hierarchy_levels(0, n, budget)
    nodes = levels[-1] if n else []
    g = MembershipGraph(tuple(nodes),
                        frozenset((x, a) for a in nodes for x in members[a]))
    return MembershipGraph(g.nodes, g.edges, ranks=g.structural_ranks())


# ---------------------------------------------------------------------------
# Histories, levels, rank.

def is_history(g: MembershipGraph, h: str) -> bool:
    return eval_formula(g, Sugar("history", (_v("s"),)), {"s": h})


def is_level(g: MembershipGraph, s: str) -> bool:
    return eval_formula(g, Sugar("level", (_v("s"),)), {"s": s})


def levels_of(g: MembershipGraph) -> List[str]:
    """All levels, sorted by member count (the in-order when B.3 holds).
    They are the nodes s that falsify ~Lev(s), from one compile, so the
    cache of the Hist(h) quantifier in Lev serves every candidate."""
    s = _v("s")
    falsified = counterexamples(
        g, (s,), expand_abbreviations(Not(Sugar("level", (s,)))))
    return sorted((v[0] for _, v in falsified if v is not None),
                  key=lambda node: (len(g.members(node)), node))


def rank(g: MembershipGraph, a: str, levels: Optional[List[str]] = None) -> int:
    """The number of levels that are members of the level with the
    subset-least member set among those including a as a subset.  When the
    levels are well-ordered this is the in-least such level, as in
    `Rank(a, s)`; on the one node a with a in a, rank is 1 but no s
    satisfies `Rank(a, s)`."""
    if a not in g.nodes:
        raise GraphError(f"no node {a!r}")
    if levels is None:
        levels = levels_of(g)
    best = None
    for s in levels:
        if g.subset(a, s):
            if best is None or g.members(s) < g.members(best):
                best = s
    if best is None:
        raise RankUndefined(f"no level includes {a!r} as a subset")
    return sum(1 for t in levels if t in g.members(best))


# ---------------------------------------------------------------------------
# The set-theoretic language: axiom formulas (evaluated over a graph by
# hotk.models.eval_formula).

def _v(name: str) -> Var:
    return Var(name, None)


def extensionality_formula() -> Formula:
    return parse_formula("all a. all b. (all x. x in a <-> x in b) -> a = b", "set")


def stratification_formula() -> Formula:
    return parse_formula("all a. some s. a sub s & Lev(s)", "set")


def endless_formula() -> Formula:
    return parse_formula("all a. some b. a in b", "set")


def infinity_formula() -> Formula:
    return parse_formula(
        "some a. (some x. x in a) & (all x. x in a -> some y. x in y & y in a)", "set")


def separation_instance(phi: Formula) -> Formula:
    """For every a there is b holding exactly the members of a satisfying phi.

    phi's designated variable is the free 'x'; its remaining free variables
    are closed universally as parameters, which the new witness b avoids.
    """
    x, a = _v("x"), _v("a")
    b = FreshNames(phi).var(None, "b")
    body = Forall(a, Exists(b, Forall(
        x, Iff(InSet(x, b), And(phi, InSet(x, a))))))
    for p in sorted(free_names(phi) - {"x", "a"}, reverse=True):
        body = Forall(_v(p), body)
    return body


# ---------------------------------------------------------------------------
# Axiom suites on graphs.

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
    separation = (PASS,)
    enumerated = 0
    for a in g.nodes:
        ms = g.members(a)
        enumerated += 2 ** len(ms)
        if enumerated > budget:
            separation = (SKIPPED, None, "budget")
            break
        sub = first_unrealized([sorted(ms, key=canonical_key)],
                               {(s,) for s in member_sets if s <= ms})
        if sub is not None:
            separation = (FAIL, f"{a}: subset {brace_name(sub[0])} unrealized")
            break
    report.add("separation-full", *separation)

    corpus = list(separation_corpus)
    if corpus and not brute_ok:
        report.add("separation-corpus", SKIPPED, note="budget")
    elif corpus:
        bad = _first_false(map(_expanded_instance, corpus),
                           lambda f: next(counterexamples(g, (), f))[1] is None)
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


@lru_cache(maxsize=256)
def _expanded_instance(phi: Formula) -> Formula:
    """The expanded separation instance of phi, made once for all the
    graphs a corpus is checked on."""
    return expand_abbreviations(separation_instance(phi), None)


def _first_false(instances: Iterable[Formula], holds) -> Optional[str]:
    """'corpus formula #i' for the first separation instance that does not
    hold, else None."""
    for i, f in enumerate(instances):
        if not holds(f):
            return f"corpus formula #{i}"
    return None


def check_wellordering_of_levels(g: MembershipGraph) -> bool:
    """Trichotomy and least-witness clauses for the levels, plus the
    accumulation identity: every level is exactly the collection of things
    included in some level that is a member of it."""
    levels = levels_of(g)
    for s in levels:
        for t in levels:
            if s != t and not (s in g.members(t) or t in g.members(s)):
                return False
    # Every nonempty set of levels has a member no other one of them is in
    # iff membership between distinct levels has no cycle.
    on = set(levels)
    between = frozenset((x, a) for x, a in g.edges if x != a and x in on and a in on)
    if MembershipGraph(tuple(levels), between).find_cycle():
        return False
    for s in levels:
        expected = {x for x in g.nodes
                    if any(g.subset(x, r) and r in g.members(s) for r in levels)}
        if expected != g.members(s):
            return False
    return True


# ---------------------------------------------------------------------------
# Between graphs and typed models.

def T_construction(g: MembershipGraph) -> Model:
    """Expand a transitive graph into a cumulative typed model: the type-b
    domain collects the nodes of rank <= b, application is membership.
    Ranks here are finite, so the rank-to-type shunt is the identity.

    Domains stabilize at the top rank, so the model is safe to query above
    its nominal height (every higher type has the same, full, domain)."""
    if not g.transitive:
        raise GraphError("the typed expansion needs a transitive graph")
    ranks = g.structural_ranks()
    if not ranks:
        raise GraphError("cannot expand the empty graph")
    return replace(build_graph_model(g, ranks), kind="pure",
                   meta={"source": "t-construction", "ord": ord_of_ranks(ranks)})


def S_construction(m: Model, kappa: int) -> MembershipGraph:
    """Slice a cumulative typed model at one type: the domain is the type's
    entities, membership is the evaluated defined-membership relation."""
    if not 0 <= kappa <= m.max_type:
        raise EvalError(f"model has no type {kappa}")
    k = fin(kappa)
    a, b = Var("a", k), Var("b", k)
    outside = expand_abbreviations(Not(Sugar("in", (a, b))))
    edges = frozenset(pair for _, pair in counterexamples(m, (a, b), outside)
                      if pair is not None)
    return MembershipGraph(tuple(m.domains[kappa]), edges)


def mostowski_collapse(g: MembershipGraph) -> Tuple[MembershipGraph, Dict[str, str]]:
    """The unique transitive isomorph of an extensional well-founded graph,
    with the witnessing node map.  Output names are canonical, so collapsing
    twice is the identity."""
    order = g.postorder()
    wit = g.extensional_witness
    if wit:
        raise GraphError(f"not extensional ({wit[0]} and {wit[1]} share members)")
    image: Dict[str, str] = {}
    for a in order:
        image[a] = brace_name(image[x] for x in g.members(a))
    names = [image[a] for a in g.nodes]
    if len(set(names)) != len(names):
        raise GraphError("collapse failed to separate nodes")   # unreachable
    edges = frozenset((image[x], image[a]) for x, a in g.edges)
    out = MembershipGraph(tuple(sorted(names, key=canonical_key)), edges)
    out = MembershipGraph(out.nodes, out.edges, ranks=out.structural_ranks())
    return out, image


def hereditary_part(g: MembershipGraph, kappa: int) -> MembershipGraph:
    """Restriction of a transitive graph to its nodes of rank <= kappa."""
    ranks = g.structural_ranks()
    keep = [n for n in g.nodes if ranks[n] <= kappa]
    kept = set(keep)
    edges = frozenset((x, a) for x, a in g.edges if x in kept and a in kept)
    return MembershipGraph(tuple(sorted(keep, key=canonical_key)), edges,
                           ranks={n: ranks[n] for n in keep})


def is_standard(g: MembershipGraph, budget: int = DEFAULT_BUDGET) -> bool:
    """Every subset of every bounded-rank stratum is realized as a node:
    the typed expansion is standard (the empty graph is, vacuously).

    Checked for strata whose subsets still have room to appear (rank below
    the top); at the top rank no finite structure could qualify.
    """
    if not g.transitive:
        raise GraphError("standardness is defined for transitive graphs")
    return not g.nodes or is_standard_typed(T_construction(g), budget)


def is_standard_typed(m: Model, budget: int = DEFAULT_BUDGET) -> bool:
    """Typed-model standardness: for each type below the greatest, some
    next-type property applies exactly to any given entities of that type."""
    checks = plain_comprehension_checks(m, range(m.max_type), budget)
    for alpha, (status, _) in enumerate(checks):
        if status == SKIPPED:
            raise BudgetExceeded(
                f"domain of {len(m.domains[alpha])} entities at type {alpha}")
        if status == FAIL:
            return False
    return True


def check_kappa_axioms_in_T(g: MembershipGraph, kappa: int,
                            separation_corpus: Iterable[Formula] = (),
                            budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """Evaluate the superscripted set axioms in the typed expansion of g.

    Extensionality, stratification and the corpus separation instances are
    the finite-successor surrogate of the interpretation lemmas; endless
    and infinity are reported too (expected to fail at finite scale).
    """
    top = g.ord()
    if kappa + 2 > top:
        raise EvalError(f"need kappa + 2 <= ord = {top}, got kappa = {kappa}")
    m = T_construction(g)
    k = fin(kappa)
    report = SuiteReport(subject=f"kappa={kappa} axioms in typed expansion")

    def ev(name: str, f: Formula, expect_note: Optional[str] = None) -> None:
        ok = eval_formula(m, kappa_translate(f, k), budget=budget)
        report.add(name, PASS if ok else FAIL, note=expect_note)

    ev("extensionality^k", extensionality_formula())
    corpus = list(separation_corpus)
    bad = _first_false(map(separation_instance, corpus), lambda f: eval_formula(
        m, kappa_translate(f, k), budget=budget))
    if corpus:
        report.add("separation^k", PASS if bad is None else FAIL,
                   witness=bad, note=f"{len(corpus)} instances")
    ev("stratification^k", stratification_formula())
    ev("endless^k", endless_formula(), expect_note="expected FAIL at finite scale")
    ev("infinity^k", infinity_formula(), expect_note="expected FAIL at finite scale")
    return report


def valid_slice_types(g: MembershipGraph) -> List[int]:
    """Types at which the slice of the typed expansion provably recovers
    membership: the strict bound kappa + 2 < ord, plus kappa = ord - 2 when
    the graph is standard (separating singletons then exist one rank up)."""
    top = g.ord()
    ks = list(range(max(top - 2, 0)))
    if top >= 2 and is_standard(g):
        ks.append(top - 2)
    return sorted(set(ks))
