"""Level theory over finite membership graphs.

Histories and levels are the `Hist`/`Lev` sugar of hotk.kernel.expand,
evaluated over the graph, and rank is read off the levels.  The level
theory LT (extensionality, separation, stratification) and its extension
Zr (endless, infinity) are checked on graphs, and their superscripted
forms in a graph's typed expansion; each row is made by SuiteReport.row
from (status, detail) checks, a sentence row failing at its first false
sentence.  Transitive graphs, whose nodes are named by the canonical brace
codes of their members, convert to cumulative typed models and back via
the slice construction and Mostowski collapse.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from hotk.errors import (DEFAULT_BUDGET, BudgetExceeded, EvalError, GraphError,
                         RankUndefined, above_budget)
from hotk.graphs import (MembershipGraph, brace_name, canonical_key,
                         first_unrealized, ord_of_ranks)
from hotk.kernel.indices import fin
from hotk.kernel.parser import parse_formula
from hotk.kernel.syntax import (And, Const, Exists, Forall, Formula,
                                FreshNames, Iff, InSet, Not, Sugar, Var,
                                free_names, parts, rebuild)
from hotk.models.axioms import plain_comprehension_checks
from hotk.models.builders import build_graph_model, hierarchy_levels
from hotk.models.core import Model, counterexamples, eval_formula
from hotk.report import EXPECTED_FAIL, FAIL, SKIPPED, SuiteReport
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

def levels_of(g: MembershipGraph, budget: int = DEFAULT_BUDGET) -> List[str]:
    """All levels, sorted by member count (the in-order when B.3 holds).
    They are the nodes s that falsify ~Lev(s), from one compile, so the
    cache of the Hist(h) quantifier in Lev serves every candidate."""
    s = _v("s")
    falsified = counterexamples(g, (s,), Not(Sugar("level", (s,))), budget)
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
    phi is in the set language, so each of its atoms is then in scope of a
    binder of its name: a constant becomes that binder's variable, as the
    parser reads the instance's printed text.
    """
    x, a = _v("x"), _v("a")
    b = FreshNames(phi).var(None, "b")
    body = Forall(a, Exists(b, Forall(
        x, Iff(InSet(x, b), And(_bind_constants(phi), InSet(x, a))))))
    for p in sorted(free_names(phi) - {"x", "a"}, reverse=True):
        body = Forall(_v(p), body)
    return body


def _bind_constants(f: Formula) -> Formula:
    terms, binder, bodies = parts(f)
    return rebuild(f, [Var(t.name, t.index) if type(t) is Const else t
                       for t in terms],
                   binder, [_bind_constants(g) for g in bodies])


# ---------------------------------------------------------------------------
# Axiom suites on graphs.

def check_set_axioms(g: MembershipGraph, which: str = "lt",
                     separation_corpus: Iterable[Formula] = (),
                     budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """Check LT (extensionality, separation, stratification) or Zr (plus
    endless, infinity): separation on the corpus and by subset search.  The
    sentence rows are SKIPPED ahead of the work when n^3 is above the budget,
    the one size still estimated so: the definitional checks nest three
    quantifiers over n nodes, and the compiler caps each, not their nesting."""
    if which not in ("lt", "zr"):
        raise ValueError("which must be 'lt' or 'zr'")
    report = SuiteReport(subject=f"{which} on {len(g.nodes)}-node graph")
    steps = len(g.nodes) ** 3
    over_budget = None if steps <= budget else [(SKIPPED, above_budget(
        steps, "assignments of three nested quantifiers", budget))]

    wit = g.extensional_witness
    report.row("extensionality",
               [(FAIL, f"{wit[0]} and {wit[1]} share members")] if wit else ())
    report.row("separation-full", _separation_checks(g, budget))
    corpus = list(separation_corpus)
    if corpus:
        size = f"{len(corpus)} instances"
        report.row("separation-corpus", over_budget or _sentence_checks(
            g, map(separation_instance, corpus), budget, corpus=True),
            note=size, fail_note=size)
    rows = [("stratification", stratification_formula())]
    if which == "zr":
        rows += [("endless", endless_formula()), ("infinity", infinity_formula())]
    for name, f in rows:
        report.row(name, over_budget or _sentence_checks(g, [f], budget))
    return report


def _separation_checks(g: MembershipGraph, budget: int):
    """FAIL at each node with a subset of its members that no node's member
    set is.  A node whose realized subsets are as many as exist costs one
    comparison; only a shortfall, whose subsets first_unrealized walks, is
    charged 2^|members|, and it is SKIPPED when that is more than the
    budget, so a later node can still FAIL the row.  A node's realized
    subsets are the member sets that hold one of its members and lie inside
    its own, plus the empty set if some node has no members."""
    holding = defaultdict(set)      # x -> the member sets that hold x
    for s in map(g.members, g.nodes):
        for x in s:
            holding[x].add(s)
    empty = {(s,) for s in map(g.members, g.nodes) if not s}
    for a in g.nodes:
        ms = g.members(a)
        try:
            sub = first_unrealized([sorted(ms, key=canonical_key)], empty | {
                (s,) for x in ms for s in holding[x] if s <= ms}, budget)
            if sub is not None:
                yield FAIL, f"{a}: subset {brace_name(sub[0])} unrealized"
        except BudgetExceeded as e:
            yield SKIPPED, f"{a}: {e}"


def _sentence_checks(s, sentences: Iterable[Formula], budget: int,
                     corpus: bool = False):
    """A FAIL for each sentence false in s (a graph or a model), lazily, so
    a row stops at the first, `corpus formula #i` on a corpus row; a SKIPPED,
    with the evaluator's message, for each one over the budget."""
    for i, f in enumerate(sentences):
        try:
            if not eval_formula(s, f, budget=budget):
                yield FAIL, f"corpus formula #{i}" if corpus else None
        except BudgetExceeded as e:
            yield SKIPPED, str(e)


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


def S_construction(m: Model, kappa: int, budget: int = DEFAULT_BUDGET) -> MembershipGraph:
    """Slice a cumulative typed model at one type: the domain is the type's
    entities, membership is the evaluated defined-membership relation."""
    if not 0 <= kappa <= m.max_type:
        raise EvalError(f"model has no type {kappa}")
    if not m.reaches(kappa + 2):
        raise EvalError(f"membership at type {kappa} is defined at type "
                        f"{kappa + 2}, above the model's top type {m.max_type}")
    k = fin(kappa)
    a, b = Var("a", k), Var("b", k)
    outside = Not(Sugar("in", (a, b)))
    edges = frozenset(pair for _, pair in counterexamples(m, (a, b), outside, budget)
                      if pair is not None)
    return MembershipGraph(tuple(m.domains[kappa]), edges)


def mostowski_collapse(g: MembershipGraph) -> Tuple[MembershipGraph, Dict[str, str]]:
    """The unique transitive isomorph of an extensional well-founded graph,
    with the witnessing node map.  Output names are canonical, so collapsing
    twice is the identity; by induction on rank, distinct nodes of such a
    graph get distinct names."""
    order = g.postorder()
    wit = g.extensional_witness
    if wit:
        raise GraphError(f"not extensional ({wit[0]} and {wit[1]} share members)")
    image: Dict[str, str] = {}
    for a in order:
        image[a] = brace_name(image[x] for x in g.members(a))
    edges = frozenset((image[x], image[a]) for x, a in g.edges)
    out = MembershipGraph(tuple(sorted(image.values(), key=canonical_key)), edges)
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
    for status, detail in plain_comprehension_checks(m, range(m.max_type), budget):
        if status == SKIPPED:
            raise BudgetExceeded(detail)
        if status == FAIL:
            return False
    return True


def check_kappa_axioms_in_T(g: MembershipGraph, kappa: int,
                            separation_corpus: Iterable[Formula] = (),
                            budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """Evaluate the superscripted set axioms in the typed expansion of g.

    Extensionality, stratification and the corpus separation instances are
    the finite-successor surrogate of the interpretation lemmas and decide
    the report's verdict; endless and infinity are reported too, with the
    note EXPECTED_FAIL, which SuiteReport.failed does not count.
    """
    if kappa < 0:
        raise EvalError(f"kappa must be a natural, got {kappa}")
    top = g.ord()
    if kappa + 2 > top:
        raise EvalError(f"need kappa + 2 <= ord = {top}, got kappa = {kappa}")
    m = T_construction(g)
    k = fin(kappa)
    report = SuiteReport(subject=f"kappa={kappa} axioms in typed expansion")

    report.row("extensionality^k", _sentence_checks(
        m, [kappa_translate(extensionality_formula(), k)], budget))
    corpus = list(separation_corpus)
    if corpus:
        size = f"{len(corpus)} instances"
        report.row("separation^k", _sentence_checks(
            m, (kappa_translate(separation_instance(phi), k) for phi in corpus),
            budget, corpus=True), note=size, fail_note=size)
    for name, f, note in [("stratification^k", stratification_formula(), None),
                          ("endless^k", endless_formula(), EXPECTED_FAIL),
                          ("infinity^k", infinity_formula(), EXPECTED_FAIL)]:
        report.row(name, _sentence_checks(m, [kappa_translate(f, k)], budget),
                   note, note)
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
