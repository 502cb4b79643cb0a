"""Helpers shared by the workloads: seeds, expectations computed from the
fixture data itself, and a cost estimate used to keep generated inputs at
a steady size."""

from __future__ import annotations

import json
import random
from typing import Dict, List

from harness import CliJob, Job


class Workload:
    """A workload: reference set-up (timed as setup_s), seeded jobs with
    expected outcomes, and whole commands for the CLI."""

    name: str
    round_s: float      # one round of jobs on the reference machine
    cli_repeats: int    # passes over the commands; each counts its fastest

    def setup(self, api, work: str) -> dict:
        raise NotImplementedError

    def jobs(self, api, refs: dict, seed: int) -> List[Job]:
        raise NotImplementedError

    def commands(self, api, refs: dict, seed: int, work: str) -> List[CliJob]:
        raise NotImplementedError


def sub_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def json_field(key: str, expect) -> "callable":
    """Check for a command's --format json output: doc[key] == expect."""
    def check(out: str) -> bool:
        return json.loads(out).get(key) == expect
    return check


def graph_ranks(nodes, edges) -> Dict[str, int]:
    """Structural rank of every node of a well-founded graph, by repeated
    relaxation over the edge list (independent of hotk's own rank code)."""
    rank = {n: 0 for n in nodes}
    changed = True
    while changed:
        changed = False
        for x, a in edges:
            if rank[a] < rank[x] + 1:
                rank[a] = rank[x] + 1
                changed = True
    return rank


def hereditary_edges(nodes, edges, kappa: int):
    """(nodes of rank <= kappa, membership edges among them)."""
    rank = graph_ranks(nodes, edges)
    keep = frozenset(n for n in nodes if rank[n] <= kappa)
    return keep, frozenset((x, a) for x, a in edges if x in keep and a in keep)


def eval_cost(f, sizes: List[int]) -> int:
    """Rough count of atom evaluations for one assignment: quantifiers
    multiply by their domain size, `eq` by the size of the type it
    quantifies over.  Computed from the generated syntax alone."""
    kind = type(f).__name__
    if kind in ("Forall", "Exists"):
        n = f.var.index.finite_value
        return sizes[min(n, len(sizes) - 1)] * eval_cost(f.body, sizes)
    if kind == "Not":
        return eval_cost(f.body, sizes)
    if kind in ("And", "Or", "Implies", "Iff"):
        return eval_cost(f.left, sizes) + eval_cost(f.right, sizes)
    if kind == "Sugar" and f.kind == "eq":
        top = max(a.index.finite_value for a in f.args) + 1
        return 2 * sizes[min(top, len(sizes) - 1)]
    return 1


def assignment_count(f, sizes: List[int], free_atoms) -> int:
    total = 1
    for atom in free_atoms(f):
        total *= sizes[min(atom.index.finite_value, len(sizes) - 1)]
    return total


def probe_jobs(api, refs: dict) -> List[Job]:
    """One small call into every layer, run once after the traced pass, so
    each layer has a measured self time on every workload.  Expectations
    come from the test suite and the bundled goldens."""
    golden = api.golden_cases()[0]
    fjt2 = api.build_fjt_canonical(2)
    v2, v3 = api.build_V(2), api.build_V(3)
    corpus = api.separation_corpus()
    proof = api.load_fixture("identity_refl.proof")
    ranks = graph_ranks(v2.nodes, v2.edges)
    ctt, stt_up = api.ctt(), api.stt_up()
    pure4_up = api.build_sttu_companion(api.build_pure_model(4))

    def expansion():
        return api.print_formula(api.alpha_normalize(api.expand_abbreviations(
            api.parse_formula(golden["input"]),
            api.parse_regime(golden["regime"]))))

    def translation():
        f = api.parse_formula("y^1(x^0)")
        trip = api.roundtrip_check(f, ctt, pure4_up)
        return (api.check_formation(api.ctt_to_sttu(f), stt_up).ok,
                trip.syntactic_equal, trip.semantic_equivalent)

    def kappa():
        report = api.check_kappa_axioms_in_T(v3, 1, corpus[:5])
        return tuple(v.status for v in report.verdicts)

    return [
        Job("probe:kernel", expansion, golden["expect"]),
        Job("probe:translate", translation, (True, True, True)),
        Job("probe:eval", lambda: api.eval_formula(
            fjt2, api.parse_formula("all x^0. all y^0. x^0 = y^0")), True),
        Job("probe:decide", lambda: api.decide_fjt(
            api.parse_formula("some x^0. ~x^0 = x^0"), 2, model=fjt2), False),
        Job("probe:build", lambda: [len(d) for d in
                                    api.build_fjt_canonical(2).domains],
            [1, 2, 8]),
        Job("probe:axioms", lambda: all(
            v.status == "PASS" for v in
            api.check_axiom_suite(fjt2, api.fjt(), 2).verdicts), True),
        Job("probe:serialize", lambda: api.loads_model(
            api.dumps_model(fjt2)).domains == fjt2.domains, True),
        Job("probe:levels", lambda: (len(api.build_V(2).nodes),
                                     api.check_wellordering_of_levels(v2)),
            (2, True)),
        Job("probe:standard", lambda: api.is_standard(v2), True),
        Job("probe:construct", lambda: [len(d) for d in
                                        api.T_construction(v2).domains],
            [sum(1 for r in ranks.values() if r <= b)
             for b in range(max(ranks.values()) + 1)]),
        Job("probe:set-axioms", lambda: all(
            v.status == "PASS" for v in
            api.check_set_axioms(v2, "lt", corpus).verdicts), True),
        Job("probe:kappa", kappa, ("PASS", "PASS", "PASS", "FAIL", "FAIL")),
        Job("probe:proof", lambda: api.check_proof(proof).accepted, True),
    ]
