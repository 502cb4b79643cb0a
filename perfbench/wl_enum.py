"""enumeration: builders and enumeration checks.

Eval sits idle; powerset scans and PairTables dominate.
"""

from __future__ import annotations

import os
import random
from typing import List

from common import Workload, graph_ranks, hereditary_edges, write
from harness import CliJob, Job

PURE_SIZES = [1, 2, 4, 16, 65536]          # |type n| of the pure hierarchy
FJT_SIZES = [1, 2, 8, 2048]                # h(n), acceptance criterion 3
CLASS_CASES = [(0, 4), (1, 3), (2, 3)]     # (urelements, height)
GRAPH_HEIGHTS = {"astruct.json": 4, "quine.json": 4}


def class_sizes(urelements: int, height: int) -> List[int]:
    """|U_1| = u + 1 and |U_{k+1}| = 2^|U_k| + u."""
    sizes = [urelements + 1]
    for _ in range(height - 1):
        sizes.append(2 ** sizes[-1] + urelements)
    return sizes


def _sizes(m):
    return [len(d) for d in m.domains]


def _all_pass(report) -> bool:
    return all(v.status == "PASS" for v in report.verdicts)


def _status(report, *names):
    return tuple(report.status(n) for n in names)


class Enumeration(Workload):
    name = "enumeration"
    round_s = 3.0
    cli_repeats = 3

    def setup(self, api, work: str) -> dict:
        pure4 = api.build_pure_model(4)
        fjt2 = api.build_fjt_canonical(2)
        fjt3 = api.build_fjt_canonical(3)
        fjt3_down = api.build_sttd_companion(fjt3)
        refs = {"pure4": pure4, "pure5": api.build_pure_model(5),
                "fjt2": fjt2, "fjt3": fjt3, "fjt3_down": fjt3_down,
                "pure4_up": api.build_sttu_companion(pure4),
                "graphs": {name: api.graph_fixture(name) for name in
                           ("astruct.json", "quine.json", "chain3.json",
                            "chain4.json", "v2_plus_two.json", "pair_mix.json",
                            "v4_minus_rank3.json")}}
        refs["graph_models"] = {
            name: api.build_graph_model(g, height=GRAPH_HEIGHTS.get(name))
            for name, g in refs["graphs"].items() if name in GRAPH_HEIGHTS}
        refs["fjt3_path"] = write(os.path.join(work, "fjt3.json"),
                                  api.dumps_model(fjt3))
        refs["pure4_path"] = write(os.path.join(work, "pure4.json"),
                                   api.dumps_model(pure4))
        refs["fjt3_down_path"] = write(os.path.join(work, "fjt3_down.json"),
                                       api.dumps_model(fjt3_down))
        return refs

    def jobs(self, api, refs: dict, seed: int) -> List[Job]:
        rng = random.Random(seed)
        jobs: List[Job] = []

        for h in range(1, 6):
            jobs.append(Job(f"build:pure:{h}",
                            lambda h=h: _sizes(api.build_pure_model(h)),
                            PURE_SIZES[:h]))
        for u, h in CLASS_CASES:
            jobs.append(Job(f"build:class:{u}:{h}",
                            lambda u=u, h=h: _sizes(api.build_class_model(u, h)),
                            class_sizes(u, h)))
        for h in range(4):
            jobs.append(Job(f"build:fjt:{h}",
                            lambda h=h: _sizes(api.build_fjt_canonical(h)),
                            FJT_SIZES[:h + 1]))
        jobs.append(Job("build:up:pure4", lambda: _sizes(
            api.build_sttu_companion(refs["pure4"])), PURE_SIZES[:4]))
        jobs.append(Job("build:down:fjt3", lambda: _sizes(
            api.build_sttd_companion(refs["fjt3"])), FJT_SIZES))
        for name, g in refs["graphs"].items():
            height = GRAPH_HEIGHTS.get(name, max(g.ranks.values()))
            expect = [sum(1 for r in g.ranks.values() if r <= k)
                      for k in range(height + 1)]
            jobs.append(Job(f"build:graph:{name}",
                            lambda g=g, height=height: _sizes(
                                api.build_graph_model(g, height=height)),
                            expect))

        suite = api.check_axiom_suite
        reg = api.parse_regime
        pure4, fjt2 = refs["pure4"], refs["fjt2"]
        gm = refs["graph_models"]
        # Verdicts pinned by the test suite (test_models, test_acceptance).
        jobs += [
            Job("axioms:pure4:pctt", lambda: _all_pass(
                suite(pure4, reg("pctt:w"), 2)), True),
            Job("axioms:pure4_up:stt-up", lambda: _all_pass(
                suite(refs["pure4_up"], reg("stt-up"),
                      refs["pure4_up"].max_type)), True),
            Job("axioms:fjt3_down:stt-down", lambda: _status(
                suite(refs["fjt3_down"], reg("stt-down"), 3),
                "down-exists", "down-sim", "down-max"),
                ("PASS", "PASS", "PASS")),
            Job("axioms:fjt2:fjt", lambda: _all_pass(
                suite(fjt2, reg("fjt"), 2)), True),
            Job("axioms:fjt2:ctt", lambda: _status(
                suite(fjt2, reg("ctt:w"), 1), "type-raising"), ("FAIL",)),
            # Criterion 4: the ill-founded structure fails exactly
            # type-founded.
            Job("axioms:astruct:ctt", lambda: all(
                (v.status == "FAIL") == (v.name == "type-founded")
                for v in suite(gm["astruct.json"], reg("ctt:w"), 2).verdicts),
                True),
            Job("axioms:quine:ctt", lambda: _status(
                suite(gm["quine.json"], reg("ctt:w"), 2), "type-base"),
                ("FAIL",)),
            Job("axioms:pure5:stt-skipped", lambda: _status(
                suite(refs["pure5"], reg("stt"), 4, budget=10 ** 4),
                "comprehension"), ("SKIPPED",)),
        ]

        vs = {n: api.build_V(n) for n in (1, 2, 3, 4)}
        for n in (1, 2, 3, 4):
            jobs.append(Job(f"levels:build-V:{n}",
                            lambda n=n: len(api.build_V(n).nodes),
                            [1, 2, 4, 16][n - 1]))
            jobs.append(Job(f"levels:wellordering:V{n}",
                            lambda g=vs[n]: api.check_wellordering_of_levels(g),
                            True))
        v4 = vs[4]
        jobs.append(Job("levels:V4", lambda: [len(v4.members(s))
                                               for s in api.levels_of(v4)],
                        [0, 1, 2, 4]))
        ranks = graph_ranks(v4.nodes, v4.edges)
        jobs.append(Job("levels:rank:V4", lambda: _ranks(api, v4),
                        tuple(ranks[n] for n in v4.nodes)))
        jobs.append(Job("levels:wellordering:astruct",
                        lambda: api.check_wellordering_of_levels(
                            refs["graphs"]["astruct.json"]), True))

        for n in (1, 2, 3, 4):
            jobs.append(Job(f"standard:V{n}", lambda g=vs[n]: api.is_standard(g),
                            True))
        jobs.append(Job("standard:v4_minus_rank3", lambda: api.is_standard(
            refs["graphs"]["v4_minus_rank3.json"]), False))
        transitive = [(f"V{n}", vs[n]) for n in (1, 2, 3, 4)]
        transitive += [(name, g) for name, g in refs["graphs"].items()
                       if name not in GRAPH_HEIGHTS]
        for name, g in transitive:
            # Acceptance criterion 7: standardness transports to the T model.
            jobs.append(Job(f"standard:transport:{name}",
                            lambda g=g: api.is_standard(g) ==
                            api.is_standard_typed(api.T_construction(g)),
                            True))
            top = max(graph_ranks(g.nodes, g.edges).values()) + 1
            for kappa in range(max(top - 2, 0)):
                jobs.append(Job(f"collapse:{name}:{kappa}",
                                lambda g=g, kappa=kappa: _trip(api, g, kappa),
                                hereditary_edges(g.nodes, g.edges, kappa)))
        rng.shuffle(jobs)
        return jobs

    def commands(self, api, refs: dict, seed: int, work: str) -> List[CliJob]:
        return [
            CliJob("cli:build-pure5", ["model", "build", "--kind", "pure",
                                       "--height", "5", "-o",
                                       os.path.join(work, "pure5.json")], 0),
            CliJob("cli:check-pure4", ["--format", "json", "model", "check",
                                       "--model", refs["pure4_path"],
                                       "--theory", "pctt:w", "--max-type", "2"],
                   0),
            CliJob("cli:check-fjt3-down", ["--format", "json", "model", "check",
                                           "--model", refs["fjt3_down_path"],
                                           "--theory", "stt-down"], 0),
        ]


def _ranks(api, g):
    lv = api.levels_of(g)
    return tuple(api.rank(g, n, lv) for n in g.nodes)


def _trip(api, g, kappa):
    """Slice the T model at kappa and collapse: criterion 7's round trip."""
    out, _ = api.mostowski_collapse(api.S_construction(api.T_construction(g),
                                                       kappa))
    return frozenset(out.nodes), frozenset(out.edges)
