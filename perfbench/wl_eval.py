"""eval-sweep and eval-deep: the evaluation layer used two ways.

eval-sweep makes many small evaluations, where per-call expansion, memo
set-up and environment copies dominate.  eval-deep makes fewer, long
evaluations, where the quantifier loops and the memo dominate.
"""

from __future__ import annotations

import os
import random
from typing import List

from common import (Workload, assignment_count, eval_cost, graph_ranks,
                    hereditary_edges, json_field, sub_seed, write)
from harness import CliJob, Job

# The round-trip plans of acceptance criterion 8: (source, model, max_type).
ROUNDTRIP_PLANS = [("ctt", "pure4_up", 3), ("stt-up", "pure4_up", 3),
                   ("fjt", "fjt3_down", 2), ("stt-down", "fjt3_down", 2)]
ROUNDTRIPS_PER_PLAN = 80
ROUNDTRIP_COST_CAP = 40         # assignments x atom evaluations, both sides
DECIDES = {2: 80, 3: 20}        # sentences per height
DECIDE_COST_CAP = {2: 10 ** 4, 3: 5 * 10 ** 4}


def _sizes(m) -> List[int]:
    return [len(d) for d in m.domains]


def _capped(gen_next, cost, cap: int, count: int):
    """The first `count` generated items whose estimated cost is <= cap."""
    out = []
    for _ in range(1000 * count):
        item = gen_next()
        if cost(item) <= cap:
            out.append(item)
            if len(out) == count:
                return out
    raise RuntimeError(f"generator found {len(out)} of {count} items under {cap}")


def _eval_refs(api, work: str) -> dict:
    pure4 = api.build_pure_model(4)
    fjt2 = api.build_fjt_canonical(2)
    fjt3 = api.build_fjt_canonical(3)
    refs = {"pure4": pure4, "fjt2": fjt2, "fjt3": fjt3,
            "pure4_up": api.build_sttu_companion(pure4),
            "fjt3_down": api.build_sttd_companion(fjt3),
            "V4": api.build_V(4)}
    refs["fjt3_path"] = write(os.path.join(work, "fjt3.json"),
                              api.dumps_model(fjt3))
    refs["V4_path"] = write(os.path.join(work, "v4.json"),
                            api.dumps_graph(refs["V4"]))
    return refs


class EvalSweep(Workload):
    name = "eval-sweep"
    round_s = 0.4
    cli_repeats = 10

    def setup(self, api, work: str) -> dict:
        refs = _eval_refs(api, work)
        graphs = [(f"V{n}", api.build_V(n)) for n in (1, 2, 3, 4)]
        graphs += [(name, api.graph_fixture(name))
                   for name in api.transitive_fixture_names()]
        refs["slices"] = [(name, g, api.T_construction(g)) for name, g in graphs]
        return refs

    def jobs(self, api, refs: dict, seed: int) -> List[Job]:
        from genutil import FormulaGen, oracle_eval
        rng = random.Random(seed)
        jobs: List[Job] = []

        for src_name, model_name, max_type in ROUNDTRIP_PLANS:
            src = api.parse_regime(src_name)
            m = refs[model_name]
            sizes = _sizes(m)
            gen = FormulaGen(src, seed=sub_seed(rng), max_type=max_type)

            def cost(f, sizes=sizes):
                return 2 * assignment_count(f, sizes, api.free_atoms) * \
                    eval_cost(f, sizes)

            for k, f in enumerate(_capped(gen.formula, cost, ROUNDTRIP_COST_CAP,
                                          ROUNDTRIPS_PER_PLAN)):
                # Criterion 8: every round trip is semantically equivalent.
                jobs.append(Job(
                    f"roundtrip:{src_name}:{k}",
                    lambda f=f, src=src, m=m:
                        api.roundtrip_check(f, src, m).semantic_equivalent,
                    True))

        for height, count in DECIDES.items():
            m = refs[f"fjt{height}"]
            sizes = _sizes(m)
            gen = FormulaGen(api.fjt(), seed=sub_seed(rng), max_type=height)
            sentences = _capped(gen.sentence, lambda f: eval_cost(f, sizes),
                                DECIDE_COST_CAP[height], count)
            for k, s in enumerate(sentences):
                jobs.append(Job(
                    f"decide:h{height}:{k}",
                    lambda s=s, height=height, m=m:
                        api.decide_fjt(s, height, model=m),
                    oracle_eval(m, s, {})))

        for name, g, t in refs["slices"]:
            top = max(graph_ranks(g.nodes, g.edges).values()) + 1
            for kappa in range(max(top - 2, 0)):
                nodes, edges = hereditary_edges(g.nodes, g.edges, kappa)
                jobs.append(Job(
                    f"slice:{name}:{kappa}",
                    lambda t=t, kappa=kappa: _slice(api, t, kappa),
                    (nodes, edges)))

        for model_name in ("fjt3", "pure4"):
            m = refs[model_name]
            for kind, n, k in _domain_cases(api, m):
                f = api.gen_domain_formula(kind, n, k)
                d = api.akey(api.domain_const(n))
                picks = rng.sample(m.domains[n], min(4, len(m.domains[n])))
                for e in picks:
                    jobs.append(Job(
                        f"domain:{model_name}:{kind}:{n}:{k}:{e}",
                        lambda m=m, f=f, env={d: e}: api.eval_formula(m, f, env),
                        oracle_eval(m, f, {d: e})))
        rng.shuffle(jobs)
        return jobs

    def commands(self, api, refs: dict, seed: int, work: str) -> List[CliJob]:
        from genutil import FormulaGen, oracle_eval
        rng = random.Random(seed + 1)
        gen = FormulaGen(api.fjt(), seed=sub_seed(rng), max_type=2)
        sizes = _sizes(refs["fjt2"])
        s = _capped(gen.sentence, lambda f: eval_cost(f, sizes),
                    DECIDE_COST_CAP[2], 1)[0]
        value = oracle_eval(refs["fjt2"], s, {})
        fjt3 = refs["fjt3"]
        entity = rng.choice(fjt3.domains[1])
        domain = api.gen_domain_formula("m-unrestricted", 1, 1)
        inside = oracle_eval(fjt3, domain,
                             {api.akey(api.domain_const(1)): entity})
        return [
            CliJob("cli:decide-h2", ["--format", "json", "decide", "--height",
                                     "2", api.print_formula(s)],
                   0 if value else 1, json_field("value", value)),
            CliJob("cli:eval-domain", ["--format", "json", "eval", "--model",
                                       refs["fjt3_path"], "--let",
                                       f"d^1={entity}",
                                       api.print_formula(domain)],
                   0 if inside else 1, json_field("value", inside)),
            CliJob("cli:t-model", ["sets", "t-model", refs["V4_path"]], 0),
        ]


def _domain_cases(api, m):
    """(kind, n, k) for every domain-formula definition at types <= 2."""
    for kind in api.KINDS:
        for n in (1, 2):
            for k in (1, 2):
                if kind == "m-russellian-star" and n < k:
                    continue    # ill-formed by definition
                if kind == "unrestricted-stt" and k != 1:
                    continue    # takes no predicate type
                yield kind, n, k


def _slice(api, t, kappa):
    g = api.S_construction(t, kappa)
    return frozenset(g.nodes), frozenset(g.edges)


# ---------------------------------------------------------------------------

def distinct(k: int) -> str:
    """Some k pairwise distinct type-2 entities.  True at height 2 exactly
    when k <= 8, the size of the type-2 domain (h(2) = 8, acceptance
    criterion 3)."""
    xs = [f"x{i}" for i in range(k)]
    return "".join(f"some {v}^2. " for v in xs) + "(" + " & ".join(
        f"~{a}^2 = {b}^2" for i, a in enumerate(xs) for b in xs[i + 1:]) + ")"


# The ROADMAP's "exactly eight type-2 entities" decide takes about 4 s, one
# run per command pass.  In-process rounds use the seven-entity instance
# of the same sentence (about 0.4 s), so that every job runs several times
# within a run and its fastest run can be taken.
EIGHT_DISTINCT = distinct(8)
SEVEN_DISTINCT = distinct(7)

# Two-quantifier sweeps over the 2048 type-3 entities of the height-3 tuple
# model with the 8 type-2 entities as inner domain.  `all all (p | ~p)` is
# true and `some some (p & ~p)` false by propositional logic, and both
# visit every pair, so every sweep costs about the same.  The seed picks
# the variable names.
SWEEP_BODIES = ["{a}^3({b}^2)", "~{a}^3({b}^2)", "{b}^2 = {b}^2",
                "{a}^3 = {a}^3", "{a}^3({b}^2) & {b}^2 = {b}^2",
                "{a}^3({b}^2) | {a}^3 = {a}^3"]
SWEEP_TEMPLATES = [("all {a}^3. all {b}^2. (({p}) | ~({p}))", True),
                   ("some {a}^3. some {b}^2. (({p}) & ~({p}))", False)]
LETTERS = "abcdfghkmnpqrstuvyz"


def sweep(rng: random.Random, body: str, template: str) -> str:
    a, b = rng.sample(LETTERS, 2)
    return template.format(a=a, b=b, p=body.format(a=a, b=b))


class EvalDeep(Workload):
    name = "eval-deep"
    round_s = 3.4
    cli_repeats = 3

    def setup(self, api, work: str) -> dict:
        return _eval_refs(api, work)

    def jobs(self, api, refs: dict, seed: int) -> List[Job]:
        rng = random.Random(seed)
        jobs: List[Job] = [Job(
            "decide:seven-type-2",
            lambda f=api.parse_formula(SEVEN_DISTINCT), m=refs["fjt2"]:
                api.decide_fjt(f, 2, model=m),
            True)]

        for k, body in enumerate(SWEEP_BODIES):
            for template, value in SWEEP_TEMPLATES:
                text = sweep(rng, body, template)
                jobs.append(Job(f"sweep:{k}:{value}",
                                lambda text=text, m=refs["fjt3"]: api.eval_formula(
                                    m, api.parse_formula(text)),
                                value))

        # Acceptance criterion 5: type raising holds at every pair.
        for alpha in range(3):
            for beta in range(alpha, 3):
                text = f"all x^{alpha}. some y^{beta}. x^{alpha} eq y^{beta}"
                jobs.append(Job(f"raising:{alpha}:{beta}",
                                lambda text=text, m=refs["pure4"]:
                                    api.eval_formula(m, api.parse_formula(text)),
                                True))

        corpus = api.separation_corpus()
        order = list(range(len(corpus)))
        rng.shuffle(order)
        corpus = [corpus[i] for i in order]
        v4 = refs["V4"]
        # V_n satisfies LT; at finite scale endless and infinity fail.
        lt = (("extensionality", "PASS"), ("separation-full", "PASS"),
              ("separation-corpus", "PASS"), ("stratification", "PASS"))
        jobs.append(Job("sets:lt:V4", lambda: _statuses(
            api.check_set_axioms(v4, "lt", corpus)), lt))
        jobs.append(Job("sets:zr:V4", lambda: _statuses(
            api.check_set_axioms(v4, "zr", corpus)),
            lt + (("endless", "FAIL"), ("infinity", "FAIL"))))
        # Acceptance criterion 6.
        jobs.append(Job("kappa:2:V4", lambda: _statuses(
            api.check_kappa_axioms_in_T(v4, 2, corpus)),
            (("extensionality^k", "PASS"), ("separation^k", "PASS"),
             ("stratification^k", "PASS"), ("endless^k", "FAIL"),
             ("infinity^k", "FAIL"))))
        rng.shuffle(jobs)
        return jobs

    def commands(self, api, refs: dict, seed: int, work: str) -> List[CliJob]:
        rng = random.Random(seed + 1)
        template, value = rng.choice(SWEEP_TEMPLATES)
        text = sweep(rng, rng.choice(SWEEP_BODIES), template)
        return [
            CliJob("cli:decide-eight", ["--format", "json", "decide",
                                        "--height", "2", EIGHT_DISTINCT], 0,
                   json_field("value", True)),
            CliJob("cli:eval-sweep", ["--format", "json", "eval", "--model",
                                      refs["fjt3_path"], text],
                   0 if value else 1, json_field("value", value)),
            CliJob("cli:kappa-check", ["--format", "json", "sets",
                                       "kappa-check", "--kappa", "2",
                                       refs["V4_path"]], 0),
        ]


def _statuses(report):
    return tuple((v.name, v.status) for v in report.verdicts)
