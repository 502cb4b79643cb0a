"""kernel-corpus: thousands of small symbolic jobs.

Kernel, translate and proofkit do nearly all the work; models sit idle.
"""

from __future__ import annotations

import json
import os
import random
from typing import List

from common import Workload, json_field, sub_seed, write
from harness import CliJob, Job

# (generator regime, FormulaGen max_type, forward map, target regime)
PLANS = [("ctt", 3, "ctt_to_sttu", "stt-up"),
         ("stt-up", 3, "sttu_to_ctt", "ctt"),
         ("fjt", 3, "fjt_to_sttd", "stt-down"),
         ("stt-down", 3, "sttd_to_fjt", "fjt")]
DEPTHS = (2, 3, 4, 5)
PER_PLAN_DEPTH = 60     # 4 plans x 4 depths x 60 = 960 generated formulas


def has_sugar(f) -> bool:
    """True when a defined symbol survived (the benchmark's own walk)."""
    kind = type(f).__name__
    if kind == "Sugar":
        return True
    if kind in ("Not", "Forall", "Exists"):
        return has_sugar(f.body)
    if kind in ("And", "Or", "Implies", "Iff"):
        return has_sugar(f.left) or has_sugar(f.right)
    return False


class KernelCorpus(Workload):
    name = "kernel-corpus"
    round_s = 0.6
    cli_repeats = 10

    def setup(self, api, work: str) -> dict:
        m = api.build_fjt_canonical(3)
        fjt3 = write(os.path.join(work, "fjt3.json"), api.dumps_model(m))
        return {"fjt3_path": fjt3}

    def jobs(self, api, refs: dict, seed: int) -> List[Job]:
        from genutil import FormulaGen
        rng = random.Random(seed)
        doc = api.formation_matrix()
        regimes = {r: api.parse_regime(r) for r in doc["regimes"]}
        jobs: List[Job] = []

        for i, entry in enumerate(doc["formulas"]):
            names = sorted(entry["verdicts"])
            jobs.append(Job(
                f"matrix:{i}",
                lambda text=entry["formula"], names=names: tuple(
                    api.check_formation(api.parse_formula(text), regimes[r]).ok
                    for r in names),
                tuple(entry["verdicts"][r] for r in names)))

        for case in api.golden_cases():
            regime = api.parse_regime(case["regime"])
            jobs.append(Job(
                f"golden:{case['name']}",
                lambda text=case["input"], regime=regime: api.print_formula(
                    api.alpha_normalize(api.expand_abbreviations(
                        api.parse_formula(text), regime))),
                case["expect"]))

        kappa = api.fin(1)
        for i, phi in enumerate(api.separation_corpus()):
            jobs.append(Job(f"set-corpus:{i}",
                            lambda phi=phi: self._set_job(api, phi, kappa),
                            (True, True)))

        manifest = api.fixture_manifest()
        for name in manifest["positive"]:
            proof = api.load_fixture(name)
            jobs.append(Job(f"proof:{name}",
                            lambda p=proof: self._proof_job(api, p),
                            (True, None)))
        for item in manifest["negative"]:
            proof = api.load_fixture(item["file"])
            jobs.append(Job(f"proof:{item['file']}",
                            lambda p=proof: self._proof_job(api, p),
                            (False, item["tag"])))

        all_regimes = list(regimes.values())
        for src_name, max_type, fwd_name, dst_name in PLANS:
            src = api.parse_regime(src_name)
            dst = api.parse_regime(dst_name)
            fwd = getattr(api, fwd_name)
            for depth in DEPTHS:
                gen = FormulaGen(src, seed=sub_seed(rng), max_type=max_type,
                                 max_depth=depth)
                for k in range(PER_PLAN_DEPTH):
                    f = gen.formula()
                    jobs.append(Job(
                        f"gen:{src_name}:d{depth}:{k}",
                        lambda f=f, src=src, dst=dst, fwd=fwd: self._gen_job(
                            api, f, src, dst, fwd, all_regimes),
                        (True, True, True, True, True)))
        rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _set_job(api, phi, kappa):
        """Print/parse identity in the set language, and for its
        superscripted image in the typed language."""
        same = api.parse_formula(api.print_formula(phi), mode="set") == phi
        image = api.kappa_translate(phi, kappa)
        return same, api.parse_formula(api.print_formula(image)) == image

    @staticmethod
    def _proof_job(api, proof):
        verdict = api.check_proof(proof)
        return verdict.accepted, verdict.tag

    @staticmethod
    def _gen_job(api, f, src, dst, fwd, all_regimes):
        """Print->parse identity; formation under every regime (the source
        regime must accept); expansion plus normalization leaves no defined
        symbol; the source map lands in the target regime; the syntactic
        round trip completes without a model."""
        identity = api.parse_formula(api.print_formula(f)) == f
        verdicts = [api.check_formation(f, r).ok for r in all_regimes]
        own = api.check_formation(f, src).ok
        expanded = api.alpha_normalize(api.expand_abbreviations(f, src))
        image_ok = api.check_formation(fwd(f), dst).ok
        trip = api.roundtrip_check(f, src)
        return (identity, own and len(verdicts) == len(all_regimes),
                not has_sugar(expanded), image_ok,
                trip.semantic_equivalent is None)

    def commands(self, api, refs: dict, seed: int, work: str) -> List[CliJob]:
        from genutil import FormulaGen
        rng = random.Random(seed + 1)
        texts = {}
        for name in ("fjt", "ctt"):
            gen = FormulaGen(api.parse_regime(name), seed=sub_seed(rng),
                             max_type=3, max_depth=4)
            texts[name] = [api.print_formula(gen.formula()) for _ in range(200)]
        fjt_file = write(os.path.join(work, "gen_fjt.hol"),
                         "\n".join(texts["fjt"]) + "\n")
        ctt_file = write(os.path.join(work, "gen_ctt.hol"),
                         "\n".join(texts["ctt"]) + "\n")

        def all_well_formed(out: str) -> bool:
            results = json.loads(out)["results"]
            return len(results) == 200 and all(r["well_formed"] for r in results)

        def translated(out: str) -> bool:
            return len(json.loads(out)["formulas"]) == 200

        return [
            CliJob("cli:corpus-run", ["--format", "json", "corpus", "run"], 0,
                   json_field("ok", True)),
            CliJob("cli:check-file", ["--format", "json", "check", "--theory",
                                      "fjt", "--file", fjt_file], 0,
                   all_well_formed),
            CliJob("cli:translate", ["--format", "json", "translate", "--map",
                                     "i-ctt-sttu", ctt_file], 0, translated),
            CliJob("cli:prove-fixtures", ["--format", "json", "prove",
                                          "fixtures"], 0,
                   json_field("all_as_expected", True)),
        ]
