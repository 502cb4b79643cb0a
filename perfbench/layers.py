"""The public hotk functions the benchmark calls, grouped by layer.

`bind` imports hotk and returns a namespace holding each function, either
as is (untraced run) or wrapped in a span named after its layer (traced
run).  Jobs call hotk only through that namespace, so the spans cover every
layer call the benchmark makes and nothing else.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from types import SimpleNamespace
from typing import Optional

from harness import Tracer

# layer -> (module, function names); Model (de)serialization is added below.
LAYERS = {
    "kernel.parse": ("hotk.kernel", ["parse_formula"]),
    "kernel.formation": ("hotk.kernel", ["check_formation"]),
    "kernel.expand": ("hotk.kernel", ["expand_abbreviations"]),
    "kernel.normalize": ("hotk.kernel", ["alpha_normalize"]),
    "kernel.print": ("hotk.kernel", ["print_formula"]),
    "translate.map": ("hotk.translate", ["ctt_to_sttu", "sttu_to_ctt",
                                         "fjt_to_sttd", "sttd_to_fjt",
                                         "kappa_translate"]),
    "translate.roundtrip": ("hotk.translate", ["roundtrip_check"]),
    "models.eval": ("hotk.models", ["eval_formula"]),
    "models.decide": ("hotk.models", ["decide_fjt"]),
    "models.build": ("hotk.models", ["build_class_model", "build_pure_model",
                                     "build_fjt_canonical", "build_graph_model",
                                     "build_sttu_companion",
                                     "build_sttd_companion"]),
    "models.axioms": ("hotk.models", ["check_axiom_suite"]),
    "settheory.levels": ("hotk.settheory", ["build_V", "levels_of", "rank",
                                            "check_wellordering_of_levels"]),
    "settheory.standard": ("hotk.settheory", ["is_standard",
                                              "is_standard_typed"]),
    "settheory.construct": ("hotk.settheory", ["T_construction",
                                               "S_construction",
                                               "mostowski_collapse"]),
    "settheory.set_axioms": ("hotk.settheory", ["check_set_axioms"]),
    "settheory.kappa": ("hotk.settheory", ["check_kappa_axioms_in_T"]),
    "proofkit.check": ("hotk.proofkit", ["check_proof"]),
    "cli": ("hotk.cli", ["main"]),
}

# Plain helpers the benchmark uses to load inputs; never traced.
HELPERS = {
    "hotk.kernel": ["parse_regime", "fin", "ctt", "fjt", "stt_up",
                    "free_atoms"],
    "hotk.models": ["Model", "akey", "domain_const", "gen_domain_formula",
                    "KINDS"],
    "hotk.corpus": ["formation_matrix", "golden_cases", "graph_fixture",
                    "separation_corpus", "transitive_fixture_names"],
    "hotk.proofkit.fixtures": ["fixture_manifest", "load_fixture"],
}


def node_count(x) -> int:
    """AST nodes in a formula or term (the benchmark's own walk)."""
    if isinstance(x, (list, tuple)):
        return sum(node_count(y) for y in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return 1 + sum(node_count(getattr(x, f.name))
                       for f in dataclasses.fields(x))
    return 0


def _after_parse(t: Tracer, result, args) -> None:
    t.count("kernel.parse.nodes", node_count(result))


def _after_expand(t: Tracer, result, args) -> None:
    t.count("kernel.expand.nodes_in", node_count(args[0]))
    t.count("kernel.expand.nodes_out", node_count(result))


def _after_roundtrip(t: Tracer, result, args) -> None:
    t.count("translate.roundtrip.assignments", result.assignments_checked)


def _after_build(t: Tracer, result, args) -> None:
    t.count("models.build.entities", result.entity_count())


def comprehension_subsets(m, theory, max_type: int, budget: int) -> int:
    """Σ 2^|dom| over the comprehension checks check_axiom_suite runs for
    this theory, computed from the domain sizes (not counted)."""
    from hotk.kernel import regimes as rg
    sizes = [len(d) for d in m.domains]
    total = 0
    if theory.kind in (rg.STT, rg.STT_UP, rg.CTT_STRINGENT, rg.CTT_LIBERAL):
        total += sum(2 ** sizes[n] for n in range(max_type)
                     if 2 ** sizes[n] <= budget)
    elif theory.kind == rg.STT_DOWN:
        if max_type >= 1 and 2 ** sizes[0] <= budget:
            total += 2 ** sizes[0]
        for n in range(1, max_type):
            if 2 ** sizes[n] > budget:
                break
            total += sizes[n] * 2 ** sizes[n]
    elif theory.kind == rg.FJT:
        for n in range(1, max_type + 1):
            tuples = 2 ** sum(sizes[:n])
            if tuples > budget:
                break
            total += tuples
    return total


def _after_axioms(t: Tracer, result, args) -> None:
    m, theory, max_type = args[:3]
    budget = args[3] if len(args) > 3 else 10 ** 6
    t.count("models.axioms.verdicts", len(result.verdicts))
    t.count("models.axioms.skipped",
            sum(1 for v in result.verdicts if v.status == "SKIPPED"))
    t.count("models.axioms.subsets_computed",
            comprehension_subsets(m, theory, max_type, budget))


def _after_proof(t: Tracer, result, args) -> None:
    t.count("proofkit.check.steps", len(args[0].steps))


AFTER = {
    "kernel.parse": _after_parse,
    "kernel.expand": _after_expand,
    "translate.roundtrip": _after_roundtrip,
    "models.build": _after_build,
    "models.axioms": _after_axioms,
    "proofkit.check": _after_proof,
}


def purge() -> None:
    """Forget every imported hotk module (and genutil, which imports hotk),
    so the next bind imports afresh."""
    for name in [n for n in sys.modules
                 if n in ("hotk", "genutil") or n.startswith("hotk.")]:
        del sys.modules[name]


def bind(tracer: Optional[Tracer]) -> SimpleNamespace:
    ns = SimpleNamespace()
    for module, names in HELPERS.items():
        mod = importlib.import_module(module)
        for name in names:
            setattr(ns, name, getattr(mod, name))
    for layer, (module, names) in LAYERS.items():
        mod = importlib.import_module(module)
        for name in names:
            fn = getattr(mod, name)
            if tracer is not None:
                fn = tracer.wrap(layer, fn, AFTER.get(layer))
            setattr(ns, name, fn)
    ns.dumps_model = lambda m: m.dumps()
    ns.loads_model = ns.Model.loads
    ns.dumps_graph = lambda g: g.dumps()
    if tracer is not None:
        ns.dumps_model = tracer.wrap("models.serialize", ns.dumps_model)
        ns.loads_model = tracer.wrap("models.serialize", ns.loads_model)
    return ns
