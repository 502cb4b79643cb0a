"""Finite typed structures: builders, evaluation, axiom suites, decision."""

from hotk.errors import DEFAULT_BUDGET
from hotk.models.axioms import check_axiom_suite
from hotk.models.builders import (build_class_model, build_fjt_canonical,
                                  build_graph_model, build_pure_model,
                                  build_sttd_companion, build_sttu_companion,
                                  fjt_counts)
from hotk.models.core import (Assignment, Entity, Model, akey,
                              counterexamples, eval_formula)
from hotk.models.decide import decide_fjt
from hotk.models.domains import (KINDS, M_RUSSELLIAN, M_RUSSELLIAN_STAR,
                                 M_UNRESTRICTED, UNRESTRICTED_STT,
                                 domain_const, gen_domain_formula)

__all__ = [
    "check_axiom_suite",
    "DEFAULT_BUDGET", "build_class_model", "build_fjt_canonical",
    "build_graph_model", "build_pure_model", "build_sttd_companion",
    "build_sttu_companion", "fjt_counts",
    "Assignment", "Entity", "Model", "akey", "counterexamples",
    "eval_formula",
    "decide_fjt",
    "KINDS", "M_RUSSELLIAN", "M_RUSSELLIAN_STAR", "M_UNRESTRICTED",
    "UNRESTRICTED_STT", "domain_const", "gen_domain_formula",
]
