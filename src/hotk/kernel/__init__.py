"""Kernel: type indices, abstract syntax, grammar, formation, expansion."""

from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.formation import FormationVerdict, check_formation
from hotk.kernel.indices import OMEGA, TypeIndex, fin
from hotk.kernel.parser import parse_formula, parse_hol_lines, parse_index, parse_term
from hotk.kernel.printer import print_formula, print_term
from hotk.kernel.regimes import Regime, ctt, fjt, parse_regime, stt, stt_down, stt_up
from hotk.kernel.syntax import (And, Apply, Const, DownRel, Exists, Forall,
                                Formula, Iff, Implies, InSet, Not, Or, Raised,
                                StrictEq, Sugar, Term, Var, alpha_equal,
                                alpha_normalize, free_atoms, free_names,
                                raise_term, substitute, term_index)

__all__ = [
    "expand_abbreviations", "FormationVerdict", "check_formation",
    "OMEGA", "TypeIndex", "fin", "parse_index",
    "parse_formula", "parse_hol_lines", "parse_term",
    "print_formula", "print_term",
    "Regime", "ctt", "fjt", "parse_regime", "stt", "stt_down", "stt_up",
    "And", "Apply", "Const", "DownRel", "Exists", "Forall", "Formula", "Iff",
    "Implies", "InSet", "Not", "Or", "Raised", "StrictEq", "Sugar", "Term",
    "Var", "alpha_equal", "alpha_normalize", "free_atoms", "free_names",
    "raise_term", "substitute", "term_index",
]
