"""Domain-of-quantification formulas: unrestrictedness and Russellianness.

Each generator returns the definition's right-hand side with the candidate
domain free as the constant d^n, ready for evaluation against a model
entity.
"""

from __future__ import annotations

from hotk.errors import FormationError
from hotk.kernel.parser import parse_formula, parse_term
from hotk.kernel.syntax import Formula, Term

UNRESTRICTED_STT = "unrestricted-stt"
M_RUSSELLIAN = "m-russellian"
M_RUSSELLIAN_STAR = "m-russellian-star"
M_UNRESTRICTED = "m-unrestricted"

KINDS = (UNRESTRICTED_STT, M_RUSSELLIAN, M_RUSSELLIAN_STAR, M_UNRESTRICTED)


def domain_const(n: int) -> Term:
    return parse_term(f"d^{n}")


def gen_domain_formula(kind: str, n: int, m: int = 1) -> Formula:
    """Build the chosen definition at domain type n (and predicate type m).
    Each part runs over types from the highest down; the first of two
    conjoined parts is parenthesised so that it stays one conjunct."""
    if n < 1 or m < 1:
        raise FormationError("domain formulas need types >= 1")
    d, below_n, below_m = f"d^{n}", range(n - 1, -1, -1), range(m - 1, -1, -1)

    if kind == UNRESTRICTED_STT:
        x, y = f"x^{n - 1}", f"y^{n}"
        return parse_formula(
            f"all {y}. (all {x}. {d}({x}) -> {y}({x})) -> all {x}. {y}({x})")

    if kind == M_UNRESTRICTED:
        y = f"y^{m}"
        hyp = " & ".join(f"(all x^{i}. {d}(x^{i}) -> {y}(x^{i}))"
                         for i in range(min(m, n) - 1, -1, -1))
        conc = " & ".join(f"(all x^{i}. {y}(x^{i}))" for i in below_m)
        return parse_formula(f"all {y}. {hyp} -> {conc}")

    if kind == M_RUSSELLIAN:
        covers = " & ".join(f"(all y^{k}. " + " | ".join(
            f"(some x^{i} eq y^{k}. {d}(x^{i}))" for i in below_n) + ")" for k in below_m)
        only = " & ".join(f"(all x^{i}. {d}(x^{i}) -> " + " | ".join(
            f"(some y^{k}. x^{i} eq y^{k})" for k in below_m) + ")" for i in below_n)
        return parse_formula(f"({covers}) & {only}")

    if kind == M_RUSSELLIAN_STAR:
        if n < m:
            raise FormationError(
                "the starred form is ill-formed (rather than false) when n < m")
        have = " & ".join(f"(all y^{k}. {d}(y^{k}))" for k in below_m)
        lack = " & ".join(f"(all y^{k}. ~{d}(y^{k}))" for k in range(n - 1, m - 1, -1))
        return parse_formula(f"({have}) & {lack}" if lack else have)

    raise FormationError(f"unknown domain-formula kind {kind!r}")
