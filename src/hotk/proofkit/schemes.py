"""Axiom-scheme instantiation for every theory the checker supports."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from hotk.errors import ProofError
# The builders are re-exported for callers that cite a scheme by function.
from hotk.kernel.axioms import (AXIOMS, down_exists, down_max, down_sim,
                                type_base, type_ext, type_founded, type_purity,
                                up_base, up_founded, up_inject, up_possess)
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.parser import parse_formula, parse_index, parse_term
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall,
                                Formula, Iff, StrictEq, Term, Var, conj,
                                occurs_free, term_index)


def _check_witness_absent(phi: Formula, witness: Var) -> None:
    if occurs_free(witness, phi):
        raise ProofError(
            f"comprehension witness {witness.name}^{witness.index} occurs in the matrix")


def comprehension(phi: Formula, level: TypeIndex, var: str = "x",
                  witness: str = "z") -> Formula:
    """One level of plain comprehension: some z^(a+1) holds of exactly the
    type-a satisfiers of phi.  Serves the standard, raised and cumulative
    theories alike."""
    x = Var(var, level)
    z = Var(witness, level.succ())
    _check_witness_absent(phi, z)
    return Exists(z, Forall(x, Iff(Apply(z, x), phi)))


def fjt_comprehension(phis: Sequence[Formula], n: int, var: str = "x",
                      witness: str = "z") -> Formula:
    """The finitary scheme: one matrix per lower type, conjoined."""
    if n < 1 or len(phis) != n:
        raise ProofError(f"need one matrix per type below {n}")
    z = Var(witness, fin(n))
    conjuncts = []
    for i in range(n - 1, -1, -1):
        phi = phis[i]
        _check_witness_absent(phi, z)
        x = Var(var, fin(i))
        conjuncts.append(Forall(x, Iff(Apply(z, x), phi)))
    return Exists(z, conj(conjuncts))


def sttd_comprehension(phi: Formula, n: int, var: str = "x", witness: str = "z",
                       anchor: str = "y") -> Formula:
    """Augmented comprehension: the witness additionally projects down to
    any given type-n anchor."""
    if n < 1:
        raise ProofError("augmented comprehension starts at type 1")
    x = Var(var, fin(n))
    z = Var(witness, fin(n + 1))
    y = Var(anchor, fin(n))
    _check_witness_absent(phi, z)
    return Forall(y, Exists(z, And(DownRel(z, y),
                                   Forall(x, Iff(Apply(z, x), phi)))))


def identity_scheme(left: Term, right: Term, witness: str = "z") -> Formula:
    n = term_index(left)
    if n != term_index(right) or n is None:
        raise ProofError("identity scheme takes two terms of one type")
    z = Var(witness, n.succ())
    return Iff(StrictEq(left, right),
               Forall(z, Iff(Apply(z, left), Apply(z, right))))


AXIOM_AVAILABILITY = {name: by for name, (_, _, by) in AXIOMS.items()}


def _scheme_arg(param: str, value):
    """A scheme record's parameter: a natural for n, else a type index.  A
    negative number is refused before any formula is built."""
    if isinstance(value, int) and value < 0:
        raise ProofError(f"scheme parameter {param!r} must be a natural, got {value}")
    if param == "n":
        return int(value)
    if isinstance(value, TypeIndex):
        return value
    return fin(value) if isinstance(value, int) else parse_index(str(value))


def axiom_instance(name: str, params: Optional[Dict] = None) -> Formula:
    """Instantiate a named scheme from a parameter record (CLI/proof files).

    Comprehension schemes take their matrices as formula strings; theory
    axioms take type indices.
    """
    params = dict(params or {})
    if name in ("comprehension", "stt-comprehension", "ctt-comprehension"):
        phi = params["phi"]
        if isinstance(phi, str):
            phi = parse_formula(phi)
        return comprehension(phi, _scheme_arg("type", params.get("type", 0)),
                             var=params.get("var", "x"),
                             witness=params.get("witness", "z"))
    if name == "fjt-comprehension":
        phis = [parse_formula(p) if isinstance(p, str) else p
                for p in params["phis"]]
        return fjt_comprehension(phis, int(params["n"]),
                                 var=params.get("var", "x"),
                                 witness=params.get("witness", "z"))
    if name == "sttd-comprehension":
        phi = params["phi"]
        if isinstance(phi, str):
            phi = parse_formula(phi)
        return sttd_comprehension(phi, int(params["n"]),
                                  var=params.get("var", "x"),
                                  witness=params.get("witness", "z"),
                                  anchor=params.get("anchor", "y"))
    if name == "identity":
        left = parse_term(params["left"]) if isinstance(params["left"], str) else params["left"]
        right = parse_term(params["right"]) if isinstance(params["right"], str) else params["right"]
        return identity_scheme(left, right, witness=params.get("witness", "z"))
    if name in AXIOMS:
        fn, argnames, _ = AXIOMS[name]
        try:
            args = [_scheme_arg(a, params[a]) for a in argnames]
        except KeyError as e:
            raise ProofError(f"axiom {name} needs parameter {e.args[0]!r}") from e
        return fn(*args)
    raise ProofError(f"unknown scheme {name!r}")
