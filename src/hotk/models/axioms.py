"""Per-theory axiom suites over finite models: one verdict per axiom.

A theory axiom is its formula in hotk.kernel.axioms, instantiated at every
type up to max_type; an instance that needs a type the model lacks is left
out.  The row FAILs at the first false instance, with the first assignment
to its leading binders, in binder order, that falsifies its matrix; an
instance the model cannot evaluate (no raising map, an entity the raising
map misses, no projection relation) FAILs with the evaluator's message.
Comprehension schemes are checked by extensional completeness: a witness
entity for every candidate extension (or tuple of extensions).  That
dominates every instance of the scheme, so a PASS is sound for all of them;
the report calls this FULL-COMPREHENSION.  A check that needs more than
`budget` entities or subsets is SKIPPED, unless a later one FAILs.
"""

from __future__ import annotations

from functools import lru_cache

from hotk.errors import BudgetExceeded, EvalError
from hotk.graphs import first_unrealized
from hotk.kernel import axioms as ax
from hotk.kernel import regimes as rg
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.indices import fin
from hotk.kernel.syntax import Forall
from hotk.models.builders import DEFAULT_BUDGET
from hotk.models.core import Model, counterexamples, eval_formula
from hotk.models.decide import top_type
from hotk.report import FAIL, PASS, SKIPPED, SuiteReport

_FULL = "FULL-COMPREHENSION"
_UP = lambda top: [(n,) for n in range(top - 1)]
_DOWN = lambda top: [(n,) for n in range(1, top)]

# name -> (builder, its arguments for max_type `top`, witness format).  The
# format takes the arguments by position, each leading universal binder's
# entity as {x} and its type as {x_t}, and the domain sizes as {sizes}.
_SCHEMES = {
    "type-raising": (ax.type_raising, lambda top: [
        (fin(a), fin(b)) for a in range(top + 1) for b in range(a, top + 1)],
        "{x} at type {x_t} has no type-{1} copy"),
    "type-founded": (ax.type_founded, lambda top: [
        (fin(a), fin(b)) for a in range(top + 1) for b in range(top)],
        "{a}^{a_t} in {b}^{b_t} with no type-{1} copy"),
    "type-base": (ax.type_base, lambda top: [(fin(a),) for a in range(top + 1)],
                  "{y}^{y_t} in {x}^{x_t}"),
    "type-ext": (ax.type_ext, lambda top: [
        (fin(a), fin(b)) for a in range(top) for b in range(a, top)],
        "{a}^{a_t} vs {b}^{b_t}"),
    "type-purity": (ax.type_purity, lambda top: [()], "{sizes[0]} type-0 entities"),
    "up-inject": (ax.up_inject, lambda top: [(n,) for n in range(top)],
                  "{x} and {y} raise alike"),
    "up-possess": (ax.up_possess, _UP, "{y}^{y_t} over {x}^{x_t}"),
    "up-founded": (ax.up_founded, _UP, "{x}^{x_t} not raised"),
    "up-base": (ax.up_base, lambda top: [()] if top >= 1 else [], None),
    "down-exists": (ax.down_exists, _DOWN, "{z}^{z_t} projects nowhere"),
    "down-sim": (ax.down_sim, _DOWN, "{z}^{z_t} over {x},{y}"),
    "down-max": (ax.down_max, _DOWN, "{z}^{z_t} misses {y}^{y_t}"),
}


def check_axiom_suite(m: Model, theory: rg.Regime, max_type: int,
                      budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """The theory's axioms, instantiated at types up to max_type."""
    if max_type > m.max_type:
        raise EvalError(f"max_type {max_type} above model height {m.max_type}")
    if max_type < 0:
        raise EvalError(f"max_type {max_type} below 0")
    report = SuiteReport(subject=f"{theory} on {m.kind} model")
    if theory.kind in rg.PLAIN_COMPREHENSION_KINDS:
        report.row("comprehension",
                   plain_comprehension_checks(m, range(max_type), budget),
                   _FULL, fail_note=_FULL)
        if theory.is_ctt:       # a lemma: no proof may cite it
            report.row("type-raising",
                       _scheme_checks(m, "type-raising", max_type, budget))
    elif theory.kind == rg.STT_DOWN:
        report.row("comprehension-type1",
                   plain_comprehension_checks(m, range(min(max_type, 1)), budget), _FULL)
        report.row("comprehension-augmented",
                   _augmented_checks(m, max_type, budget), _FULL)
    else:
        report.row("comprehension-finitary",
                   _finitary_checks(m, max_type, budget), _FULL)
        report.row("extensionality-surrogate", _surrogate_checks(m, max_type))
        # checked, though fjt's proofs may not cite it
        report.row("type-purity",
                   _scheme_checks(m, "type-purity", max_type, budget))
    for name in ax.axioms_of(theory):
        report.row(name, _scheme_checks(m, name, max_type, budget))
    return report


def _scheme_checks(m: Model, name: str, top: int, budget: int):
    """The false or unevaluable instances of a theory axiom."""
    _, instances, witness = _SCHEMES[name]
    for args in instances(top):
        f = _expanded_axiom(name, args)
        if not m.reaches(top_type(f)[0]):
            continue
        try:
            if eval_formula(m, f, budget=budget):
                continue
            # Only a false instance pays for sweeping its matrix.
            vs = []
            while isinstance(f, Forall):
                vs.append(f.var)
                f = f.body
            _, values = next(counterexamples(m, vs, f, budget=budget))
        except BudgetExceeded as e:
            yield SKIPPED, str(e)
        except EvalError as e:
            yield FAIL, str(e)
        else:
            fields = {v.name: x for v, x in zip(vs, values)}
            fields.update((f"{v.name}_t", v.index) for v in vs)
            yield FAIL, witness and witness.format(
                *args, sizes=[len(d) for d in m.domains], **fields)


@lru_cache(maxsize=256)
def _expanded_axiom(name: str, args: tuple):
    """A theory axiom's expanded instance, parsed once per process."""
    return expand_abbreviations(_SCHEMES[name][0](*args))


def _comprehension(m: Model, types, entities, budget: int):
    """Whether every tuple of subsets of the domains of `types` is the tuple
    of extensions at those types of one of the entities: (PASS, None),
    (SKIPPED, the number of tuples) when that number is above budget, or
    (FAIL, the first missing tuple in powerset and product order)."""
    doms = [m.domains[i] for i in types]
    target = 2 ** sum(map(len, doms))
    if target > budget:
        return SKIPPED, target
    combo = first_unrealized(
        doms, {tuple(m.extension(z, i) for i in types) for z in entities})
    return (PASS, None) if combo is None else (FAIL, combo)


def plain_comprehension_checks(m: Model, levels, budget: int):
    """Every subset of the type-n domain is the extension of a type-(n+1)
    entity, for each n in levels."""
    for n in levels:
        status, got = _comprehension(m, [n], m.domains[n + 1], budget)
        yield status, (f"2^{len(m.domains[n])} subsets at type {n}"
                       if status == SKIPPED else got and
                       f"type {n}: extension {{{','.join(got[0])}}} unrealized")


def _augmented_checks(m: Model, max_type: int, budget: int):
    """Every subset of the type-n domain is the extension of a type-(n+1)
    entity that projects to y, for each type-n anchor y."""
    rel = m.down_rel or set()
    for n in range(1, max_type):
        for y in m.domains[n]:
            status, _ = _comprehension(m, [n], (
                z for z in m.domains[n + 1] if (n + 1, z, y) in rel), budget)
            yield status, (f"2^{len(m.domains[n])} subsets at type {n}"
                           if status == SKIPPED else f"type {n}, anchor {y}")


def _finitary_checks(m: Model, max_type: int, budget: int):
    """Every tuple of subsets of the lower domains is the tuple of
    extensions of a type-n entity, for each n up to max_type."""
    for n in range(1, max_type + 1):
        status, got = _comprehension(m, range(n), m.domains[n], budget)
        yield status, (f"{got} extension tuples at type {n}" if status == SKIPPED
                       else f"type {n}: extension tuple unrealized")


def _surrogate_checks(m: Model, max_type: int):
    """No two type-n entities have the same extensions at every lower type."""
    for n in range(1, max_type + 1):
        seen = {}
        for x in m.domains[n]:
            key = tuple(m.extension(x, i) for i in range(n))
            if key in seen:
                yield FAIL, f"{seen[key]} and {x} coextensive at type {n}"
            seen[key] = x
