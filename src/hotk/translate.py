"""The four translation schemes between theories, plus round-trip checking.

All translators expand defined symbols first and return primitive formulas;
the maps themselves only ever touch atoms, so the logical skeleton is
preserved.  Each public map is the `apply` of its TranslationMap: its
private body (which takes a formula already expanded) applied to the
expansion of its input; a round trip expands its formula once and runs
both bodies on that expansion.  A body defines each eq or coext_k atom it
brings in (kernel.expand.define) from its own FreshNames supply, so its
output is never expanded again.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import TYPE_CHECKING, Optional

from hotk.errors import FormationError
from hotk.kernel import regimes as rg
from hotk.kernel.expand import define, expand_abbreviations
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.parser import parse_index
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import (ATOMS, SET_SUGAR, And, Apply, DownRel,
                                Exists, Forall, Formula, FreshNames, Iff,
                                Implies, InSet, Raised, StrictEq, Sugar, Term,
                                Var, alpha_equal, conj, free_atoms, parts,
                                raise_term, rebuild, term_index)

if TYPE_CHECKING:
    from hotk.models.core import Model


def _map_formula(f: Formula, atom_fn) -> Formula:
    """Rebuild f (expanded: no sugar), sending every atom through atom_fn;
    a node none of whose bodies changed is kept as it is."""
    if type(f) in ATOMS:
        return atom_fn(f)
    terms, binder, bodies = parts(f)
    new = []
    for b in bodies:
        new.append(atom_fn(b) if type(b) in ATOMS else _map_formula(b, atom_fn))
    if any(map(is_not, new, bodies)):
        return rebuild(f, terms, binder, new)
    return f


# ---------------------------------------------------------------------------
# The superscripting translation from the set language into the cumulative
# theory: every variable gets the chosen type, membership becomes defined
# membership, identity becomes defined identity.

def kappa_translate(f: Formula, kappa: TypeIndex) -> Formula:
    def term(t: Term) -> Term:
        if isinstance(t, Raised):
            raise FormationError("raised term in a set-language formula")
        if t.index is not None:
            raise FormationError("input to the superscripting translation must be untyped")
        return type(t)(t.name, kappa)

    def go(g: Formula) -> Formula:
        kind = type(g)
        if kind in (Apply, DownRel):
            raise FormationError("typed atom in a set-language formula")
        if kind is Sugar:
            if g.kind == "bounded" and g.args[2] != "in":
                raise FormationError(f"{g.args[2]!r}-bounded quantifier in set language")
            if g.kind != "bounded" and g.kind not in SET_SUGAR:
                raise FormationError(f"sugar {g.kind!r} has no place in the set language")
        terms, binder, bodies = parts(g)
        terms = tuple([term(t) for t in terms])
        if kind is InSet:
            return Sugar("in", terms)
        if kind is StrictEq:
            return Sugar("eq", terms)
        if binder is not None:
            binder = Var(binder.name, kappa)
        return rebuild(g, terms, binder, [go(b) for b in bodies])

    return go(f)


# ---------------------------------------------------------------------------
# Cumulative theory over finite types  <->  raised-type theory.

def _ctt_to_sttu(f: Formula) -> Formula:
    """Wrap every application gap in raising: y^n(x^m) becomes y^n applied
    to x^m raised n-1-m times.  Finite types only."""
    def atom(g: Formula) -> Formula:
        if isinstance(g, Apply):
            n, m = term_index(g.head), term_index(g.arg)
            if not (n.is_finite and m.is_finite):
                raise FormationError("the interpretation is defined on finite types only")
            gap = n.finite_value - 1 - m.finite_value
            if gap < 0:
                raise FormationError("liberal atom has no raised-type image")
            return Apply(g.head, raise_term(g.arg, gap)) if gap else g
        if isinstance(g, StrictEq):
            return g
        raise FormationError(
            f"unexpected atom {print_formula(g)} in the cumulative theory")

    return _map_formula(f, atom)


def _sttu_to_ctt(f: Formula) -> Formula:
    """Raised terms denote the unique defined-identity copy one type up;
    the description is eliminated Russell-style inside its atom."""
    fresh = FreshNames(f)

    def strip_one(t: Term):
        """Replace the innermost-leftmost Raised subterm by a variable."""
        if isinstance(t, Raised):
            if isinstance(t.inner, Raised):
                inner, var, core = strip_one(t.inner)
                return Raised(inner), var, core
            idx = term_index(t.inner).succ()
            var = fresh.var(idx, "w")
            return var, var, t.inner
        return t, None, None

    def atom(g: Formula) -> Formula:
        if not isinstance(g, (Apply, StrictEq)):
            raise FormationError(
                f"unexpected atom {print_formula(g)} in the raised-type theory")
        terms = ((g.head, g.arg) if isinstance(g, Apply)
                 else (g.left, g.right))
        for pos, t in enumerate(terms):
            stripped, var, core = strip_one(t)
            if var is None:
                continue
            new_terms = list(terms)
            new_terms[pos] = stripped
            inner = type(g)(*new_terms)
            u = fresh.var(var.index, "w")
            # Defined in print order, so the v-numbers rise left to right.
            core_eq = define(Sugar("eq", (core, var)), fresh)
            uniq = Forall(u, Implies(define(Sugar("eq", (core, u)), fresh),
                                     StrictEq(u, var)))
            return Exists(var, And(core_eq, And(uniq, atom(inner))))
        return g

    return _map_formula(f, atom)


# ---------------------------------------------------------------------------
# Finitary cumulative-formation theory  <->  projection theory.

def _fjt_to_sttd(f: Formula) -> Formula:
    """Applications with a gap become universally guarded projection chains."""
    fresh = FreshNames(f)

    def atom(g: Formula) -> Formula:
        if isinstance(g, StrictEq):
            return g
        if not isinstance(g, Apply):
            raise FormationError(
                f"unexpected atom {print_formula(g)} in the finitary theory")
        n, m = term_index(g.head), term_index(g.arg)
        if not (n.is_finite and m.is_finite):
            raise FormationError("finitary theory admits finite types only")
        n, m = n.finite_value, m.finite_value
        if n == m + 1:
            return g
        if n <= m:
            raise FormationError("liberal atom has no projection image")
        chain_vars = [fresh.var(fin(k), f"y{k}_") for k in range(n - 1, m, -1)]
        guard = conj(DownRel(a, b) for a, b in zip([g.head, *chain_vars], chain_vars))
        body: Formula = Implies(guard, Apply(chain_vars[-1], g.arg))
        for v in reversed(chain_vars):
            body = Forall(v, body)
        return body

    return _map_formula(f, atom)


def _sttd_to_fjt(f: Formula) -> Formula:
    """Projection atoms become bounded coextensiveness one level down."""
    fresh = FreshNames(f)

    def atom(g: Formula) -> Formula:
        if isinstance(g, DownRel):
            n = term_index(g.right)
            if not n.is_finite or n.finite_value == 0:
                raise FormationError(f"a projection to type {n} has no finitary image")
            return define(Sugar("coext_k", (n.finite_value, g.left, g.right)), fresh)
        if isinstance(g, (Apply, StrictEq)):
            return g
        raise FormationError(
            f"unexpected atom {print_formula(g)} in the projection theory")

    return _map_formula(f, atom)


# ---------------------------------------------------------------------------
# Translation maps as data, plus round-trip checking.

KAPPA = "kappa"
# name -> (source kind, target kind, body).  A body takes an expanded formula
# and returns one, so a round trip needs no expansion between its two legs.
_MAPS = {
    "i-ctt-sttu": (rg.CTT_STRINGENT, rg.STT_UP, _ctt_to_sttu),
    "j-sttu-ctt": (rg.STT_UP, rg.CTT_STRINGENT, _sttu_to_ctt),
    "i-fjt-sttd": (rg.FJT, rg.STT_DOWN, _fjt_to_sttd),
    "j-sttd-fjt": (rg.STT_DOWN, rg.FJT, _sttd_to_fjt),
}

# source kind -> (there, back): the bodies of a map and of its inverse.
# pctt forms its formulas as ctt does, so it takes ctt's trip.
_ROUNDTRIPS = {src: (there, back) for src, dst, there in _MAPS.values()
               for src2, dst2, back in _MAPS.values() if (src2, dst2) == (dst, src)}
_ROUNDTRIPS[rg.PCTT] = _ROUNDTRIPS[rg.CTT_STRINGENT]


@dataclass(frozen=True)
class TranslationMap:
    name: str
    kappa: Optional[TypeIndex] = None

    def apply(self, f: Formula) -> Formula:
        if self.name == KAPPA:
            return kappa_translate(f, self.kappa)
        return _MAPS[self.name][2](expand_abbreviations(f, None))


# The four maps under names of their own.
ctt_to_sttu = TranslationMap("i-ctt-sttu").apply
sttu_to_ctt = TranslationMap("j-sttu-ctt").apply
fjt_to_sttd = TranslationMap("i-fjt-sttd").apply
sttd_to_fjt = TranslationMap("j-sttd-fjt").apply


def parse_map(text: str) -> TranslationMap:
    s = text.strip().lower()
    if s.startswith("kappa:"):
        return TranslationMap(KAPPA, parse_index(s.split(":", 1)[1]))
    if s in _MAPS:
        return TranslationMap(s)
    raise FormationError(f"unknown translation map {text!r}")


@dataclass
class RoundTripReport:
    regime_kind: str
    syntactic_equal: bool
    semantic_equivalent: Optional[bool]
    assignments_checked: int
    counterexample: Optional[dict] = None


def roundtrip_check(f: Formula, source: rg.Regime,
                    model: Optional[Model] = None) -> RoundTripReport:
    """Check the there-and-back image of f both syntactically (after
    expansion and renaming) and semantically (same truth value under every
    assignment in the reference model)."""
    if source.kind not in _ROUNDTRIPS:
        raise FormationError(f"no round trip from regime {source}")
    there, back = _ROUNDTRIPS[source.kind]
    original = expand_abbreviations(f, None)
    image = back(there(original))
    syntactic = alpha_equal(image, original)
    if model is None:
        return RoundTripReport(source.kind, syntactic, None, 0)
    # Imported here, not at the top, so the maps load without the models.
    from hotk.models.core import counterexamples
    # The image's own atoms stay unassigned; Iff evaluates the original first.
    atoms = sorted(free_atoms(original), key=lambda a: (a.index or (), a.name))
    checked, values = next(counterexamples(model, atoms, Iff(original, image)))
    return RoundTripReport(
        source.kind, syntactic, values is None, checked,
        counterexample=None if values is None
        else {f"{a.name}^{a.index}": e for a, e in zip(atoms, values)})
