"""Reference translation maps and round trip, kept as oracles for
`hotk.translate`.

These are the maps as they stood before each one got a private body that
takes an expanded formula: every map expands its input, a round trip runs
the public maps (so it expands the formula in the forward map and again as
`original`, and the backward map expands its input again), sweeps
`all_assignments`, which builds every assignment as a dict, evaluates both
sides at each with the tree-walking oracle of tests/tree_eval.py (which
expands them once more), and compares them by `alpha_normalize`.  `alpha_equal` is the comparison by
normalization.  `hotk.translate` and `hotk.kernel.syntax.alpha_equal` must
agree with them on every input: the same result, or the same error class
and message.
"""

from typing import Iterable, Optional

from hotk.errors import FormationError
from hotk.kernel import regimes as rg
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.indices import fin
from hotk.kernel.printer import print_formula
from hotk.kernel.syntax import (ATOMS, And, Apply, DownRel, Exists, Forall,
                                Implies, Raised, StrictEq, Sugar, Var,
                                alpha_normalize, all_names, conj,
                                free_atoms, parts, raise_term, rebuild,
                                term_index)
from hotk.models.core import Assignment, Model
from hotk.translate import RoundTripReport

from tree_eval import tree_evaluator


def fresh_name(stem, used):
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


def alpha_equal(f, g) -> bool:
    return alpha_normalize(f) == alpha_normalize(g)


def _map_formula(f, atom_fn):
    if type(f) in ATOMS:
        return atom_fn(f)
    terms, binder, bodies = parts(f)
    new = []
    for b in bodies:
        new.append(_map_formula(b, atom_fn))
    return rebuild(f, terms, binder, new)


def ctt_to_sttu(f):
    f = expand_abbreviations(f, None)

    def atom(g):
        if isinstance(g, Apply):
            n, m = term_index(g.head), term_index(g.arg)
            if not (n.is_finite and m.is_finite):
                raise FormationError("the interpretation is defined on finite types only")
            gap = n.finite_value - 1 - m.finite_value
            if gap < 0:
                raise FormationError("liberal atom has no raised-type image")
            return Apply(g.head, raise_term(g.arg, gap))
        if isinstance(g, StrictEq):
            return g
        raise FormationError(
            f"unexpected atom {print_formula(g)} in the cumulative theory")

    return _map_formula(f, atom)


def sttu_to_ctt(f):
    f = expand_abbreviations(f, None)
    used = set(all_names(f))

    def fresh(index):
        name = fresh_name("w", used)
        used.add(name)
        return Var(name, index)

    def strip_one(t):
        if isinstance(t, Raised):
            if isinstance(t.inner, Raised):
                inner, var, core = strip_one(t.inner)
                return Raised(inner), var, core
            idx = term_index(t.inner).succ()
            var = fresh(idx)
            return var, var, t.inner
        return t, None, None

    def atom(g):
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
            u = fresh(var.index)
            uniq = Forall(u, Implies(Sugar("eq", (core, u)), StrictEq(u, var)))
            return Exists(var, And(Sugar("eq", (core, var)),
                                   And(uniq, atom(inner))))
        return g

    return expand_abbreviations(_map_formula(f, atom), None)


def fjt_to_sttd(f):
    f = expand_abbreviations(f, None)
    used = set(all_names(f))

    def atom(g):
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
        chain_vars = []
        for k in range(n - 1, m, -1):
            name = fresh_name(f"y{k}_", used)
            used.add(name)
            chain_vars.append(Var(name, fin(k)))
        guard = conj(DownRel(a, b) for a, b in zip([g.head, *chain_vars], chain_vars))
        body = Implies(guard, Apply(chain_vars[-1], g.arg))
        for v in reversed(chain_vars):
            body = Forall(v, body)
        return body

    return _map_formula(f, atom)


def sttd_to_fjt(f):
    f = expand_abbreviations(f, None)

    def atom(g):
        if isinstance(g, DownRel):
            n = term_index(g.right).finite_value
            return Sugar("coext_k", (n, g.left, g.right))
        if isinstance(g, (Apply, StrictEq)):
            return g
        raise FormationError(
            f"unexpected atom {print_formula(g)} in the projection theory")

    return expand_abbreviations(_map_formula(f, atom), None)


_ROUNDTRIPS = {
    rg.CTT_STRINGENT: (ctt_to_sttu, sttu_to_ctt),
    rg.STT_UP: (sttu_to_ctt, ctt_to_sttu),
    rg.FJT: (fjt_to_sttd, sttd_to_fjt),
    rg.STT_DOWN: (sttd_to_fjt, fjt_to_sttd),
}


def all_assignments(m: Model, atoms) -> Iterable[Assignment]:
    from hotk.models.core import akey
    atoms = sorted(atoms, key=lambda a: (str(a.index), a.name))
    if not atoms:
        yield {}
        return

    def go(i: int, env: Assignment):
        if i == len(atoms):
            yield dict(env)
            return
        a = atoms[i]
        for e in m.domain(a.index):
            env[akey(a)] = e
            yield from go(i + 1, env)
        env.pop(akey(a), None)

    yield from go(0, {})


def roundtrip_check(f, source: rg.Regime,
                    model: Optional[Model] = None) -> RoundTripReport:
    if source.kind not in _ROUNDTRIPS:
        raise FormationError(f"no round trip from regime {source}")
    there, back = _ROUNDTRIPS[source.kind]
    image = back(there(f))
    original = expand_abbreviations(f, None)
    syntactic = alpha_equal(image, original)
    if model is None:
        return RoundTripReport(source.kind, syntactic, None, 0)
    checked = 0
    eval_original = tree_evaluator(model, original)
    eval_image = tree_evaluator(model, image)
    for env in all_assignments(model, free_atoms(original)):
        checked += 1
        if eval_original(env) != eval_image(env):
            return RoundTripReport(
                source.kind, syntactic, False, checked,
                counterexample={f"{k[0]}^{k[1]}": v for k, v in env.items()})
    return RoundTripReport(source.kind, syntactic, True, checked)
