"""Renaming equivariance: every function that draws new names commutes with
a renaming of the names in its input.

A renaming pi is a permutation of names.  pi.f renames every variable and
constant of f, bound or free, through parts/rebuild.  For a function F that
builds a formula, F(pi.f) must be alpha-equal to pi.F(f): the names F draws
may differ, but none may capture a name of the input or be captured by one.
For a function that evaluates, the value on pi.f under the renamed
assignment is the value on f.  The permutations are seeded, and they range
over the stems new names are drawn from, so a rule that picks a new name by
looking at only some of the names of its input shows up as a capture.  The
proof checker gives a renamed proof document the same verdict, at the same
step, with the same tag.
"""

import random
from dataclasses import replace

from genutil import FormulaGen
from proof_docs import REGIMES as PROOF_REGIMES, HAND_PROOFS, REJECTION_PROOFS
from proof_docs import SCHEME_PROOFS, fixture_documents, mutations
from test_compile import outcome

from hotk.corpus import separation_corpus
from hotk.errors import DEFAULT_BUDGET, ProofError
from hotk.kernel import fin, parse_formula, parse_regime
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.syntax import (Const, Exists, Forall, Raised, Var,
                                alpha_equal, alpha_normalize, free_atoms,
                                parts, rebuild, subformulas, substitute)
from hotk.models import eval_formula
from hotk.models.decide import decide_fjt, top_type
from hotk.proofkit import check_proof, load_proof
from hotk.settheory import build_V, separation_instance
from hotk.translate import (ctt_to_sttu, fjt_to_sttd, kappa_translate,
                            sttd_to_fjt, sttu_to_ctt)

# The generator's names (free a, b, c; binders s<n> and q<k>_<n>) and the
# names new variables are drawn as: v (expansion, normalization), r
# (substitution), w (raised-type map), y<k>_ (projection map), b
# (separation witness, b0 in its former rule) and u.
POOL = ["a", "b", "c", "b0", "b1", "v1", "v2", "v3", "r1", "w1", "w2", "u1",
        "y1_1", "y2_1", "q0_1", "q1_1", "q1_2", "q2_0", "s0", "s1", "s2"]
SEEDS = range(6)


def permutation(seed, names=POOL):
    images = list(names)
    random.Random(seed).shuffle(images)
    return dict(zip(names, images))


def rename(pi, t):
    if type(t) is Raised:
        return Raised(rename(pi, t.inner))
    return type(t)(pi.get(t.name, t.name), t.index)


def act(pi, f):
    """pi.f: every name of f, bound or free, renamed through pi."""
    terms, binder, bodies = parts(f)
    return rebuild(f, [rename(pi, t) for t in terms], binder and rename(pi, binder),
                   [act(pi, b) for b in bodies])


def commutes(fn, f, pi, *args):
    """fn(pi.f) is alpha-equal to pi.fn(f), or both raise the same class."""
    want = outcome(fn, f, *args)
    got = outcome(fn, act(pi, f), *args)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] == want[0], (f, pi)
    else:
        assert alpha_equal(got, act(pi, want)), (f, pi)


def generated(regime, count, max_type=2):
    gen = FormulaGen(parse_regime(regime), seed=len(regime), max_type=max_type,
                     max_depth=3)
    return [gen.formula() for _ in range(count)]


SUGAR_TEXTS = [
    "all x^0. some y^1. x^0 in y^1", "a^1 coext b^1 -> a^1 eq b^1",
    "all v1^1 eq b^1. v1^1 coext_1 b^1", "some r1^1 in c^2. r1^1(a^0)",
    "all w1^1. (w1^1 sub b0^1 | Lev(w1^1))", "Hist(h^1) & Rank(a^1, b1^1)",
    "a^2 downeq b^2 & all u1^1. u1^1 = u1^1"]
TYPED = ([parse_formula(t) for t in SUGAR_TEXTS] + generated("fjt", 12)
         + generated("ctt", 8) + generated("stt-up", 8) + generated("stt-down", 8))
REGIMES = [None] + [parse_regime(r) for r in
                    ("stt", "stt-up", "stt-down", "fjt", "ctt:w", "ctt-liberal:w")]


def test_expansion_and_normalization():
    for seed in SEEDS:
        pi = permutation(seed)
        for f in TYPED:
            for regime in REGIMES:
                commutes(expand_abbreviations, f, pi, regime)
            commutes(alpha_normalize, f, pi)


def test_substitution():
    """Each binder's variable in its own body, replaced by a constant, by a
    raised variable and by each binder's variable (a capture)."""
    for seed in SEEDS:
        pi = permutation(seed)
        for f in TYPED:
            binders = [g for g in subformulas(f) if isinstance(g, (Forall, Exists))]
            for g in binders:
                v = g.var
                for repl in [Const("c", v.index), Raised(Var("r1", v.index))] + \
                        [h.var for h in binders]:
                    want = outcome(substitute, g.body, v, repl, False)
                    got = outcome(substitute, act(pi, g.body), rename(pi, v),
                                  rename(pi, repl), False)
                    if isinstance(want, tuple):
                        assert got[0] == want[0]
                    else:
                        assert alpha_equal(got, act(pi, want)), (g, repl, pi)


def test_the_four_maps():
    sources = {ctt_to_sttu: "ctt", sttu_to_ctt: "stt-up", fjt_to_sttd: "fjt",
               sttd_to_fjt: "stt-down"}
    for seed in SEEDS:
        pi = permutation(seed)
        for fn, regime in sources.items():
            for f in generated(regime, 10, max_type=3):
                commutes(fn, f, pi)


# Separation formulas with parameters, among them b and b0, which the former
# witness rule ("b", else "b0") captured.
PARAM_TEXTS = ["x in b & ~x in b0", "~x in p & x in q", "x in q | x sub p",
               "all y. y in p -> ~y in x", "some y in q. x in y & y in b1"]
SET = separation_corpus() + [parse_formula(t, mode="set") for t in PARAM_TEXTS]


def test_kappa_translation():
    for seed in SEEDS:
        pi = permutation(seed, POOL + ["x", "y", "p", "q"])
        for phi in SET:
            for kappa in (fin(1), fin(2)):
                commutes(kappa_translate, phi, pi, kappa)


def _parameters(f, count):
    """The names of f's first count universal binders, and what they bind."""
    names = []
    for _ in range(count):
        names.append(f.var.name)
        f = f.body
    return names, f


def test_separation_instances():
    """With pi fixing x and a, the instance of pi.phi is pi of phi's instance,
    up to the order in which the parameters are bound, which follows their
    names; and both are true or both false in V3."""
    v3 = build_V(3)
    names = [n for n in POOL if n != "a"] + ["p", "q", "y"]
    for seed in range(12):
        pi = permutation(seed, names)
        for phi in SET:
            params = len({t.name for t in free_atoms(phi)} - {"x", "a"})
            got = separation_instance(act(pi, phi))
            want = act(pi, separation_instance(phi))
            got_names, got_matrix = _parameters(got, params)
            want_names, want_matrix = _parameters(want, params)
            assert sorted(got_names) == sorted(want_names)
            assert alpha_equal(got_matrix, want_matrix), (phi, pi)
            assert eval_formula(v3, got) == eval_formula(v3, want), (phi, pi)


def _assignment(m, f):
    """An entity for each free atom of f, drawn from its type's domain."""
    return {(t.name, t.index): m.domain(t.index)[len(t.name) % len(m.domain(t.index))]
            for t in free_atoms(f)}


def test_evaluation_type_walk_and_decision(fjt2, fjt3):
    sentences = [FormulaGen(parse_regime("fjt"), seed=seed, max_type=2,
                            max_depth=3).sentence() for seed in range(12)]
    sentences += [parse_formula(t) for t in (
        "all x^0. some y^1. x^0 in y^1", "all b0^1. some v1^1. b0^1 sub v1^1",
        "some s^0. Lev(s^0) & Hist(s^0)", "all a^0. some r1^0. Rank(a^0, r1^0)")]
    formulas = TYPED[:len(SUGAR_TEXTS)] + generated("fjt", 12) + sentences
    for seed in SEEDS:
        pi = permutation(seed)
        for f in formulas:
            g = act(pi, f)
            assert outcome(top_type, g) == outcome(top_type, f), (f, pi)
            env = _assignment(fjt3, f)
            renamed = {(pi.get(name, name), index): e for (name, index), e in env.items()}
            for budget in (DEFAULT_BUDGET, 10):
                assert outcome(eval_formula, fjt3, g, renamed, budget) == \
                    outcome(eval_formula, fjt3, f, env, budget), (f, pi)
        for f in sentences:
            for height, m in ((2, fjt2), (3, fjt3)):
                assert outcome(decide_fjt, act(pi, f), height, 300, m) == \
                    outcome(decide_fjt, f, height, 300, m), (f, pi)


def _renamed_proof(pi, p):
    """pi.p: every formula and term of a loaded proof renamed through pi."""
    def term(t):
        return t and rename(pi, t)
    return replace(p, hypotheses=[act(pi, h) for h in p.hypotheses],
                   goal=p.goal and act(pi, p.goal),
                   steps=[replace(s, formula=act(pi, s.formula), eigen=term(s.eigen),
                                  witness=term(s.witness)) for s in p.steps])


def _verdict(p):
    """(accepted, step, tag), or the error class; a message may name a
    variable, so it is left out."""
    try:
        v = check_proof(p)
    except Exception as e:
        return type(e).__name__
    return v.accepted, v.step, v.tag


def test_the_proof_checker():
    """A renamed proof document gets the same verdict, at the same step,
    with the same tag, under its own theory and under every regime."""
    docs = {**fixture_documents(), **HAND_PROOFS, **SCHEME_PROOFS,
            **REJECTION_PROOFS}
    names = POOL + ["p", "q", "r", "x", "y", "z", "u", "w", "d", "e", "f", "g"]
    proofs = []
    for doc in list(docs.values()) + [d for _, d in mutations(docs, 0, 60)]:
        for regime in [doc["theory"]] + PROOF_REGIMES:
            try:
                proofs.append(load_proof({**doc, "theory": regime}))
            except ProofError:      # a malformed file has no formulas to rename
                pass
    verdicts = set()
    for seed in SEEDS:
        pi = permutation(seed, names)
        for p in proofs:
            want = _verdict(p)
            assert _verdict(_renamed_proof(pi, p)) == want, (p, pi)
            verdicts.add(want[0] if isinstance(want, tuple) else want)
    assert verdicts == {True, False}
