"""Proof documents for the checker's tests.

The bundled fixtures as JSON documents, a small corpus of hand-written
proofs for the propositional rules the fixtures never use, one document
per rule rejection nothing else reaches, single scheme steps and the
rejections of their matchers, seeded mutations, and hostile
documents whose fields have the wrong JSON type.
"""

import copy
import json
import random
from importlib import resources

from hotk.proofkit.fixtures import fixture_manifest

REGIMES = ["stt", "stt-up", "stt-down", "ctt:w", "ctt-liberal:w", "pctt:w",
           "fjt"]

RULES = ["assume", "hyp", "reiterate", "and_i", "and_e", "or_i", "or_e",
         "implies_i", "implies_e", "not_i", "not_e", "dneg_e", "iff_i",
         "iff_e", "forall_e", "forall_i", "exists_i", "exists_e",
         "comprehension", "identity", "axiom"]


def fixture_documents():
    """{file name: JSON document} for every bundled proof."""
    manifest = fixture_manifest()
    names = manifest["positive"] + [item["file"] for item in manifest["negative"]]
    folder = resources.files("hotk") / "data" / "proofs"
    return {name: json.loads((folder / name).read_text()) for name in names}


def _step(n, formula, rule, premises=(), discharge=(), **extra):
    doc = {"n": n, "formula": formula, "rule": rule, **extra}
    if premises:
        doc["premises"] = list(premises)
    if discharge:
        doc["discharge"] = list(discharge)
    return doc


P, Q, R = "p^1(a^0)", "q^1(a^0)", "r^1(a^0)"

# Each uses a rule no fixture does.  "or_e leak" leaves the case assumption
# of its first case open, since the second case rests on it too.
HAND_PROOFS = {
    "or_e swap": {"theory": "stt", "steps": [
        _step(1, f"{P} | {Q}", "assume"),
        _step(2, P, "assume"),
        _step(3, f"{Q} | {P}", "or_i", [2]),
        _step(4, Q, "assume"),
        _step(5, f"{Q} | {P}", "or_i", [4]),
        _step(6, f"{Q} | {P}", "or_e", [1, 3, 5], [2, 4]),
        _step(7, f"{P} | {Q} -> {Q} | {P}", "implies_i", [6], [1])]},
    "or_e leak": {"theory": "stt", "steps": [
        _step(1, f"{P} | {Q}", "assume"),
        _step(2, P, "assume"),
        _step(3, Q, "assume"),
        _step(4, f"{Q} | {P}", "or_i", [2]),
        _step(5, f"{Q} | {P}", "or_e", [1, 4, 4], [2, 3]),
        _step(6, f"{P} | {Q} -> {Q} | {P}", "implies_i", [5], [1])]},
    "and swap": {"theory": "stt", "steps": [
        _step(1, f"{P} & {Q}", "assume"),
        _step(2, Q, "and_e", [1]),
        _step(3, P, "and_e", [1]),
        _step(4, f"{Q} & {P}", "and_i", [2, 3]),
        _step(5, f"{Q} & {P}", "reiterate", [4]),
        _step(6, f"{P} & {Q} -> {Q} & {P}", "implies_i", [5], [1])]},
    "double negation": {"theory": "stt", "steps": [
        _step(1, f"~~{P}", "assume"),
        _step(2, P, "dneg_e", [1]),
        _step(3, f"~~{P} -> {P}", "implies_i", [2], [1])]},
    "non-contradiction": {"theory": "stt", "goal": f"~({P} & ~{P})", "steps": [
        _step(1, f"{P} & ~{P}", "assume"),
        _step(2, P, "and_e", [1]),
        _step(3, f"~{P}", "and_e", [1]),
        _step(4, f"~({P} & ~{P})", "not_i", [2, 3], [1])]},
    "explosion": {"theory": "stt", "steps": [
        _step(1, P, "assume"),
        _step(2, f"~{P}", "assume"),
        _step(3, R, "not_e", [1, 2]),
        _step(4, f"~{P} -> {R}", "implies_i", [3], [2]),
        _step(5, f"{P} -> ~{P} -> {R}", "implies_i", [4], [1])]},
    "existential case": {"theory": "ctt:w", "hypotheses": ["some x^0. p^1(x^0)"],
                         "goal": "some y^0. p^1(y^0)", "steps": [
        _step(1, "some x^0. p^1(x^0)", "hyp"),
        _step(2, "p^1(c^0)", "assume"),
        _step(3, "some y^0. p^1(y^0)", "exists_i(0,0)", [2], witness="c^0"),
        _step(4, "some y^0. p^1(y^0)", "exists_e(0,0)", [1, 3], [2],
              eigen="c^0")]},
}

# One document per rejection that neither the fixtures nor the documents
# above reach, with its (step, tag, message), or for a document that does
# not load, its error class and message.
_MIS = "rule-mismatch"
_EXISTS_CASE = [_step(1, "some x^0. p^1(x^0)", "assume"),
                _step(2, "p^1(c^0)", "assume"),
                _step(3, "some y^0. p^1(y^0)", "exists_i(0,0)", [2], witness="c^0")]
REJECTIONS = {
    "and_e, neither conjunct": ("stt", [
        _step(1, f"{P} & {Q}", "assume"), _step(2, R, "and_e", [1])],
        (2, _MIS, "conclusion is neither conjunct")),
    "or_i, neither disjunct": ("stt", [
        _step(1, P, "assume"), _step(2, f"{Q} | {R}", "or_i", [1])],
        (2, _MIS, "premise is neither disjunct")),
    "or_e, no disjunction": ("stt", [
        _step(1, f"{P} & {Q}", "assume"), _step(2, P, "assume"),
        _step(3, Q, "assume"), _step(4, R, "or_e", [1, 2, 3], [2, 3])],
        (4, _MIS, "first premise is not a disjunction")),
    "or_e, cases differ": ("stt", [
        _step(1, f"{P} | {Q}", "assume"), _step(2, P, "assume"),
        _step(3, Q, "assume"), _step(4, P, "or_e", [1, 2, 3], [2, 3])],
        (4, _MIS, "case conclusions differ from the conclusion")),
    "not_i, other negation": ("stt", [
        _step(1, P, "assume"), _step(2, f"~{P}", "assume"),
        _step(3, f"~{Q}", "not_i", [1, 2], [1])],
        (3, _MIS, "conclusion is not the negated assumption")),
    "iff_i, one direction twice": ("stt", [
        _step(1, f"{P} -> {Q}", "assume"), _step(2, f"{P} -> {Q}", "assume"),
        _step(3, f"{P} <-> {Q}", "iff_i", [1, 2])],
        (3, _MIS, "premises are not the two directions")),
    "iff_e, no direction": ("stt", [
        _step(1, f"{P} <-> {Q}", "assume"), _step(2, f"{P} -> {R}", "iff_e", [1])],
        (2, _MIS, "conclusion is neither direction")),
    "unknown rule": ("stt", [_step(1, P, "frobnicate")],
                     (1, _MIS, "unknown rule 'frobnicate'")),
    "exists_e, case derivation": ("stt", _EXISTS_CASE + [
        _step(4, "q^1(b^0)", "exists_e(0,0)", [1, 3], [2], eigen="c^0")],
        (4, _MIS, "conclusion differs from the case derivation")),
    "forall_i, eigenvariable in conclusion": ("stt", [
        _step(1, "p^1(c^0) & q^1(c^0)", "assume"),
        _step(2, "all x^0. (p^1(x^0) & q^1(c^0))", "forall_i(0,0)", [1],
              eigen="c^0")],
        (2, "eigenvariable-conclusion", "eigenvariable c occurs where forbidden")),
    "axiom, unknown": ("ctt:w", [_step(1, P, "axiom", scheme={"name": "no-such"})],
                       (1, "scheme-shape", "unknown axiom 'no-such'")),
    "axiom, other instance": ("ctt:w", [
        _step(1, P, "axiom", scheme={"name": "type-base", "alpha": 0})],
        (1, "scheme-shape", "formula is not the declared type-base instance")),
    "bad rule string": ("stt", [_step(1, P, "and e")],
                        ("ProofError", "step 1: bad rule string 'and e'")),
    "plain, no quantifiers": ("stt", [_step(1, "all x^0. p^1(x^0)", "comprehension")],
                              (1, "scheme-shape", "not a comprehension instance")),
    "plain, matrix": ("stt", [
        _step(1, "some z^1. all x^0. p^1(x^0) <-> z^1(x^0)", "comprehension")],
        (1, "scheme-shape", "not a comprehension instance")),
    "forall_e, unadmitted types (stt)": ("stt", [
        _step(1, "all x^1. p^2(x^1)", "assume"),
        _step(2, "p^2(c^1)", "forall_e(w,w)", [1], witness="c^1")],
        (2, "type-side-condition",
         "forall_e(w,w) violates the regime's instantiation discipline")),
    "forall_e, unadmitted types (ctt)": ("ctt:3", [
        _step(1, "all x^1. p^2(x^1)", "assume"),
        _step(2, "p^2(c^1)", "forall_e(3,3)", [1], witness="c^1")],
        (2, "type-side-condition",
         "forall_e(3,3) violates the regime's instantiation discipline")),
    "plain, types": ("ctt:w", [
        _step(1, "some z^2. all x^0. z^2(x^0) <-> p^1(x^0)", "comprehension")],
        (1, "scheme-shape", "not a comprehension instance")),
}
REJECTION_PROOFS = {name: {"theory": theory, "steps": steps}
                    for name, (theory, steps, _) in REJECTIONS.items()}

# Single comprehension and identity steps: an accepted instance of the
# augmented (stt-down), finitary (fjt) and identity schemes, and a change to
# one for each rejection message of its matcher, with the message under the
# step's own theory.  The augmented matcher has no "type arithmetic is off"
# (the oracle keeps it): formation already ties the witness, anchor and
# variable types, so no well-formed step could reach it.
_AUG = "all y^1. some z^2. {} dn y^1 & (all x^1. {})"
_FIN = "some z^2. (all x^{}. z^2(x^{}) <-> {}) & (all x^{}. z^2(x^{}) <-> {})"
_IDENT = "a^0 = b^0 <-> {}"
SCHEME_STEPS = {
    "augmented": ("stt-down", "comprehension",
                  _AUG.format("z^2", "z^2(x^1) <-> p^2(x^1)"), None),
    "augmented, no anchor": ("stt-down", "comprehension",
                             "all y^1. some z^2. all x^1. z^2(x^1) <-> p^2(x^1)",
                             "not an augmented comprehension instance"),
    "augmented, guard": ("stt-down", "comprehension",
                         _AUG.format("c^2", "z^2(x^1) <-> p^2(x^1)"),
                         "projection guard does not bind the witness"),
    "augmented, matrix": ("stt-down", "comprehension",
                          _AUG.format("z^2", "p^2(x^1) <-> z^2(x^1)"),
                          "not an augmented comprehension instance"),
    "augmented, witness": ("stt-down", "comprehension",
                           _AUG.format("z^2", "z^2(x^1) <-> ~z^2(x^1)"),
                           "witness z occurs in the matrix"),
    "plain above type 0": ("stt-down", "comprehension",
                           "some z^2. all x^1. z^2(x^1) <-> p^2(x^1)",
                           "plain comprehension only forms type-1 properties here"),
    "finitary": ("fjt", "comprehension",
                 _FIN.format(1, 1, "p^2(x^1)", 0, 0, "q^1(x^0)"), None),
    "finitary, no witness": ("fjt", "comprehension", "all x^1. p^2(x^1)",
                             "not a finitary comprehension instance"),
    "finitary, type 0": ("fjt", "comprehension", "some z^0. p^1(z^0)",
                         "witness must have a positive finite type"),
    "finitary, one conjunct": ("fjt", "comprehension",
                               "some z^2. all x^1. z^2(x^1) <-> p^2(x^1)",
                               "need 2 conjuncts, found 1"),
    "finitary, order": ("fjt", "comprehension",
                        _FIN.format(0, 0, "q^1(x^0)", 1, 1, "p^2(x^1)"),
                        "conjunct for type 1 is off"),
    "finitary, witness": ("fjt", "comprehension",
                          _FIN.format(1, 1, "p^2(x^1)", 0, 0, "~z^2(x^0)"),
                          "witness z occurs in a matrix"),
    "identity": ("stt", "identity",
                 _IDENT.format("(all z^1. z^1(a^0) <-> z^1(b^0))"), None),
    "identity, no quantifier": ("stt", "identity", _IDENT.format("p^1(a^0)"),
                                "not an identity-scheme instance"),
    "identity, no biconditional": ("stt", "identity",
                                   _IDENT.format("(all z^1. z^1(a^0) & z^1(b^0))"),
                                   "not an identity-scheme instance"),
    "identity, head": ("stt", "identity",
                       _IDENT.format("(all z^1. z^1(a^0) <-> p^1(b^0))"),
                       "indiscernibility quantifier must head both sides"),
    "identity, terms": ("stt", "identity",
                        _IDENT.format("(all z^1. z^1(b^0) <-> z^1(a^0))"),
                        "indiscernibility must apply to the identity's terms"),
    "identity, types": ("ctt:w", "identity",
                        _IDENT.format("(all z^2. z^2(a^0) <-> z^2(b^0))"),
                        "type arithmetic is off"),
}
SCHEME_PROOFS = {name: {"theory": theory, "steps": [_step(1, formula, rule)]}
                 for name, (theory, rule, formula, _) in SCHEME_STEPS.items()}

# Wrong JSON types in the fields the checker reads; each must be a
# malformed file, not a crash.
HOSTILE_PROOFS = {
    "step number not an int": {"theory": "stt", "steps": [
        _step(1, P, "assume"), _step("a", P, "reiterate", [1])]},
    "premise a list": {"theory": "stt", "steps": [
        _step(1, P, "assume"), _step(2, P, "reiterate", [[1]])]},
    "scheme name a list": {"theory": "ctt:w", "steps": [
        _step(1, "all x^0. all y^1. ~y^1 in x^0", "axiom",
              scheme={"name": ["x"]})]},
    "scheme a string": {"theory": "ctt:w", "steps": [
        _step(1, "all x^0. all y^1. ~y^1 in x^0", "axiom",
              scheme="name: type-base")]},
    "raised eigenvariable": {"theory": "stt-up", "steps": [
        _step(1, "up(z^0)(a^0)", "assume"),
        _step(2, "all x^1. x^1(a^0)", "forall_i(1,1)", [1], eigen="up(z^0)")]},
}


def _mutate(doc, rng):
    """A copy of doc with one seeded change to its steps: drop a step, swap
    two, shift a premise or a discharge, rename the rule, swap its type
    arguments, exchange its witness and eigenvariable, or move one of them
    to another type.  None when the chosen change does not apply."""
    doc = copy.deepcopy(doc)
    steps = doc["steps"]
    i = rng.randrange(len(steps))
    s = steps[i]
    kind = rng.choice(["drop", "reorder", "premises", "discharge", "rule",
                       "types", "term", "retype"])
    if kind == "drop":
        del steps[i]
    elif kind == "reorder" and len(steps) > 1:
        j = rng.randrange(len(steps) - 1)
        steps[j], steps[j + 1] = steps[j + 1], steps[j]
    elif kind in ("premises", "discharge") and s.get(kind):
        k = rng.randrange(len(s[kind]))
        s[kind][k] += rng.choice([-2, -1, 1, 2])
    elif kind == "rule":
        s["rule"] = rng.choice(RULES) + "".join(s["rule"].partition("(")[1:])
    elif kind == "types" and "," in s["rule"]:
        head, _, args = s["rule"].partition("(")
        beta, alpha = args.rstrip(")").split(",")
        s["rule"] = f"{head}({alpha},{beta})"
    elif kind == "term" and ("eigen" in s or "witness" in s):
        eigen, witness = s.pop("eigen", None), s.pop("witness", None)
        if witness is not None:
            s["eigen"] = witness
        if eigen is not None:
            s["witness"] = eigen
    elif kind == "retype" and ("eigen" in s or "witness" in s):
        key = "eigen" if "eigen" in s else "witness"
        name, _, index = s[key].partition("^")
        if not index.isdigit():
            return None
        s[key] = f"{name}^{max(0, int(index) + rng.choice([-1, 1]))}"
    else:
        return None
    return doc


def mutations(docs, seed, count):
    """count seeded single-change mutations of the documents in docs."""
    rng = random.Random(seed)
    names = sorted(docs)
    out = []
    while len(out) < count:
        name = rng.choice(names)
        got = _mutate(docs[name], rng)
        if got is not None:
            out.append((name, got))
    return out
