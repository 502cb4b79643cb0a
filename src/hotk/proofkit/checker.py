"""Linear natural-deduction proof checking.

Proofs are JSON step lists (Fitch-style, explicit discharge indices).  The
checker enforces formation of every step, the typed quantifier rules with
their regime's type side-condition, eigenvariable conditions, the shape of
comprehension and identity instances as written (the only statement of those
schemes), and axiom availability per theory.

Every rule returns one of two things: the frozenset of assumption steps its
step rests on, or a (tag, message) rejection.  check_proof records the
first and turns the second into the verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

from hotk.errors import HotkError, ProofError, check_json, load_json
from hotk.kernel import regimes as rg
from hotk.kernel.axioms import AXIOMS, axioms_of
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.formation import check_formation
from hotk.kernel.indices import TypeIndex
from hotk.kernel.parser import parse_formula, parse_index, parse_term
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall,
                                Formula, Iff, Implies, Not, Or, Raised,
                                StrictEq, Term, Var, alpha_equal,
                                occurs_free, substitute, term_index)
from hotk.proofkit.schemes import axiom_instance

_RULE_RE = re.compile(r"^([a-z_]+)(?:\(([^()]*)\))?$")

# Shapes of a proof document, of one of its steps and of a step's scheme
# record (see errors.check_json).
_PROOF_SHAPE = {"theory": str, "hypotheses": [str], "goal": str, "steps": [dict]}
_STEP_SHAPE = {"n": int, "formula": str, "rule": str, "premises": [int],
               "discharge": [int], "eigen": str, "witness": str, "scheme": dict}
_SCHEME_SHAPE = {"name": str}

MISMATCH = "rule-mismatch"
SCHEME = "scheme-shape"

Rejection = Tuple[str, str]               # (tag, message)
Result = Union[FrozenSet[int], Rejection]


@dataclass
class ProofStep:
    n: int
    formula: Formula
    rule: str
    rule_types: Tuple[TypeIndex, ...]
    premises: List[int]
    discharge: List[int]
    eigen: Optional[Term] = None
    witness: Optional[Term] = None
    scheme: Optional[dict] = None


@dataclass
class ProofObject:
    theory: rg.Regime
    hypotheses: List[Formula]
    steps: List[ProofStep]
    goal: Optional[Formula] = None
    name: Optional[str] = None


@dataclass
class ProofVerdict:
    accepted: bool
    step: Optional[int] = None
    tag: Optional[str] = None
    message: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted

    def to_json(self) -> dict:
        doc = {"accepted": self.accepted}
        if not self.accepted:
            doc.update(step=self.step, tag=self.tag, message=self.message)
        return doc


def load_proof(doc: dict) -> ProofObject:
    check_json(doc, _PROOF_SHAPE, ("theory", "steps"), "proof file", ProofError)
    try:
        theory = rg.parse_regime(doc["theory"])
        hyps = [parse_formula(h) for h in doc.get("hypotheses", [])]
        goal = parse_formula(doc["goal"]) if "goal" in doc else None
        steps = [_load_step(raw, i) for i, raw in enumerate(doc["steps"], start=1)]
    except ProofError:
        raise
    except HotkError as e:      # bad formulas, terms, indices or theory
        raise ProofError(f"malformed proof file: {e}") from e
    return ProofObject(theory=theory, hypotheses=hyps, steps=steps,
                       goal=goal, name=doc.get("name"))


def _load_step(raw: dict, i: int) -> ProofStep:
    where = f"entry {i} of the proof file's steps"
    check_json(raw, _STEP_SHAPE, ("formula", "rule"), where, ProofError)
    check_json(raw.get("scheme", {}), _SCHEME_SHAPE, (), f"the scheme of {where}",
               ProofError)
    n = raw.get("n", i)
    m = _RULE_RE.match(raw["rule"].strip())
    if not m:
        raise ProofError(f"step {n}: bad rule string {raw['rule']!r}")
    rule, argstr = m.group(1), m.group(2)
    rule_types = tuple(parse_index(a.strip())
                       for a in argstr.split(",")) if argstr else ()
    eigen = parse_term(raw["eigen"]) if "eigen" in raw else None
    if isinstance(eigen, Raised):
        raise ProofError(f"step {n}: eigenvariable {raw['eigen']!r} is not a variable")
    return ProofStep(
        n=n,
        formula=parse_formula(raw["formula"]),
        rule=rule,
        rule_types=rule_types,
        premises=list(raw.get("premises", [])),
        discharge=list(raw.get("discharge", [])),
        eigen=eigen,
        witness=parse_term(raw["witness"]) if "witness" in raw else None,
        scheme=raw.get("scheme"))


def loads_proof(text: str) -> ProofObject:
    return load_proof(load_json(text, "proof file", ProofError))


def _types_ok(theory: rg.Regime, beta: TypeIndex, alpha: TypeIndex) -> bool:
    """The one statement of the instantiation rule for the types (beta,
    alpha) of forall_e, exists_i, forall_i and exists_e: both admitted, and
    equal, or alpha <= beta under ctt, ctt-liberal and pctt."""
    if not (theory.admits_index(alpha) and theory.admits_index(beta)):
        return False
    if theory.is_ctt:
        return alpha <= beta
    return alpha == beta


class _Cited(NamedTuple):
    """A step's formula and what it cites, as its rule reads them."""
    conc: Formula                   # the step's formula, expanded
    prems: List[Formula]            # its premises' formulas, expanded
    rests: List[FrozenSet[int]]     # the assumptions each premise rests on
    dis: List[Formula]              # its discharged assumptions, expanded


def check_proof(p: ProofObject) -> ProofVerdict:
    theory = p.theory
    hyps = [expand_abbreviations(h) for h in p.hypotheses]
    # Of each step checked so far: its rule, its expanded formula and the
    # assumption steps it rests on.
    rules: Dict[int, str] = {}
    forms: Dict[int, Formula] = {}
    asm: Dict[int, FrozenSet[int]] = {}

    for s in p.steps:
        if s.n in rules:
            raise ProofError(f"duplicate step number {s.n}")
        verdict = check_formation(s.formula, theory)
        if not verdict:
            return ProofVerdict(False, s.n, "formation",
                                f"{verdict.reason} in {verdict.offender}")
        err = _citation_error(s, rules)
        if err:
            return ProofVerdict(False, s.n, *err)
        cited = _Cited(expand_abbreviations(s.formula),
                       [forms[k] for k in s.premises],
                       [asm[k] for k in s.premises],
                       [forms[k] for k in s.discharge])
        got = _check_rule(theory, hyps, s, cited, forms)
        if isinstance(got, tuple):
            return ProofVerdict(False, s.n, *got)
        rules[s.n], forms[s.n], asm[s.n] = s.rule, cited.conc, got

    if not p.steps:
        return ProofVerdict(False, None, "malformed", "empty proof")
    last = p.steps[-1].n
    open_asms = {k for k in asm[last] if rules[k] != "hyp"}
    if open_asms:
        return ProofVerdict(False, last, "undischarged",
                            f"assumptions {sorted(open_asms)} never discharged")
    if p.goal is not None and not alpha_equal(forms[last],
                                              expand_abbreviations(p.goal)):
        return ProofVerdict(False, last, "goal-mismatch",
                            "final formula is not the declared goal")
    return ProofVerdict(True)


def _citation_error(s: ProofStep, rules: Dict[int, str]) -> Optional[Rejection]:
    for k in s.premises:
        if k not in rules or k >= s.n:
            return "premise-range", f"premise {k} is not an earlier step"
    for k in s.discharge:
        if k not in rules or k >= s.n:
            return "premise-range", f"discharged step {k} is not an earlier step"
        if rules[k] != "assume":
            return "discharge-range", f"step {k} is not an assumption"
    return None


def _check_rule(theory: rg.Regime, hyps: List[Formula], s: ProofStep,
                cited: _Cited, forms: Dict[int, Formula]) -> Result:
    rule = s.rule
    conc, prems, rests, dis = cited
    below = frozenset().union(*rests)

    if rule == "assume":
        return frozenset([s.n])
    if rule == "hyp":
        if not any(alpha_equal(conc, h) for h in hyps):
            return "hypothesis-unknown", "formula is not a declared hypothesis"
        return frozenset([s.n])

    if rule == "reiterate":
        if len(prems) != 1 or not alpha_equal(conc, prems[0]):
            return MISMATCH, "reiteration must repeat its premise"
        return below

    if rule == "and_i":
        if len(prems) != 2:
            return MISMATCH, "conjunction introduction takes two premises"
        if not alpha_equal(conc, And(*prems)):
            return MISMATCH, "conclusion is not the premises' conjunction"
        return below

    if rule == "and_e":
        if len(prems) != 1:
            return MISMATCH, "conjunction elimination takes one premise"
        src = prems[0]
        if not isinstance(src, And):
            return MISMATCH, "premise is not a conjunction"
        if not (alpha_equal(conc, src.left) or alpha_equal(conc, src.right)):
            return MISMATCH, "conclusion is neither conjunct"
        return below

    if rule == "or_i":
        if len(prems) != 1 or not isinstance(conc, Or):
            return MISMATCH, "disjunction introduction: one premise, Or conclusion"
        if not (alpha_equal(prems[0], conc.left) or alpha_equal(prems[0], conc.right)):
            return MISMATCH, "premise is neither disjunct"
        return below

    if rule == "or_e":
        if len(prems) != 3 or len(dis) != 2:
            return MISMATCH, "disjunction elimination: three premises, two discharges"
        src = prems[0]
        if not isinstance(src, Or):
            return MISMATCH, "first premise is not a disjunction"
        if not (alpha_equal(dis[0], src.left) and alpha_equal(dis[1], src.right)):
            return MISMATCH, "discharged assumptions are not the disjuncts"
        if not (alpha_equal(prems[1], conc) and alpha_equal(prems[2], conc)):
            return MISMATCH, "case conclusions differ from the conclusion"
        ia, ib = s.discharge
        return rests[0] | (rests[1] - {ia}) | (rests[2] - {ib})

    if rule == "implies_i":
        if len(prems) != 1 or len(dis) != 1:
            return MISMATCH, "conditional introduction: one premise, one discharge"
        if not alpha_equal(conc, Implies(dis[0], prems[0])):
            return MISMATCH, "conclusion is not assumption -> premise"
        return below - set(s.discharge)

    if rule == "implies_e":
        if len(prems) != 2:
            return MISMATCH, "modus ponens takes two premises"
        imp, ant = prems
        if not isinstance(imp, Implies) or not alpha_equal(imp.left, ant) \
                or not alpha_equal(imp.right, conc):
            return MISMATCH, "premises do not fit modus ponens"
        return below

    if rule in ("not_i", "not_e"):     # both rest on a contradiction pair
        if rule == "not_i" and (len(prems) != 2 or len(dis) != 1):
            return MISMATCH, "negation introduction: two premises, one discharge"
        if len(prems) != 2:
            return MISMATCH, "explosion takes a formula and its negation"
        a, b = prems
        if not (isinstance(b, Not) and alpha_equal(b.body, a)):
            return MISMATCH, "premises are not a contradiction pair"
        if rule == "not_e":
            return below
        if not alpha_equal(conc, Not(dis[0])):
            return MISMATCH, "conclusion is not the negated assumption"
        return below - set(s.discharge)

    if rule == "dneg_e":
        if len(prems) != 1:
            return MISMATCH, "double-negation elimination takes one premise"
        src = prems[0]
        if not (isinstance(src, Not) and isinstance(src.body, Not)
                and alpha_equal(src.body.body, conc)):
            return MISMATCH, "premise is not the conclusion doubly negated"
        return below

    if rule == "iff_i":
        if len(prems) != 2 or not isinstance(conc, Iff):
            return MISMATCH, "biconditional introduction: two conditionals"
        if not (alpha_equal(prems[0], Implies(conc.left, conc.right))
                and alpha_equal(prems[1], Implies(conc.right, conc.left))):
            return MISMATCH, "premises are not the two directions"
        return below

    if rule == "iff_e":
        if len(prems) != 1:
            return MISMATCH, "biconditional elimination takes one premise"
        src = prems[0]
        if not isinstance(src, Iff):
            return MISMATCH, "premise is not a biconditional"
        if not (alpha_equal(conc, Implies(src.left, src.right))
                or alpha_equal(conc, Implies(src.right, src.left))):
            return MISMATCH, "conclusion is neither direction"
        return below

    if rule in _QUANTIFIER_RULES:
        return _check_quantifier(theory, s, cited, forms)

    if rule == "comprehension":
        return _match_comprehension(s.formula, theory)

    if rule == "identity":
        return _match_identity(s.formula)

    if rule == "axiom":
        return _check_axiom(theory, s.scheme, conc)

    return MISMATCH, f"unknown rule {rule!r}"


# The quantifier rules come in mirrored pairs.  forall_e and exists_i check
# an instance, at a witness of the lower type alpha, of a quantifier over
# beta.  forall_i and exists_e check one at an eigenvariable of the higher
# type beta, of a quantifier over alpha, and then that the eigenvariable is
# not free where it must not be.  Per rule: the quantifier, and the messages
# when the step lacks its premises or its term, when the quantified formula
# is not one at the right type, and when the instance differs.
_QUANTIFIER_RULES = {
    "forall_e": (Forall, "universal elimination needs one premise and a witness",
                 "premise is not a universal",
                 "conclusion is not the premise instantiated"),
    "exists_i": (Exists, "existential introduction needs one premise and a witness",
                 "conclusion is not an existential",
                 "premise is not the conclusion's matrix at the witness"),
    "forall_i": (Forall, "universal introduction needs one premise and an "
                         "eigenvariable",
                 "conclusion is not a universal",
                 "premise is not the conclusion's matrix at the eigenvariable"),
    "exists_e": (Exists, "existential elimination: two premises, one discharge, "
                         "an eigenvariable",
                 "first premise is not an existential",
                 "discharged assumption is not the witnessing instance"),
}


def _check_quantifier(theory: rg.Regime, s: ProofStep, cited: _Cited,
                      forms: Dict[int, Formula]) -> Result:
    if len(s.rule_types) != 2:
        return MISMATCH, f"{s.rule} needs two type arguments"
    beta, alpha = s.rule_types
    if not _types_ok(theory, beta, alpha):
        return ("type-side-condition",
                f"{s.rule}({beta},{alpha}) violates the regime's "
                f"instantiation discipline")
    conc, prems, rests, dis = cited
    kind, lacking, not_quantified, not_instance = _QUANTIFIER_RULES[s.rule]
    eigen = s.rule in ("forall_i", "exists_e")
    cases = s.rule == "exists_e"        # a second premise: the case derivation
    term = s.eigen if eigen else s.witness
    if len(prems) != 1 + cases or cases and len(dis) != 1 or term is None:
        return MISMATCH, lacking
    # the quantified formula and its instance at the term
    if s.rule in ("exists_i", "forall_i"):
        q, inst = conc, prems[0]
    else:
        q, inst = prems[0], dis[0] if cases else conc
    q_type, t_type = (alpha, beta) if eigen else (beta, alpha)
    if not isinstance(q, kind) or q.var.index != q_type:
        return MISMATCH, f"{not_quantified} at type {q_type}"
    if term_index(term) != t_type:
        role = "eigenvariable" if eigen else "witness"
        return MISMATCH, f"{role} is not of type {t_type}"
    if not alpha_equal(inst, substitute(q.body, q.var, term)):
        return MISMATCH, not_instance
    if not eigen:
        return rests[0]
    if cases and not alpha_equal(prems[1], conc):
        return MISMATCH, "conclusion differs from the case derivation"
    opened = rests[1] - set(s.discharge) if cases else rests[0]
    forbidden = f"eigenvariable {term.name} occurs where forbidden"
    if occurs_free(term, conc) or occurs_free(term, q):
        return "eigenvariable-conclusion", forbidden
    if any(occurs_free(term, forms[k]) for k in opened):
        return "eigenvariable-assumption", forbidden
    return rests[0] | opened


def _check_axiom(theory: rg.Regime, scheme: Optional[dict], conc: Formula) -> Result:
    if not scheme or "name" not in scheme:
        return SCHEME, "axiom step needs a scheme record"
    name = scheme["name"]
    if name not in AXIOMS:
        return SCHEME, f"unknown axiom {name!r}"
    if name not in axioms_of(theory):
        return "axiom-unavailable", f"{name} is not an axiom of {theory}"
    try:
        want = axiom_instance(name, {k: v for k, v in scheme.items() if k != "name"})
    except ProofError as e:
        return SCHEME, str(e)
    if not alpha_equal(conc, expand_abbreviations(want)):
        return SCHEME, f"formula is not the declared {name} instance"
    return frozenset()


def _clause(g: Formula, z: Term) -> Optional[Tuple[Var, Formula]]:
    """(x, phi) when g is `all x. z(x) <-> phi`, else None."""
    if (isinstance(g, Forall) and isinstance(g.body, Iff)
            and g.body.left == Apply(z, g.var)):
        return g.var, g.body.right
    return None


def _witness_free(z: Var, phi: Formula, where: str = "the matrix") -> Result:
    if occurs_free(z, phi):
        return "comprehension-witness", f"witness {z.name} occurs in {where}"
    return frozenset()


def _match_comprehension(f: Formula, theory: rg.Regime) -> Result:
    kind = theory.kind
    # plain: some z. all x. z(x) <-> phi, with z one type above x
    plain = isinstance(f, Exists) and _clause(f.body, f.var)
    if plain and f.var.index != (plain[0].index and plain[0].index.succ()):
        plain = None
    # stt-down takes plain instances at type 0 and augmented ones above
    if kind in rg.PLAIN_COMPREHENSION_KINDS or kind == rg.STT_DOWN and plain:
        if not plain:
            return SCHEME, "not a comprehension instance"
        if kind == rg.STT_DOWN and plain[0].index != TypeIndex(0, 0):
            return SCHEME, "plain comprehension only forms type-1 properties here"
        return _witness_free(f.var, plain[1])

    if kind == rg.STT_DOWN:
        if not (isinstance(f, Forall) and isinstance(f.body, Exists)
                and isinstance(f.body.body, And)
                and isinstance(f.body.body.left, DownRel)
                and isinstance(f.body.body.right, Forall)):
            return SCHEME, "not an augmented comprehension instance"
        z, dn = f.body.var, f.body.body.left
        if dn.left != z or dn.right != f.var:
            return SCHEME, "projection guard does not bind the witness"
        got = _clause(f.body.body.right, z)
        if not got:
            return SCHEME, "not an augmented comprehension instance"
        return _witness_free(z, got[1])

    # fjt: the finitary scheme
    if not isinstance(f, Exists):
        return SCHEME, "not a finitary comprehension instance"
    z = f.var
    n = z.index.finite_value if z.index.is_finite else None
    if not n:
        return SCHEME, "witness must have a positive finite type"
    conjuncts = []
    body = f.body
    while isinstance(body, And):
        conjuncts.append(body.left)
        body = body.right
    conjuncts.append(body)
    if len(conjuncts) != n:
        return SCHEME, f"need {n} conjuncts, found {len(conjuncts)}"
    for i, c in zip(range(n - 1, -1, -1), conjuncts):
        got = _clause(c, z)
        if not got or got[0].index != TypeIndex(0, i):
            return SCHEME, f"conjunct for type {i} is off"
        err = _witness_free(z, got[1], "a matrix")
        if err:
            return err
    return frozenset()


def _match_identity(f: Formula) -> Result:
    if not (isinstance(f, Iff) and isinstance(f.left, StrictEq)
            and isinstance(f.right, Forall)):
        return SCHEME, "not an identity-scheme instance"
    s, t = f.left.left, f.left.right
    z, body = f.right.var, f.right.body
    if not (isinstance(body, Iff) and isinstance(body.left, Apply)
            and isinstance(body.right, Apply)):
        return SCHEME, "not an identity-scheme instance"
    if body.left.head != z or body.right.head != z:
        return SCHEME, "indiscernibility quantifier must head both sides"
    if body.left.arg != s or body.right.arg != t:
        return SCHEME, "indiscernibility must apply to the identity's terms"
    n = term_index(s)
    if n is None or term_index(t) != n or z.index != n.succ():
        return SCHEME, "type arithmetic is off"
    return frozenset()
