"""Reference proof checker, kept as an oracle for `hotk.proofkit.check_proof`.

This is the checker as it stood before each rule came to return the
assumptions its step rests on: every rule branch writes the assumption
table itself, expands the formulas it reads on demand, and tests free
occurrence of an eigenvariable or a comprehension witness inline.
`hotk.proofkit.check_proof` must agree with it on every proof object: the
same verdict (accepted, step, tag, message), or the same error class and
message.
"""

from typing import Dict, FrozenSet

from hotk.errors import ProofError
from hotk.kernel import regimes as rg
from hotk.kernel.axioms import AXIOMS
from hotk.kernel.expand import expand_abbreviations
from hotk.kernel.formation import check_formation
from hotk.kernel.indices import TypeIndex
from hotk.kernel.syntax import (And, Apply, DownRel, Exists, Forall,
                                Formula, Iff, Implies, Not, Or, StrictEq,
                                Var, alpha_normalize, free_atoms,
                                substitute, term_index)
from hotk.proofkit import axiom_instance
from hotk.proofkit.checker import ProofObject, ProofStep, ProofVerdict

AXIOM_AVAILABILITY = {name: by for name, (_, _, by) in AXIOMS.items()}

QUANT_RULES = {"forall_i", "forall_e", "exists_i", "exists_e"}

def _types_ok(theory: rg.Regime, beta: TypeIndex, alpha: TypeIndex) -> bool:
    if not (theory.admits_index(alpha) and theory.admits_index(beta)):
        return False
    if theory.is_ctt:
        return alpha <= beta
    return alpha == beta


def check_proof(p: ProofObject) -> ProofVerdict:
    theory = p.theory
    exp_cache: Dict[int, Formula] = {}

    def exp(f: Formula) -> Formula:
        got = exp_cache.get(id(f))
        if got is None:
            got = expand_abbreviations(f, None)
            exp_cache[id(f)] = got
        return got

    def same(f: Formula, g: Formula) -> bool:
        return alpha_normalize(f) == alpha_normalize(g)

    hyp_norms = [alpha_normalize(exp(h)) for h in p.hypotheses]
    by_n: Dict[int, ProofStep] = {}
    asm: Dict[int, FrozenSet[int]] = {}
    hyp_steps: set = set()

    def reject(s, tag, msg):
        return ProofVerdict(False, s.n, tag, msg)

    for s in p.steps:
        if s.n in by_n:
            raise ProofError(f"duplicate step number {s.n}")
        verdict = check_formation(s.formula, theory)
        if not verdict:
            return reject(s, "formation", f"{verdict.reason} in {verdict.offender}")
        for k in s.premises:
            if k not in by_n or k >= s.n:
                return reject(s, "premise-range",
                              f"premise {k} is not an earlier step")
        for k in s.discharge:
            if k not in by_n or k >= s.n:
                return reject(s, "premise-range",
                              f"discharged step {k} is not an earlier step")
            if by_n[k].rule != "assume":
                return reject(s, "discharge-range",
                              f"step {k} is not an assumption")

        got = _check_step(p, s, by_n, asm, exp, same, hyp_norms, reject)
        if got is not None:
            return got
        by_n[s.n] = s
        if s.rule == "hyp":
            hyp_steps.add(s.n)

    if not p.steps:
        return ProofVerdict(False, None, "malformed", "empty proof")
    last = p.steps[-1]
    open_asms = asm[last.n] - frozenset(hyp_steps)
    if open_asms:
        return ProofVerdict(False, last.n, "undischarged",
                            f"assumptions {sorted(open_asms)} never discharged")
    if p.goal is not None and not same(exp(last.formula), exp(p.goal)):
        return ProofVerdict(False, last.n, "goal-mismatch",
                            "final formula is not the declared goal")
    return ProofVerdict(True)


def _check_step(p, s, by_n, asm, exp, same, hyp_norms, reject):
    theory = p.theory
    prems = [by_n[k] for k in s.premises]

    def fail_shape(msg):
        return reject(s, "rule-mismatch", msg)

    def base_asm():
        out = frozenset()
        for k in s.premises:
            out |= asm[k]
        return out

    rule = s.rule
    conc = exp(s.formula)

    if rule == "assume":
        asm[s.n] = frozenset([s.n])
        return None
    if rule == "hyp":
        if alpha_normalize(conc) not in hyp_norms:
            return reject(s, "hypothesis-unknown",
                          "formula is not a declared hypothesis")
        asm[s.n] = frozenset([s.n])
        return None

    if rule == "reiterate":
        if len(prems) != 1 or not same(conc, exp(prems[0].formula)):
            return fail_shape("reiteration must repeat its premise")
        asm[s.n] = base_asm()
        return None

    if rule == "and_i":
        if len(prems) != 2:
            return fail_shape("conjunction introduction takes two premises")
        want = And(exp(prems[0].formula), exp(prems[1].formula))
        if not same(conc, want):
            return fail_shape("conclusion is not the premises' conjunction")
        asm[s.n] = base_asm()
        return None

    if rule == "and_e":
        if len(prems) != 1:
            return fail_shape("conjunction elimination takes one premise")
        src = exp(prems[0].formula)
        if not isinstance(src, And):
            return fail_shape("premise is not a conjunction")
        if not (same(conc, src.left) or same(conc, src.right)):
            return fail_shape("conclusion is neither conjunct")
        asm[s.n] = base_asm()
        return None

    if rule == "or_i":
        if len(prems) != 1 or not isinstance(conc, Or):
            return fail_shape("disjunction introduction: one premise, Or conclusion")
        src = exp(prems[0].formula)
        if not (same(src, conc.left) or same(src, conc.right)):
            return fail_shape("premise is neither disjunct")
        asm[s.n] = base_asm()
        return None

    if rule == "or_e":
        if len(prems) != 3 or len(s.discharge) != 2:
            return fail_shape("disjunction elimination: three premises, two discharges")
        d, c1, c2 = prems
        ia, ib = s.discharge
        src = exp(d.formula)
        if not isinstance(src, Or):
            return fail_shape("first premise is not a disjunction")
        if not (same(exp(by_n[ia].formula), src.left)
                and same(exp(by_n[ib].formula), src.right)):
            return fail_shape("discharged assumptions are not the disjuncts")
        if not (same(exp(c1.formula), conc) and same(exp(c2.formula), conc)):
            return fail_shape("case conclusions differ from the conclusion")
        asm[s.n] = asm[d.n] | (asm[c1.n] - {ia}) | (asm[c2.n] - {ib})
        return None

    if rule == "implies_i":
        if len(prems) != 1 or len(s.discharge) != 1:
            return fail_shape("conditional introduction: one premise, one discharge")
        i = s.discharge[0]
        want = Implies(exp(by_n[i].formula), exp(prems[0].formula))
        if not same(conc, want):
            return fail_shape("conclusion is not assumption -> premise")
        asm[s.n] = asm[prems[0].n] - {i}
        return None

    if rule == "implies_e":
        if len(prems) != 2:
            return fail_shape("modus ponens takes two premises")
        imp, ant = exp(prems[0].formula), exp(prems[1].formula)
        if not isinstance(imp, Implies) or not same(imp.left, ant) \
                or not same(imp.right, conc):
            return fail_shape("premises do not fit modus ponens")
        asm[s.n] = base_asm()
        return None

    if rule == "not_i":
        if len(prems) != 2 or len(s.discharge) != 1:
            return fail_shape("negation introduction: two premises, one discharge")
        a, b = exp(prems[0].formula), exp(prems[1].formula)
        if not (isinstance(b, Not) and same(b.body, a)):
            return fail_shape("premises are not a contradiction pair")
        i = s.discharge[0]
        if not same(conc, Not(exp(by_n[i].formula))):
            return fail_shape("conclusion is not the negated assumption")
        asm[s.n] = (asm[prems[0].n] | asm[prems[1].n]) - {i}
        return None

    if rule == "not_e":
        if len(prems) != 2:
            return fail_shape("explosion takes a formula and its negation")
        a, b = exp(prems[0].formula), exp(prems[1].formula)
        if not (isinstance(b, Not) and same(b.body, a)):
            return fail_shape("premises are not a contradiction pair")
        asm[s.n] = base_asm()
        return None

    if rule == "dneg_e":
        if len(prems) != 1:
            return fail_shape("double-negation elimination takes one premise")
        src = exp(prems[0].formula)
        if not (isinstance(src, Not) and isinstance(src.body, Not)
                and same(src.body.body, conc)):
            return fail_shape("premise is not the conclusion doubly negated")
        asm[s.n] = base_asm()
        return None

    if rule == "iff_i":
        if len(prems) != 2 or not isinstance(conc, Iff):
            return fail_shape("biconditional introduction: two conditionals")
        fwd, bwd = exp(prems[0].formula), exp(prems[1].formula)
        want_f = Implies(conc.left, conc.right)
        want_b = Implies(conc.right, conc.left)
        if not (same(fwd, want_f) and same(bwd, want_b)):
            return fail_shape("premises are not the two directions")
        asm[s.n] = base_asm()
        return None

    if rule == "iff_e":
        if len(prems) != 1:
            return fail_shape("biconditional elimination takes one premise")
        src = exp(prems[0].formula)
        if not isinstance(src, Iff):
            return fail_shape("premise is not a biconditional")
        if not (same(conc, Implies(src.left, src.right))
                or same(conc, Implies(src.right, src.left))):
            return fail_shape("conclusion is neither direction")
        asm[s.n] = base_asm()
        return None

    if rule in QUANT_RULES:
        return _check_quantifier(p, s, by_n, asm, exp, same, reject)

    if rule == "comprehension":
        err = _match_comprehension(s.formula, theory)
        if err:
            tag, msg = err
            return reject(s, tag, msg)
        asm[s.n] = frozenset()
        return None

    if rule == "identity":
        err = _match_identity(s.formula)
        if err:
            return reject(s, "scheme-shape", err)
        asm[s.n] = frozenset()
        return None

    if rule == "axiom":
        if not s.scheme or "name" not in s.scheme:
            return reject(s, "scheme-shape", "axiom step needs a scheme record")
        name = s.scheme["name"]
        avail = AXIOM_AVAILABILITY.get(name)
        if avail is None:
            return reject(s, "scheme-shape", f"unknown axiom {name!r}")
        if theory.kind not in avail:
            return reject(s, "axiom-unavailable",
                          f"{name} is not an axiom of {theory}")
        try:
            want = axiom_instance(name, {k: v for k, v in s.scheme.items()
                                         if k != "name"})
        except ProofError as e:
            return reject(s, "scheme-shape", str(e))
        if not same(conc, exp(want)):
            return reject(s, "scheme-shape",
                          f"formula is not the declared {name} instance")
        asm[s.n] = frozenset()
        return None

    return reject(s, "rule-mismatch", f"unknown rule {rule!r}")


def _check_quantifier(p, s, by_n, asm, exp, same, reject):
    theory = p.theory
    prems = [by_n[k] for k in s.premises]
    conc = exp(s.formula)
    if len(s.rule_types) != 2:
        return reject(s, "rule-mismatch", f"{s.rule} needs two type arguments")
    beta, alpha = s.rule_types
    if not _types_ok(theory, beta, alpha):
        return reject(s, "type-side-condition",
                      f"{s.rule}({beta},{alpha}) violates the regime's "
                      f"instantiation discipline")

    def eigen_checks(eigen, avoid_formulas, open_idx):
        name_idx = (eigen.name, term_index(eigen))
        for f in avoid_formulas:
            if any((a.name, a.index) == name_idx for a in free_atoms(f)):
                return "eigenvariable-conclusion"
        for k in open_idx:
            g = exp(by_n[k].formula)
            if any((a.name, a.index) == name_idx for a in free_atoms(g)):
                return "eigenvariable-assumption"
        return None

    if s.rule == "forall_e":
        if len(prems) != 1 or s.witness is None:
            return reject(s, "rule-mismatch",
                          "universal elimination needs one premise and a witness")
        src = exp(prems[0].formula)
        if not isinstance(src, Forall) or src.var.index != beta:
            return reject(s, "rule-mismatch",
                          f"premise is not a universal at type {beta}")
        if term_index(s.witness) != alpha:
            return reject(s, "rule-mismatch",
                          f"witness is not of type {alpha}")
        want = substitute(src.body, src.var, s.witness)
        if not same(conc, want):
            return reject(s, "rule-mismatch",
                          "conclusion is not the premise instantiated")
        asm[s.n] = asm[prems[0].n]
        return None

    if s.rule == "forall_i":
        if len(prems) != 1 or s.eigen is None:
            return reject(s, "rule-mismatch",
                          "universal introduction needs one premise and an eigenvariable")
        if not isinstance(conc, Forall) or conc.var.index != alpha:
            return reject(s, "rule-mismatch",
                          f"conclusion is not a universal at type {alpha}")
        if term_index(s.eigen) != beta:
            return reject(s, "rule-mismatch", f"eigenvariable is not of type {beta}")
        want = substitute(conc.body, conc.var, s.eigen)
        if not same(exp(prems[0].formula), want):
            return reject(s, "rule-mismatch",
                          "premise is not the conclusion's matrix at the eigenvariable")
        tag = eigen_checks(s.eigen, [conc], asm[prems[0].n])
        if tag:
            return reject(s, tag,
                          f"eigenvariable {s.eigen.name} occurs where forbidden")
        asm[s.n] = asm[prems[0].n]
        return None

    if s.rule == "exists_i":
        if len(prems) != 1 or s.witness is None:
            return reject(s, "rule-mismatch",
                          "existential introduction needs one premise and a witness")
        if not isinstance(conc, Exists) or conc.var.index != beta:
            return reject(s, "rule-mismatch",
                          f"conclusion is not an existential at type {beta}")
        if term_index(s.witness) != alpha:
            return reject(s, "rule-mismatch", f"witness is not of type {alpha}")
        want = substitute(conc.body, conc.var, s.witness)
        if not same(exp(prems[0].formula), want):
            return reject(s, "rule-mismatch",
                          "premise is not the conclusion's matrix at the witness")
        asm[s.n] = asm[prems[0].n]
        return None

    if s.rule == "exists_e":
        if len(prems) != 2 or len(s.discharge) != 1 or s.eigen is None:
            return reject(s, "rule-mismatch",
                          "existential elimination: two premises, one discharge, "
                          "an eigenvariable")
        e, c = prems
        j = s.discharge[0]
        src = exp(e.formula)
        if not isinstance(src, Exists) or src.var.index != alpha:
            return reject(s, "rule-mismatch",
                          f"first premise is not an existential at type {alpha}")
        if term_index(s.eigen) != beta:
            return reject(s, "rule-mismatch", f"eigenvariable is not of type {beta}")
        want = substitute(src.body, src.var, s.eigen)
        if not same(exp(by_n[j].formula), want):
            return reject(s, "rule-mismatch",
                          "discharged assumption is not the witnessing instance")
        if not same(exp(c.formula), conc):
            return reject(s, "rule-mismatch",
                          "conclusion differs from the case derivation")
        tag = eigen_checks(s.eigen, [conc, src], asm[c.n] - {j})
        if tag:
            return reject(s, tag,
                          f"eigenvariable {s.eigen.name} occurs where forbidden")
        asm[s.n] = asm[e.n] | (asm[c.n] - {j})
        return None

    return reject(s, "rule-mismatch", f"unknown quantifier rule {s.rule!r}")


def _match_comprehension(f: Formula, theory: rg.Regime):
    kind = theory.kind

    def plain(g):
        if not (isinstance(g, Exists) and isinstance(g.body, Forall)):
            return None
        z, inner = g.var, g.body
        x, matrix = inner.var, inner.body
        if not (isinstance(matrix, Iff) and isinstance(matrix.left, Apply)):
            return None
        app = matrix.left
        if app.head != z or app.arg != x:
            return None
        if z.index != (x.index.succ() if x.index is not None else None):
            return None
        return z, x, matrix.right

    if kind in (rg.STT, rg.STT_UP, rg.CTT_STRINGENT, rg.PCTT, rg.CTT_LIBERAL):
        got = plain(f)
        if not got:
            return ("scheme-shape", "not a comprehension instance")
        z, x, phi = got
        if _occurs(phi, z):
            return ("comprehension-witness", f"witness {z.name} occurs in the matrix")
        return None

    if kind == rg.STT_DOWN:
        got = plain(f)
        if got:
            z, x, phi = got
            if x.index != TypeIndex(0, 0):
                return ("scheme-shape",
                        "plain comprehension only forms type-1 properties here")
            if _occurs(phi, z):
                return ("comprehension-witness",
                        f"witness {z.name} occurs in the matrix")
            return None
        if not (isinstance(f, Forall) and isinstance(f.body, Exists)
                and isinstance(f.body.body, And)
                and isinstance(f.body.body.left, DownRel)
                and isinstance(f.body.body.right, Forall)):
            return ("scheme-shape", "not an augmented comprehension instance")
        y, ex = f.var, f.body
        z = ex.var
        dn, inner = ex.body.left, ex.body.right
        if dn.left != z or dn.right != y:
            return ("scheme-shape", "projection guard does not bind the witness")
        x, matrix = inner.var, inner.body
        if not (isinstance(matrix, Iff) and isinstance(matrix.left, Apply)
                and matrix.left.head == z and matrix.left.arg == x):
            return ("scheme-shape", "not an augmented comprehension instance")
        if z.index != x.index.succ() or y.index != x.index:
            return ("scheme-shape", "type arithmetic is off")
        if _occurs(matrix.right, z):
            return ("comprehension-witness", f"witness {z.name} occurs in the matrix")
        return None

    if kind == rg.FJT:
        if not isinstance(f, Exists):
            return ("scheme-shape", "not a finitary comprehension instance")
        z = f.var
        n = z.index.finite_value if z.index.is_finite else None
        if not n:
            return ("scheme-shape", "witness must have a positive finite type")
        conjuncts = []
        body = f.body
        while isinstance(body, And):
            conjuncts.append(body.left)
            body = body.right
        conjuncts.append(body)
        if len(conjuncts) != n:
            return ("scheme-shape", f"need {n} conjuncts, found {len(conjuncts)}")
        for expected_i, c in zip(range(n - 1, -1, -1), conjuncts):
            if not (isinstance(c, Forall) and isinstance(c.body, Iff)
                    and isinstance(c.body.left, Apply)
                    and c.body.left.head == z and c.body.left.arg == c.var
                    and c.var.index == TypeIndex(0, expected_i)):
                return ("scheme-shape", f"conjunct for type {expected_i} is off")
            if _occurs(c.body.right, z):
                return ("comprehension-witness",
                        f"witness {z.name} occurs in a matrix")
        return None

    return ("scheme-shape", f"no comprehension scheme for {theory}")


def _occurs(phi: Formula, v: Var) -> bool:
    return any(a.name == v.name and a.index == v.index for a in free_atoms(phi))


def _match_identity(f: Formula):
    if not (isinstance(f, Iff) and isinstance(f.left, StrictEq)
            and isinstance(f.right, Forall)):
        return "not an identity-scheme instance"
    s, t = f.left.left, f.left.right
    z, body = f.right.var, f.right.body
    if not (isinstance(body, Iff) and isinstance(body.left, Apply)
            and isinstance(body.right, Apply)):
        return "not an identity-scheme instance"
    if body.left.head != z or body.right.head != z:
        return "indiscernibility quantifier must head both sides"
    if body.left.arg != s or body.right.arg != t:
        return "indiscernibility must apply to the identity's terms"
    n = term_index(s)
    if n is None or term_index(t) != n or z.index != n.succ():
        return "type arithmetic is off"
    return None
