"""Per-theory axiom suites over finite models.

Comprehension schemes are checked by extensional completeness: a witness
entity for every candidate extension (or tuple of extensions).  That
dominates every instance of the scheme, so a PASS is sound for all of them;
the report calls this FULL-COMPREHENSION.  Oversized domains make a check
SKIPPED rather than wrong.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Tuple

from hotk.errors import EvalError
from hotk.graphs import powerset
from hotk.kernel import regimes as rg
from hotk.models.builders import DEFAULT_BUDGET
from hotk.models.core import Entity, Model
from hotk.report import FAIL, PASS, SKIPPED, SuiteReport


class PairTables:
    """Memoized defined-identity and defined-membership relations."""

    def __init__(self, m: Model):
        self.m = m
        self._eq: Dict[Tuple[int, int, Entity, Entity], bool] = {}
        self._in: Dict[Tuple[int, int, Entity, Entity], bool] = {}

    def dom(self, n: int):
        from hotk.kernel.indices import fin
        return self.m.domain(fin(n))

    def can_reach(self, n: int) -> bool:
        return n <= self.m.max_type or (self.m.cumulative and self.m.open_above)

    def eq(self, alpha: int, a: Entity, beta: int, b: Entity) -> bool:
        key = (alpha, beta, a, b)
        got = self._eq.get(key)
        if got is None:
            gamma = max(alpha, beta) + 1
            got = all(self.m.applies(z, a) == self.m.applies(z, b)
                      for z in self.dom(gamma))
            self._eq[key] = got
        return got

    def isin(self, alpha: int, a: Entity, beta: int, b: Entity) -> bool:
        key = (alpha, beta, a, b)
        got = self._in.get(key)
        if got is None:
            gamma = max(alpha, beta) + 1
            got = any(self.eq(gamma, x, beta, b) and self.m.applies(x, a)
                      for x in self.dom(gamma))
            self._in[key] = got
        return got


def _full_comprehension(m: Model, level: int, budget: int):
    """Every subset of the type-`level` domain is the extension of some
    type-(level+1) entity; returns (status, witness)."""
    dom = m.domains[level]
    if 2 ** len(dom) > budget:
        return SKIPPED, f"2^{len(dom)} subsets at type {level}"
    exts = {m.extension(z, level) for z in m.domains[level + 1]}
    for sub in powerset(dom):
        if frozenset(sub) not in exts:
            return FAIL, f"type {level}: extension {{{','.join(sub)}}} unrealized"
    return PASS, None


def check_axiom_suite(m: Model, theory: rg.Regime, max_type: int,
                      budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """Per-axiom verdicts for the theory's axioms, instantiated at types up
    to max_type; instances whose defining formulas outrun the model's
    reachable types are skipped."""
    if max_type > m.max_type:
        raise EvalError(f"max_type {max_type} above model height {m.max_type}")
    t = PairTables(m)
    report = SuiteReport(subject=f"{theory} on {m.kind} model")
    kind = theory.kind

    if kind in (rg.STT, rg.STT_UP, rg.CTT_STRINGENT, rg.CTT_LIBERAL):
        worst = (PASS, None)
        for level in range(max_type):
            status, wit = _full_comprehension(m, level, budget)
            if status == FAIL:
                worst = (FAIL, wit)
                break
            if status == SKIPPED and worst[0] == PASS:
                worst = (SKIPPED, wit)
        report.add("comprehension", worst[0], witness=worst[1],
                   note="FULL-COMPREHENSION")

    if kind in (rg.CTT_STRINGENT, rg.CTT_LIBERAL):
        _check_type_raising(m, t, max_type, report)
        _check_type_founded(m, t, max_type, report)
        _check_type_base(m, t, max_type, report)
        if theory.overlay == "pctt":
            _check_type_ext(m, t, max_type, report)
            report.add("type-purity", PASS if len(m.domains[0]) == 1 else FAIL,
                       witness=None if len(m.domains[0]) == 1
                       else f"{len(m.domains[0])} type-0 entities")

    if kind == rg.STT_UP:
        _check_up_axioms(m, max_type, report)

    if kind == rg.STT_DOWN:
        _check_sttd_comprehension(m, max_type, budget, report)
        _check_down_axioms(m, max_type, report)

    if kind == rg.FJT:
        _check_fjt_comprehension(m, max_type, budget, report)
        _check_fjt_ext(m, max_type, report)
        report.add("type-purity", PASS if len(m.domains[0]) == 1 else FAIL)

    return report


def _check_type_raising(m, t, max_type, report):
    for alpha in range(max_type + 1):
        for beta in range(alpha, max_type + 1):
            if not t.can_reach(beta + 1):
                continue
            for a in m.domains[alpha]:
                if not any(t.eq(alpha, a, beta, b) for b in m.domains[beta]):
                    report.add("type-raising", FAIL,
                               witness=f"{a} at type {alpha} has no type-{beta} copy")
                    return
    report.add("type-raising", PASS)


def _check_type_founded(m, t, max_type, report):
    for alpha in range(max_type + 1):
        for beta1 in range(1, max_type + 1):
            if not t.can_reach(max(alpha, beta1) + 2):
                continue
            beta = beta1 - 1
            for a in m.domains[alpha]:
                for b in m.domains[beta1]:
                    if not t.isin(alpha, a, beta1, b):
                        continue
                    if not any(t.eq(alpha, a, beta, x) for x in m.domains[beta]):
                        report.add(
                            "type-founded", FAIL,
                            witness=f"{a}^{alpha} in {b}^{beta1} with no type-{beta} copy")
                        return
    report.add("type-founded", PASS)


def _check_type_base(m, t, max_type, report):
    for alpha in range(max_type + 1):
        if not t.can_reach(alpha + 2):
            continue
        for x in m.domains[0]:
            for y in m.domains[alpha]:
                if t.isin(alpha, y, 0, x):
                    report.add("type-base", FAIL,
                               witness=f"{y}^{alpha} in {x}^0")
                    return
    report.add("type-base", PASS)


def _check_type_ext(m, t, max_type, report):
    for alpha in range(max_type):
        for beta in range(alpha, max_type):
            if not t.can_reach(beta + 2):
                continue
            for a in m.domains[alpha + 1]:
                for b in m.domains[beta + 1]:
                    low = all(not m.applies(a, x) or m.applies(b, x)
                              for x in m.domains[alpha])
                    high = all(not m.applies(b, x)
                               or any(t.eq(alpha, y, beta, x) and m.applies(a, y)
                                      for y in m.domains[alpha])
                               for x in m.domains[beta])
                    if low and high and not t.eq(alpha + 1, a, beta + 1, b):
                        report.add("type-ext", FAIL,
                                   witness=f"{a}^{alpha + 1} vs {b}^{beta + 1}")
                        return
    report.add("type-ext", PASS)


def _check_up_axioms(m, max_type, report):
    up = m.up_map or {}
    for n in range(max_type):
        for x in m.domains[n]:
            if (n, x) not in up:
                report.add("up-inject", FAIL, witness=f"raising undefined at {x}^{n}")
                return
    ok = True
    for n in range(max_type):
        seen = {}
        for x in m.domains[n]:
            v = up[(n, x)]
            if v in seen:
                report.add("up-inject", FAIL, witness=f"{seen[v]} and {x} raise alike")
                ok = False
                break
            seen[v] = x
        if not ok:
            break
    if ok:
        report.add("up-inject", PASS)

    for n in range(max_type - 1):
        for x in m.domains[n]:
            for y in m.domains[n + 1]:
                if m.applies(up[(n + 1, y)], up[(n, x)]) != m.applies(y, x):
                    report.add("up-possess", FAIL, witness=f"{y}^{n + 1} over {x}^{n}")
                    return
    report.add("up-possess", PASS)

    for n in range(max_type - 1):
        images = {up[(n, z)] for z in m.domains[n]}
        for x in m.domains[n + 1]:
            for y in m.domains[n + 1]:
                if m.applies(up[(n + 1, y)], x) and x not in images:
                    report.add("up-founded", FAIL, witness=f"{x}^{n + 1} not raised")
                    return
    report.add("up-founded", PASS)

    base_ok = all(not m.applies(up[(0, y)], x)
                  for x in m.domains[0] for y in m.domains[0]) if max_type >= 1 \
        else True
    report.add("up-base", PASS if base_ok else FAIL)


def _down_set(m, n1, z):
    return frozenset(a for (k, b, a) in m.down_rel if k == n1 and b == z)


def _check_down_axioms(m, max_type, report):
    rel = m.down_rel or set()
    for n in range(1, max_type):
        for z in m.domains[n + 1]:
            if not _down_set(m, n + 1, z):
                report.add("down-exists", FAIL, witness=f"{z}^{n + 1} projects nowhere")
                return
    report.add("down-exists", PASS)

    def coext(n, x, y):
        return m.extension(x, n - 1) == m.extension(y, n - 1)

    def downeq(n, x, y):
        if n == 1:
            return True
        return _down_set(m, n, x) == _down_set(m, n, y)

    for n in range(1, max_type):
        for z in m.domains[n + 1]:
            ds = sorted(_down_set(m, n + 1, z))
            for x in ds:
                for y in ds:
                    if not (coext(n, x, y) and downeq(n, y, x)):
                        report.add("down-sim", FAIL,
                                   witness=f"{z}^{n + 1} over {x},{y}")
                        return
    report.add("down-sim", PASS)

    for n in range(1, max_type):
        for z in m.domains[n + 1]:
            ds = _down_set(m, n + 1, z)
            for x in ds:
                for y in m.domains[n]:
                    if coext(n, x, y) and downeq(n, y, x) and y not in ds:
                        report.add("down-max", FAIL,
                                   witness=f"{z}^{n + 1} misses {y}^{n}")
                        return
    report.add("down-max", PASS)


def _check_sttd_comprehension(m, max_type, budget, report):
    status, wit = _full_comprehension(m, 0, budget) if max_type >= 1 else (PASS, None)
    if status != PASS:
        report.add("comprehension-type1", status, witness=wit)
    else:
        report.add("comprehension-type1", PASS, note="FULL-COMPREHENSION")
    for n in range(1, max_type):
        dom = m.domains[n]
        if 2 ** len(dom) > budget:
            report.add("comprehension-augmented", SKIPPED,
                       note=f"2^{len(dom)} subsets at type {n}")
            return
        for y in dom:
            exts = {m.extension(z, n)
                    for z in m.domains[n + 1] if (n + 1, z, y) in (m.down_rel or set())}
            for sub in powerset(dom):
                if frozenset(sub) not in exts:
                    report.add("comprehension-augmented", FAIL,
                               witness=f"type {n}, anchor {y}")
                    return
    report.add("comprehension-augmented", PASS, note="FULL-COMPREHENSION")


def _check_fjt_comprehension(m, max_type, budget, report):
    for n in range(1, max_type + 1):
        expected = 1
        for i in range(n):
            expected *= 2 ** len(m.domains[i])
        if expected > budget:
            report.add("comprehension-finitary", SKIPPED,
                       note=f"{expected} extension tuples at type {n}")
            return
        realized = {tuple(m.extension(z, i) for i in range(n))
                    for z in m.domains[n]}
        wanted = product(*[[frozenset(s) for s in powerset(m.domains[i])]
                           for i in range(n)])
        for tup in wanted:
            if tup not in realized:
                report.add("comprehension-finitary", FAIL,
                           witness=f"type {n}: extension tuple unrealized")
                return
    report.add("comprehension-finitary", PASS, note="FULL-COMPREHENSION")


def _check_fjt_ext(m, max_type, report):
    for n in range(1, max_type + 1):
        seen = {}
        for x in m.domains[n]:
            key = tuple(m.extension(x, i) for i in range(n))
            if key in seen:
                report.add("extensionality-surrogate", FAIL,
                           witness=f"{seen[key]} and {x} coextensive at type {n}")
                return
            seen[key] = x
    report.add("extensionality-surrogate", PASS)
