"""What an evaluation pays before its first assignment.

`Model.domain` reads a finite type up to the height with one comparison,
the compiler decides whether to cache a quantifier's loop from the sizes of
its slot sets where they settle it, a type index hashes and compares as a
tuple, and `decide_fjt` builds no regime.  Each fast path is checked here
against the test it replaces: the same value, or the same error class and
message.
"""

from collections import Counter
from operator import attrgetter

from genutil import FormulaGen

from hotk.corpus import graph_fixture, separation_corpus, transitive_fixture_names
from hotk.errors import DEFAULT_BUDGET, EvalError
from hotk.kernel import parse_formula, parse_regime
from hotk.kernel.indices import OMEGA, TypeIndex, fin, ordinal
from hotk.kernel.regimes import Regime
from hotk.kernel.syntax import free_atoms
from hotk.models import (build_class_model, build_fjt_canonical,
                         build_graph_model, build_pure_model,
                         build_sttd_companion, build_sttu_companion, decide_fjt)
from hotk.models.core import _Compiler
from hotk.settheory import build_V

# The median decide of the eval-sweep workload.
MEDIAN_DECIDE = "some s0^0. all s1^1. all s2^2. ~s1^1(s0^0)"


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return (type(e).__name__, str(e))


def domain_by_steps(m, index):
    """Model.domain as it read every index: untyped, transfinite, then
    whether the model reaches the type."""
    if index is None:
        raise EvalError("untyped quantifier in a typed model")
    if not index.is_finite:
        raise EvalError(f"type bound exceeded: no transfinite domain {index}")
    n = index.finite_value
    if not m.reaches(n):
        raise EvalError(f"type bound exceeded: model has no type {n}")
    return m.domains[min(n, m.max_type)]


def _models():
    pure3 = build_pure_model(3)
    fjt3 = build_fjt_canonical(3)
    out = [build_pure_model(h) for h in (1, 2, 4)] + [pure3, fjt3]
    out += [build_fjt_canonical(h) for h in range(3)]
    out += [build_class_model(2, 3), build_sttu_companion(pure3),
            build_sttd_companion(fjt3)]
    for g in [build_V(3)] + [graph_fixture(n) for n in transitive_fixture_names()]:
        out.append(build_graph_model(g))
        out.append(build_graph_model(g, height=build_graph_model(g).max_type + 2))
    return out


def test_the_domain_fast_path_agrees_with_the_steps():
    open_above = 0
    for m in _models():
        h = m.max_type
        indices = [None, OMEGA, OMEGA.succ(), ordinal(2, 1), TypeIndex(0, 1),
                   *(fin(n) for n in range(h + 3))]
        for index in indices:
            got = outcome(m.domain, index)
            assert got == outcome(domain_by_steps, m, index), (m.kind, h, index)
        if m.open_above:
            open_above += 1
            assert m.domain(fin(h + 1)) == m.domains[h]
    assert open_above >= 4


def _typed_cases():
    """(model, formula) pairs: generated formulas with free atoms under
    each source regime on a model of its kind."""
    plans = [("ctt", build_pure_model(3), 2),
             ("stt-up", build_sttu_companion(build_pure_model(3)), 2),
             ("fjt", build_fjt_canonical(2), 2),
             ("stt-down", build_sttd_companion(build_fjt_canonical(3)), 3)]
    for name, m, height in plans:
        for seed in range(4):
            gen = FormulaGen(parse_regime(name), seed=seed, max_type=height,
                             max_depth=4, max_free=3)
            for _ in range(15):
                yield m, gen.formula()
                yield m, gen.sentence()


def test_the_cache_decision_agrees_with_the_set_test(monkeypatch):
    """Every quantifier's decision, over compiles with none, some or all of
    the free atoms assigned, in typed models and in graphs."""
    branches = Counter()
    decide = _Compiler.cacheable

    def checked(self, slots, scope):
        within = {*scope.values(), *self.free.values()}
        assert slots <= within
        got = decide(self, slots, scope)
        assert got == (slots < within)
        n = len(slots)
        branches["fewer" if n < len(scope) else
                 "all" if n >= len(scope) + len(self.free) else "set"] += 1
        return got

    monkeypatch.setattr(_Compiler, "cacheable", checked)
    cases = [(m, f, attrgetter("name", "index")) for m, f in _typed_cases()]
    graphs = [build_V(2), build_V(3)]
    cases += [(g, f, lambda a: (a.name, None))
              for g in graphs for f in separation_corpus()]
    for m, f, key in cases:
        atoms = sorted(free_atoms(f), key=lambda a: (str(a.index), a.name))
        for k in range(len(atoms) + 1):
            _Compiler(m, DEFAULT_BUDGET).compile(f, [key(a) for a in atoms[:k]])
    assert set(branches) == {"fewer", "all", "set"}


def test_deciding_hashes_no_index_and_builds_no_regime(monkeypatch):
    """The median decide reads each index's two naturals: no TypeIndex is
    asked is_finite or finite_value, and no Regime is built.  An index
    hashes, compares and orders as a tuple does, with no Python-level
    call."""
    for name in ("__hash__", "__eq__", "__lt__"):
        assert getattr(TypeIndex, name) is getattr(tuple, name)
    calls = Counter()

    def counted(name, fn):
        def count(*args):
            calls[name] += 1
            return fn(*args)
        return count

    f = parse_formula(MEDIAN_DECIDE)
    fjt2 = build_fjt_canonical(2)
    for name in ("is_finite", "finite_value"):
        getter = getattr(TypeIndex, name).fget
        monkeypatch.setattr(TypeIndex, name, property(counted(name, getter)))
    monkeypatch.setattr(Regime, "__post_init__",
                        counted("Regime", Regime.__post_init__))
    assert decide_fjt(f, 2, model=fjt2) is False
    assert decide_fjt(f, 2) is False
    assert calls == Counter()
    # the counters count
    fin(0).is_finite, fin(0).finite_value, Regime("fjt")
    assert calls == Counter(is_finite=2, finite_value=1, Regime=1)
