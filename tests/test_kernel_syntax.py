import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hotk.kernel import (Apply, Const, Exists, Forall, Iff, Var, alpha_equal,
                         alpha_normalize, fin, free_atoms, parse_formula,
                         print_formula, substitute)
from hotk.kernel.syntax import (And, DownRel, Implies, InSet, Not, Or, Raised,
                                StrictEq, Sugar, free_names, occurs_free)


def test_substitute_leaves_bound_variables_alone():
    f = parse_formula("all x^1. x^1(a^0)")
    out = substitute(f, Var("x", fin(1)), Const("c", fin(1)))
    assert out == f


def test_substitute_replaces_free_occurrences():
    f = parse_formula("x^1(a^0)")
    out = substitute(f, Const("x", fin(1)), Const("c", fin(1)))
    # substitution targets variables; a free constant is left in place
    assert out == f
    g = Apply(Var("x", fin(1)), Const("a", fin(0)))
    out = substitute(g, Var("x", fin(1)), Const("c", fin(1)))
    assert print_formula(out) == "c^1(a^0)"


def test_substitute_avoids_capture():
    # all c^1. x^1(a^0) with x free; substituting c^1 for x must rename the binder
    body = Apply(Var("x", fin(1)), Const("a", fin(0)))
    f = Forall(Var("c", fin(1)), body)
    out = substitute(f, Var("x", fin(1)), Const("c", fin(1)))
    assert isinstance(out, Forall)
    assert out.var.name != "c"
    assert free_names(out) == frozenset({"c", "a"})


def test_alpha_normalize_identifies_alpha_variants():
    f = parse_formula("all x^1. x^1(a^0)")
    g = parse_formula("all y^1. y^1(a^0)")
    assert f != g
    assert alpha_normalize(f) == alpha_normalize(g)
    assert alpha_equal(f, g)


def test_alpha_normalize_keeps_free_atoms():
    f = parse_formula("x^2(a^0) <-> x^2(b^1)")
    assert alpha_normalize(f) == f
    names = {(a.name, a.index) for a in free_atoms(f)}
    assert names == {("x", fin(2)), ("a", fin(0)), ("b", fin(1))}


def test_alpha_normalize_avoids_free_name_clash():
    # the canonical name v1 is taken by a free constant
    f = parse_formula("all x^1. x^1(v1^0)")
    out = alpha_normalize(f)
    assert out.var.name != "v1"
    assert alpha_equal(f, out)


def test_free_atoms_respects_binding_by_name_and_index():
    f = parse_formula("all x^1. x^1(a^0) & x^0(b^0)")
    # x^0 is not bound by the x^1 binder
    free = {(a.name, str(a.index)) for a in free_atoms(f)}
    assert ("x", "0") in free
    assert ("x", "1") not in free


def test_occurs_free_matches_by_name_and_index():
    f = parse_formula("all x^1. x^1(a^0) & z^2(up(b^0))")
    # a free identifier parses as a Const; a Var of its name and type matches
    assert occurs_free(Var("a", fin(0)), f) and occurs_free(Const("a", fin(0)), f)
    assert occurs_free(Const("b", fin(0)), f)      # under up(...)
    assert not occurs_free(Var("x", fin(1)), f)    # bound
    assert not occurs_free(Const("a", fin(1)), f)  # another type


@st.composite
def small_formula(draw):
    depth = draw(st.integers(0, 3))

    def go(depth, scope):
        if depth == 0 or draw(st.booleans()):
            n = draw(st.integers(0, 2))
            pool = [v for v in scope if v.index == fin(n + 1)]
            head = (draw(st.sampled_from(pool)) if pool and draw(st.booleans())
                    else Const(draw(st.sampled_from("abc")), fin(n + 1)))
            return Apply(head, Const(draw(st.sampled_from("xyz")), fin(n)))
        n = draw(st.integers(0, 2))
        v = Var(f"q{len(scope)}", fin(n + 1))
        body = go(depth - 1, scope + [v])
        return (Forall if draw(st.booleans()) else Exists)(v, body)

    return go(depth, [])


@settings(max_examples=150, deadline=None)
@given(small_formula())
def test_alpha_normalize_idempotent(f):
    once = alpha_normalize(f)
    assert alpha_normalize(once) == once


@settings(max_examples=150, deadline=None)
@given(small_formula())
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


def test_spec_parse_shapes():
    from hotk.kernel.syntax import Apply, Const, Forall, Sugar, Var
    from hotk.kernel import TypeIndex
    f = parse_formula("b^2(a^0)")
    assert f == Apply(Const("b", fin(2)), Const("a", fin(0)))
    g = parse_formula("x^0 eq y^1")
    assert g == Sugar("eq", (Const("x", fin(0)), Const("y", fin(1))))
    h = parse_formula("all x^(w+1). x^(w+1)(a^3)")
    w1 = TypeIndex(1, 1)
    assert h == Forall(Var("x", w1), Apply(Var("x", w1), Const("a", fin(3))))


def test_round_trip_exotic_strings():
    cases = [
        "a^3 coext_2 b^3",
        "a^2 downeq b^2",
        "some v^2 eq t^1. v^2(a^0) & v^2(b^0)",
        "all v^1 in t^1. v^1 in s^1",
        "Rank(a^2, s^2)",
        "Hist(h^1) -> Lev(h^1)",
        "x^(w*2+3) = y^(w*2+3)",
        "up(up(a^0)) = b^2",
        "~(p^1(a^0) | q^1(a^0)) <-> ~p^1(a^0) & ~q^1(a^0)",
        "e^4 dn d^3 & d^3 dn c^2",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f, text


def test_round_trip_set_language():
    cases = [
        "all a. some s. (a sub s & Lev(s))",
        "some a. (some x. x in a & all x in a. some y. (x in y & y in a))",
        "all x. (Hist(x) -> Rank(x, x) | x = x)",
    ]
    for text in cases:
        f = parse_formula(text, mode="set")
        assert parse_formula(print_formula(f), mode="set") == f, text


def _nested_shapes(n):
    """Formulas nested n levels deep, one shape per kind of nesting."""
    chain = "up(" * n + "b^0" + ")" * n
    return {
        "not": "~" * n + "a^0 = a^0",
        "parentheses": "(" * n + "a^0 = a^0" + ")" * n,
        "and": " & ".join(["a^1(b^0)"] * (n + 1)),
        "iff": " <-> ".join(["a^1(b^0)"] * (n + 1)),
        "quantifiers": "".join(f"all x{i}^0. " for i in range(n)) + "x0^0 = x0^0",
        "bounded": "".join(f"all x{i}^0 in y^1. " for i in range(n)) + "x0^0 = x0^0",
        "quantified parentheses": "".join(f"(some x{i}^1. " for i in range(n // 2))
                                  + "x0^1(b^0)" + ")" * (n // 2),
        "raised": f"{chain} = {chain}",
        "index": "a^" + "(" * n + "w" + ")" * n + " = a^(w)",
    }


def test_formula_at_the_nesting_cap_goes_through_every_walk():
    from hotk.errors import HotkError
    from hotk.kernel import (check_formation, expand_abbreviations,
                             parse_regime)
    from hotk.kernel.parser import MAX_DEPTH
    from hotk.models import build_pure_model, build_sttu_companion, eval_formula
    from hotk import translate

    model = build_sttu_companion(build_pure_model(2))
    for name, text in _nested_shapes(MAX_DEPTH).items():
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f, name
        for r in ("stt", "stt-up", "stt-down", "fjt", "ctt:w", "ctt-liberal:w"):
            check_formation(f, parse_regime(r))
        alpha_normalize(expand_abbreviations(f))
        substitute(f, Var("x0", fin(0)), Const("c", fin(0)))
        for tmap in (translate.ctt_to_sttu, translate.sttu_to_ctt,
                     translate.fjt_to_sttd, translate.sttd_to_fjt):
            try:
                alpha_normalize(tmap(f))
            except HotkError:       # not a formula of the map's source theory
                pass
        try:
            eval_formula(model, f)
        except HotkError:           # unassigned constants, missing types
            pass


def test_formula_past_the_nesting_cap_is_a_parse_error():
    from hotk.errors import ParseError
    from hotk.kernel.parser import MAX_DEPTH
    for name, text in _nested_shapes(MAX_DEPTH + 1).items():
        if name == "quantified parentheses":
            continue            # two levels per step: MAX_DEPTH + 1 is odd
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(text)


# -- the node contract: frozen dataclasses, compared and hashed by fields ----

FIELDS = {Var: ("name", "index"), Const: ("name", "index"), Raised: ("inner",),
          Apply: ("head", "arg"),
          **dict.fromkeys((StrictEq, DownRel, InSet, And, Or, Implies, Iff),
                          ("left", "right")),
          Not: ("body",), Forall: ("var", "body"), Exists: ("var", "body"),
          Sugar: ("kind", "args")}


def _node_samples():
    x, c = Var("x", fin(1)), Const("c", fin(0))
    a = Apply(x, c)
    return [x, c, Raised(c), a, StrictEq(c, c), DownRel(x, c), InSet(x, c),
            Not(a), And(a, a), Or(a, a), Implies(a, a), Iff(a, a),
            Forall(x, a), Exists(x, a), Sugar("eq", (x, x))]


NODES = _node_samples()


def test_every_node_kind_has_a_sample():
    assert len(FIELDS) == len(NODES) == 15
    assert {type(n) for n in NODES} == set(FIELDS)


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_a_node_is_frozen_and_has_no_instance_dict(node):
    for name in FIELDS[type(node)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_a_node_is_a_dataclass_of_its_fields(node):
    names = FIELDS[type(node)]
    values = tuple(getattr(node, name) for name in names)
    assert tuple(f.name for f in dataclasses.fields(node)) == names
    assert hash(node) == hash(values)
    assert repr(node) == "{}({})".format(type(node).__name__, ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)))
    same = dataclasses.replace(node)
    assert type(same) is type(node) and same == node
    first = names[0]
    other = dataclasses.replace(node, **{first: Const("d", fin(2))})
    assert type(other) is type(node) and other != node
    assert getattr(other, first) == Const("d", fin(2))


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_a_node_survives_pickle_and_copy(node):
    for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node),
                 copy.copy(node)):
        assert type(twin) is type(node) and twin == node


def test_a_node_repr_is_the_dataclass_repr():
    x, c = Var("x", fin(1)), Const("c", fin(0))
    assert repr(And(x, c)) == ("And(left=Var(name='x', index=TypeIndex(1)), "
                               "right=Const(name='c', index=TypeIndex(0)))")
    assert repr(Sugar("level", (c,))) == (
        "Sugar(kind='level', args=(Const(name='c', index=TypeIndex(0)),))")


def test_kinds_of_one_layout_are_unequal():
    x = Var("x", fin(1))
    a = Apply(x, Const("c", fin(0)))
    for kinds, args in [((Var, Const), ("x", fin(1))),
                        ((StrictEq, DownRel, InSet, And, Or, Implies, Iff), (a, a)),
                        ((Forall, Exists), (x, a))]:
        nodes = [kind(*args) for kind in kinds]
        assert all(m != n for m in nodes for n in nodes if m is not n)
        assert len(set(nodes)) == len(kinds)
