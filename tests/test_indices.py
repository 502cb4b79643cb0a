import pytest

from hotk.errors import ParseError
from hotk.kernel import OMEGA, TypeIndex, fin, parse_index


def test_lexicographic_order_agrees_with_ordinal_order():
    order = [fin(0), fin(1), fin(7), OMEGA, TypeIndex(1, 1), TypeIndex(1, 9),
             TypeIndex(2, 0), TypeIndex(2, 3)]
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)


def test_an_index_is_its_pair_of_naturals():
    """Equality, hashing and order are the tuple's own, so an index keys a
    table as its pair does and max picks the later ordinal."""
    assert fin(1) == (0, 1) and hash(OMEGA) == hash((1, 0))
    assert max(fin(7), OMEGA) is OMEGA and min(OMEGA, fin(7)) is fin(7)
    assert {("x", fin(2)): 1}[("x", TypeIndex(0, 2))] == 1
    assert repr(TypeIndex(1, 2)) == "TypeIndex(w+2)" and str(fin(3)) == "3"
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            TypeIndex(*bad)


def test_limit_and_successor_structure():
    assert OMEGA.is_limit
    assert not fin(0).is_limit
    assert not TypeIndex(1, 2).is_limit
    assert TypeIndex(2, 0).is_limit
    assert fin(3).succ() == fin(4)
    assert OMEGA.succ() == TypeIndex(1, 1)
    assert TypeIndex(1, 1).pred() == OMEGA
    with pytest.raises(ValueError):
        OMEGA.pred()


@pytest.mark.parametrize("text,expect", [
    ("0", fin(0)),
    ("17", fin(17)),
    ("w", OMEGA),
    ("w+3", TypeIndex(1, 3)),
    ("w*2", TypeIndex(2, 0)),
    ("w*2+5", TypeIndex(2, 5)),
    ("(w+1)", TypeIndex(1, 1)),
])
def test_parse_index(text, expect):
    assert parse_index(text) == expect


def test_parse_index_rejects_larger_notations():
    for bad in ("w*w", "w^2", "e0", "-1", ""):
        with pytest.raises(ParseError):
            parse_index(bad)


def test_index_print_parse_round_trip():
    for q in range(4):
        for r in range(4):
            idx = TypeIndex(q, r)
            assert parse_index(str(idx)) == idx


def test_interned_indices_behave_like_directly_built_ones():
    import operator
    from hotk.kernel.indices import ordinal
    pairs = [(q, r) for q in range(4) for r in range(5)]
    for p in pairs:
        for s in pairs:
            a, b = ordinal(*p), ordinal(*s)
            a_, b_ = TypeIndex(*p), TypeIndex(*s)
            assert a == a_ and hash(a) == hash(a_) and str(a) == str(a_)
            for op in (operator.eq, operator.ne, operator.lt, operator.le,
                       operator.gt, operator.ge):
                assert op(a, b) == op(a_, b_) == op(a, b_) == op(p, s)


def test_the_kernel_hands_out_one_object_per_index():
    from hotk.kernel.indices import ordinal
    for n in range(6):
        assert fin(n) is fin(n)
        assert fin(n).succ() is fin(n + 1)
        assert fin(n).plus(3) is fin(n + 3)
    for q in range(4):
        for r in range(5):
            x = ordinal(q, r)
            assert x.succ().pred() is x
            assert parse_index(str(x)) is x
    assert OMEGA is ordinal(1, 0) and OMEGA.succ() is ordinal(1, 1)
