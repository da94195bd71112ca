import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from friezeinv import EMPTY, Composition, composition, compositions_of, parse_composition
from friezeinv.compositions import _unchecked
from friezeinv.errors import ParseError


def test_basic_construction():
    c = composition(2, 0, 1)
    assert c.order == 3
    assert c.num_parts == 3
    assert not c.is_empty


def test_parts_past_the_digit_limit_are_written_but_not_read():
    text = "(1" + "0" * 5000 + ",0,1)"
    assert str(Composition((10**5000, 0, 1))) == text
    with pytest.raises(ParseError, match="an integer of 5001 digits is too long to read"):
        parse_composition(text)


def test_empty_composition():
    assert EMPTY.order == 0
    assert EMPTY.num_parts == 0
    assert EMPTY.is_empty
    assert EMPTY.reverse() == EMPTY


@pytest.mark.parametrize("parts", [(0, 1), (1, 0), (-1,), (1, -2, 1), (0,)])
def test_invalid_parts_rejected(parts):
    with pytest.raises(ValueError):
        Composition(parts)


@pytest.mark.parametrize("protocol", range(6))
def test_copy_and_pickle_rebuild_through_the_checked_constructor(protocol):
    c = composition(2, 0, 1)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c, protocol))):
        assert twin == c and type(twin.parts) is tuple
    tampered = _unchecked((0, -1))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(tampered, protocol))
    with pytest.raises(ValueError):
        copy.copy(tampered)


def test_non_integer_parts_rejected():
    with pytest.raises(TypeError):
        composition(1.5, 2)


def test_reverse_examples():
    assert composition(2, 0, 1).reverse() == composition(1, 0, 2)
    assert composition(1, 2, 1).reverse() == composition(1, 2, 1)
    assert composition(1, 2, 1).is_palindrome
    assert not composition(2, 1).is_palindrome


# valid compositions: either empty or positive ends with non-negative interior
comps = st.one_of(
    st.just(EMPTY),
    st.builds(
        lambda first, middle, last: Composition(tuple([first] + middle + [last])),
        st.integers(1, 4),
        st.lists(st.integers(0, 4), max_size=4),
        st.integers(1, 4),
    ),
    st.integers(1, 6).map(lambda n: Composition((n,))),
)


@given(comps)
def test_reverse_is_involution(c):
    assert c.reverse().reverse() == c
    assert c.reverse().order == c.order
    assert c.reverse().num_parts == c.num_parts


def _exact_count(order: int, num_parts: int) -> int:
    # independent oracle: compositions with positive ends and free interior
    if num_parts == 1:
        return 1 if order >= 1 else 0
    return math.comb(order + num_parts - 3, num_parts - 1)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("num_parts", [1, 2, 3, 4])
def test_counts_match_stars_and_bars(order, num_parts):
    exact = [c for c in compositions_of(order, num_parts) if c.num_parts == num_parts]
    assert len(exact) == len(set(exact)) == _exact_count(order, num_parts)


def test_order_one_forces_single_part():
    assert list(compositions_of(1, 5)) == [composition(1)]
    assert list(compositions_of(1, 5000)) == [composition(1)]


def test_many_parts_need_no_recursion():
    # thousands of parts: the enumeration must not recurse once per part
    listed = list(compositions_of(2, 2000))
    assert len(listed) == 2000
    assert listed[-1] == Composition((1, *[0] * 1998, 1))


def test_order_and_max_parts_must_be_integers():
    for order, max_parts in [(2.5, 1), (2, 1.0)]:
        with pytest.raises(TypeError):
            list(compositions_of(order, max_parts))
    (only,) = compositions_of(True, 2)
    assert only.parts == (1,) and type(only.parts[0]) is int


def test_order_zero_is_only_empty():
    assert list(compositions_of(0, 3)) == [EMPTY]


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("max_parts", [1, 2, 3, 4])
def test_enumerated_compositions_equal_checked_ones(order, max_parts):
    # the enumeration builds its compositions unchecked; each must be the one
    # the checked constructor makes of the same parts, in the documented order
    brute = [
        parts
        for num in range(1, max_parts + 1)
        for parts in itertools.product(range(order + 1), repeat=num)
        if sum(parts) == order and parts[0] and parts[-1]
    ]
    expected = [Composition(parts) for parts in brute] if order else [EMPTY]
    got = list(compositions_of(order, max_parts))
    assert got == expected
    assert [type(c.parts) for c in got] == [tuple] * len(got)


def test_enumeration_is_deterministic():
    listed = [c.parts for c in compositions_of(3, 2)]
    assert listed == [(3,), (1, 2), (2, 1)]


def test_text_roundtrip():
    for c in compositions_of(4, 3):
        assert parse_composition(str(c)) == c
    assert parse_composition("()") == EMPTY
    assert str(composition(2, 0, 1)) == "(2,0,1)"


@pytest.mark.parametrize(
    "text", ["", "2,1", "(2,x)", "(0,1)", "(1,)", "(1,--2)", "(²)", "(1,-²)", "(+1)"]
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_composition(text)


def test_parse_error_is_at_the_composition_offset():
    with pytest.raises(ParseError) as info:
        parse_composition("(1,--2)", 7)
    assert info.value.position == 7


@given(st.text(alphabet="-+_ 0129²٣", max_size=4))
def test_entries_parse_as_the_old_digit_rule_did(entry):
    # the former rule: strip the minus signs, test isdigit(), then int();
    # what it read must read the same, and its int() failures are ParseErrors
    chunk = entry.strip()
    try:
        expected = Composition((1, int(chunk))) if chunk.lstrip("-").isdigit() else None
    except ValueError:
        expected = None
    if expected is None:
        with pytest.raises(ParseError):
            parse_composition(f"(1,{entry})")
    else:
        assert parse_composition(f"(1,{entry})") == expected
