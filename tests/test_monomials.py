import copy
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from friezeinv import (
    ALPHABET_X,
    ALPHABET_XY,
    EMPTY,
    MonomialX,
    MonomialXY,
    UNIT_X,
    UNIT_XY,
    composition,
    format_monomial,
    normal_form_x,
    normal_form_xy,
    parse_monomial,
)
from friezeinv.errors import ParseError
from friezeinv.monomials import fits_window

exponent_maps = st.dictionaries(st.integers(-6, 6), st.integers(1, 4), max_size=5)


def test_normal_form_x_examples():
    m = normal_form_x({3: 1, 5: 2})
    assert (m.base, m.shape) == (2, composition(1, 0, 2))
    assert normal_form_x({1: 3}) == MonomialX(0, composition(3))
    assert normal_form_x({}) == UNIT_X
    assert UNIT_X.degree == 0 and UNIT_X.support() is None


def test_normal_form_rejects_non_integer_exponents():
    with pytest.raises(TypeError):
        normal_form_x({1: 1.5})


def test_fits_window_examples():
    m = normal_form_xy({-2: 1}, {3: 1})  # support [-2, 3]
    assert fits_window(m, 3) and not fits_window(m, 2)
    assert fits_window(normal_form_x({0: 2}), 0)
    assert fits_window(UNIT_X, 0) and fits_window(UNIT_XY, 0)


def test_normal_form_xy_examples():
    # re-expansion is the oracle: x_0 y_2 y_3 must come back unchanged
    m = normal_form_xy({0: 1}, {2: 1, 3: 1})
    assert m.exponents() == ({0: 1}, {2: 1, 3: 1})
    assert (m.base, m.shape_x, m.shape_y, m.delta) == (-1, composition(1), composition(1, 1), 2)

    pure_y = normal_form_xy({}, {4: 2})
    assert (pure_y.base, pure_y.shape_x, pure_y.shape_y, pure_y.delta) == (3, EMPTY, composition(2), 0)

    aligned = normal_form_xy({1: 1}, {1: 1})
    assert (aligned.base, aligned.shape_x, aligned.shape_y, aligned.delta) == (
        0, composition(1), composition(1), 0)

    assert normal_form_xy({}, {}) == UNIT_XY


@given(exponent_maps)
def test_roundtrip_x(exps):
    m = normal_form_x(exps)
    assert m.exponents() == exps
    assert m.degree == sum(exps.values())


@given(exponent_maps, exponent_maps)
def test_roundtrip_xy(xs, ys):
    m = normal_form_xy(xs, ys)
    got_x, got_y = m.exponents()
    assert (got_x, got_y) == (xs, ys)
    assert m.degree == sum(xs.values()) + sum(ys.values())


@given(exponent_maps)
def test_one_alphabet_monomial_is_the_x_block(exps):
    m = normal_form_x(exps)
    assert (m.shape_x, m.shape_y, m.delta) == (m.shape, EMPTY, 0)
    xy = MonomialXY(m.base, m.shape, EMPTY, 0)
    assert (m.degree, m.is_unit, m.support(), m.span, str(m)) == (
        xy.degree, xy.is_unit, xy.support(), xy.span, str(xy))


def test_sort_key_and_exponents_shapes():
    # the benchmark digests read these, so their shapes are fixed
    m = normal_form_x({3: 1, 5: 2})
    assert m.sort_key() == (2, (1, 0, 2))
    assert m.exponents() == {3: 1, 5: 2} and type(m.exponents()) is dict
    assert UNIT_X.sort_key() == (0, ()) and UNIT_X.exponents() == {}
    xy = normal_form_xy({0: 1}, {2: 1, 3: 1})
    assert xy.sort_key() == (-1, (1,), 2, (1, 1))
    assert xy.exponents() == ({0: 1}, {2: 1, 3: 1}) and type(xy.exponents()) is tuple
    assert UNIT_XY.sort_key() == (0, (), 0, ()) and UNIT_XY.exponents() == ({}, {})


def test_zero_exponents_are_dropped():
    assert normal_form_x({2: 0}) == UNIT_X
    assert normal_form_xy({1: 1, 5: 0}, {3: 0}) == normal_form_xy({1: 1}, {})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        normal_form_x({1: -1})


def test_degenerate_invariants_enforced():
    with pytest.raises(ValueError):
        MonomialXY(0, composition(1), EMPTY, 1)
    with pytest.raises(ValueError):
        MonomialXY(2, EMPTY, EMPTY, 0)
    with pytest.raises(ValueError):
        MonomialX(1, EMPTY)


def test_constructor_guards_survive_python_O():
    code = (
        "from friezeinv import EMPTY, MonomialX, MonomialXY, composition\n"
        "for build in (lambda: MonomialXY(0, composition(1), EMPTY, 1),\n"
        "              lambda: MonomialXY(2, EMPTY, EMPTY, 0), lambda: MonomialX(1, EMPTY)):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted')\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_one_alphabet_and_pure_x_monomials_are_distinct_keys():
    x, xy = normal_form_x({3: 1, 5: 2}), normal_form_xy({3: 1, 5: 2}, {})
    assert x != xy and x.exponents() == xy.exponents()[0]
    assert len({x: 1, xy: 2}) == 2
    assert UNIT_X != UNIT_XY and len({UNIT_X, UNIT_XY}) == 2


def test_monomials_compare_as_the_tuples_of_their_fields():
    # the documented semantics: a monomial is the plain tuple of its fields
    x = normal_form_x({3: 1, 5: 2})
    assert x == (2, (1, 0, 2)) and hash(x) == hash((2, (1, 0, 2)))
    xy = normal_form_xy({0: 1}, {2: 1, 3: 1})
    assert xy == (-1, (1,), (1, 1), 2) and hash(xy) == hash((-1, (1,), (1, 1), 2))
    # orderable like those tuples; the listing order is sort_key, which
    # differs from it on two-alphabet monomials
    a, b = normal_form_xy({1: 1}, {2: 1}), normal_form_xy({1: 1}, {1: 2})
    assert a < b and a.sort_key() > b.sort_key()
    assert sorted([b, a]) == [a, b]
    assert sorted([b, a], key=lambda m: m.sort_key()) == [b, a]


@pytest.mark.parametrize(
    "monomial",
    [normal_form_x({3: 1, 5: 2}), UNIT_X, normal_form_xy({0: 1}, {2: 1, 3: 1}),
     normal_form_xy({}, {4: 2}), UNIT_XY],
    ids=str,
)
def test_copy_deepcopy_and_pickle_round_trips(monomial):
    copies = [copy.copy(monomial), copy.deepcopy(monomial)]
    copies += [pickle.loads(pickle.dumps(monomial, protocol)) for protocol in range(6)]
    for twin in copies:
        assert type(twin) is type(monomial) and twin == monomial
        assert (twin.base, twin.shape_x, twin.shape_y, twin.delta) == (
            monomial.base, monomial.shape_x, monomial.shape_y, monomial.delta)


@pytest.mark.parametrize("protocol", range(6))
def test_pickle_rebuilds_through_the_checked_constructor(protocol):
    # protocols 0 and 1 ignore __getnewargs__, so the reduction is __reduce__
    for fields, cls in (((3, (), (), 5), MonomialXY), ((2, ()), MonomialX)):
        tampered = tuple.__new__(cls, fields)
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(tampered, protocol))
    with pytest.raises(ValueError):
        copy.copy(tuple.__new__(MonomialXY, (0, (1,), (), 2)))


def test_span_and_support():
    m = normal_form_xy({0: 1}, {3: 2})
    assert m.support() == (0, 3)
    assert m.span == 4


def test_format_examples():
    assert format_monomial(normal_form_x({3: 1, 5: 2})) == "x[3] x[5]^2"
    assert format_monomial(normal_form_xy({-1: 2, 0: 1}, {3: 1})) == "x[-1]^2 x[0] y[3]"
    assert format_monomial(UNIT_X) == "1"


@given(exponent_maps)
def test_parse_format_roundtrip_x(exps):
    m = normal_form_x(exps)
    assert parse_monomial(format_monomial(m), ALPHABET_X) == m


@given(exponent_maps, exponent_maps)
def test_parse_format_roundtrip_xy(xs, ys):
    m = normal_form_xy(xs, ys)
    assert parse_monomial(format_monomial(m), ALPHABET_XY) == m


def test_parse_unit_forms():
    assert parse_monomial("", ALPHABET_X) == UNIT_X
    assert parse_monomial("1", ALPHABET_XY) == UNIT_XY


def test_parse_accumulates_repeated_factors():
    assert parse_monomial("x[2] x[2]", ALPHABET_X) == normal_form_x({2: 2})


factor_lists = st.lists(
    st.tuples(st.sampled_from("xy"), st.integers(-6, 6), st.integers(1, 3)), max_size=8
)


@given(factor_lists, st.data())
def test_parse_of_shuffled_repeated_factors_is_the_normal_form(factors, data):
    sums = {"x": {}, "y": {}}
    for letter, index, exponent in factors:
        sums[letter][index] = sums[letter].get(index, 0) + exponent
    for alphabet, expected in (
        (ALPHABET_XY, normal_form_xy(sums["x"], sums["y"])),
        (ALPHABET_X, normal_form_x(sums["x"])),
    ):
        usable = [f for f in factors if alphabet == ALPHABET_XY or f[0] == "x"]
        shuffled = data.draw(st.permutations(usable))
        text = " ".join(f"{c}[{i}]" + (f"^{e}" if e > 1 else "") for c, i, e in shuffled)
        parsed = parse_monomial(text, alphabet)
        assert type(parsed) is type(expected)
        assert parsed == expected and hash(parsed) == hash(expected)


@pytest.mark.parametrize(
    "text", ["x[2]^0", "x[2]^-1", "z[1]", "x[a]", "x(1)", "x[1]y[2]", "x[--1]", "x[²]"]
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_monomial(text, ALPHABET_XY)


def test_parse_rejects_y_in_single_alphabet():
    with pytest.raises(ParseError):
        parse_monomial("y[1]", ALPHABET_X)
    parse_monomial("y[1]", ALPHABET_XY)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_monomial("x[1] q[2]", ALPHABET_XY)
    assert info.value.position == 5
