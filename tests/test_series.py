import json
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friezeinv import (
    ALPHABET_X,
    ALPHABET_XY,
    BasisIndex,
    Composition,
    FriezeGroup,
    MonomialX,
    MonomialXY,
    TruncatedSeries,
    UNIT_X,
    UNIT_XY,
    act,
    act_series,
    complete_sym,
    composition,
    compositions_of,
    decomposition_census,
    elementary_sym,
    embed,
    enumerate_indices,
    expand_basis_function,
    expand_in_basis,
    generator,
    generators,
    index_of_monomial,
    is_invariant,
    make_index,
    normal_form_x,
    normal_form_xy,
    orbit_in_window,
    parse_monomial,
    representative_monomial,
    shift,
)
from friezeinv.actions import _family_key, _moves, translation_coset_representatives
from friezeinv.errors import ParseError
from friezeinv.monomials import _bases_in, _fields, _image, _support, fits_window
from friezeinv.series import _family_images, _merge
from conftest import group_monomials

F1, F2, F3, F4, F5, F6, F7 = FriezeGroup


def x_series(window, *indices, degree=1):
    return TruncatedSeries(
        ALPHABET_X, degree, window, {normal_form_x({i: 1}): 1 for i in indices}
    )


def _random_x_series(rng, window=3, degree=2, terms=5):
    coeffs = {}
    for _ in range(terms):
        exps = {}
        for _ in range(degree):
            i = rng.randint(-window, window)
            exps[i] = exps.get(i, 0) + 1
        coeffs[normal_form_x(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSeries(ALPHABET_X, degree, window, coeffs)


def test_construction_validations():
    with pytest.raises(ValueError):
        TruncatedSeries(ALPHABET_X, 2, 3, {normal_form_x({0: 1}): 1})  # degree mismatch
    with pytest.raises(ValueError):
        TruncatedSeries(ALPHABET_X, 1, 1, {normal_form_x({2: 1}): 1})  # outside window
    with pytest.raises(TypeError):
        TruncatedSeries(ALPHABET_X, 1, 1, {normal_form_xy({0: 1}, {}): 1})
    with pytest.raises(TypeError):
        TruncatedSeries(ALPHABET_X, 1, 1, {normal_form_x({0: 1}): 0.5})


def _xs(*texts):
    return [parse_monomial(text, ALPHABET_X) for text in texts]


def test_constructor_names_the_first_faulty_term_given():
    # the family of x[-1] x[0] comes first, but the first faulty term is x[-3]^2
    ok, early, late, square = _xs("x[-1] x[0]", "x[-3]^2", "x[2] x[3]", "x[0]^2")
    with pytest.raises(ValueError, match=r"^monomial x\[-3\]\^2 is not supported in \[-2, 2\]$"):
        TruncatedSeries(ALPHABET_X, 2, 2, [(ok, 1), (early, 1), (late, 1), (square, 1)])
    [wrong_degree] = _xs("x[0]^3")
    with pytest.raises(ValueError, match=r"^monomial x\[2\] x\[3\] is not supported"):
        TruncatedSeries(ALPHABET_X, 2, 2, {ok: 1, late: 1, wrong_degree: 1, early: 1})
    with pytest.raises(ValueError, match=r"^monomial x\[0\]\^3 has degree 3, series has degree 2$"):
        TruncatedSeries(ALPHABET_X, 2, 2, {ok: 1, wrong_degree: 1, late: 1, early: 1})
    # embed: family 1 at base 9 is given before family 0 at base 9
    label = make_index(F6, composition(1), composition(2), -1)
    with pytest.raises(ValueError, match=r"^monomial x\[10\]\^2 y\[11\] is not supported in"):
        embed(label, {(0, 0): 1, (1, 9): 1, (0, 9): 1}, 3)
    with pytest.raises(ValueError, match=r"^monomial x\[10\] y\[9\]\^2 is not supported in"):
        embed(label, {(1, 0): 1, (0, 9): 1, (1, 9): 1}, 3)


def test_constructor_checks_a_term_whose_sum_cancels():
    kept, outside = _xs("x[0] x[1]", "x[2] x[3]")
    terms = [(kept, 1), (outside, "1/2"), (outside, "-1/2")]
    with pytest.raises(ValueError, match=r"^monomial x\[2\] x\[3\] is not supported in \[-2, 2\]$"):
        TruncatedSeries(ALPHABET_X, 2, 2, terms)
    assert TruncatedSeries(ALPHABET_X, 2, 3, terms).terms() == [(kept, 1)]


def test_every_key_and_coefficient_is_read_before_degree_and_window():
    outside, inside = _xs("x[9]", "x[0]")
    with pytest.raises(ValueError, match=r"^bad coefficient '1/0'$"):
        TruncatedSeries(ALPHABET_X, 1, 2, [(outside, 1), (inside, "1/0")])
    with pytest.raises(TypeError, match="^expected MonomialX keys for alphabet X$"):
        TruncatedSeries(ALPHABET_X, 1, 2, [(outside, 1), (normal_form_xy({0: 1}, {}), 1)])


_E2, _F1_LABEL = elementary_sym(2, 3), make_index(F1, composition(1))

# one integer argument of the public API, v, and the JSON of the call's result
_INTEGER_ARGUMENTS = {
    "TruncatedSeries degree": lambda v: TruncatedSeries(ALPHABET_X, v, 2).to_json_dict(),
    "TruncatedSeries window": lambda v: TruncatedSeries(ALPHABET_X, 1, v).to_json_dict(),
    "project": lambda v: _E2.project(v).to_json_dict(),
    "elementary_sym r": lambda v: elementary_sym(v, 2).to_json_dict(),
    "complete_sym window": lambda v: complete_sym(2, v).to_json_dict(),
    "orbit_in_window": lambda v: sorted(map(str, orbit_in_window(F1, normal_form_x({0: 1}), v))),
    "expand_basis_function": lambda v: expand_basis_function(_F1_LABEL, v).to_json_dict(),
    "is_invariant margin": lambda v: is_invariant(F1, _E2, v),
    "expand_in_basis margin": lambda v: {
        str(index): str(coeff) for index, coeff in expand_in_basis(F1, _E2, v).items()
    },
    "make_index delta": lambda v: str(make_index(F6, composition(1), composition(2), v)),
    "enumerate_indices degree": lambda v: list(map(str, enumerate_indices(F1, v, 2))),
    "enumerate_indices max_parts": lambda v: list(map(str, enumerate_indices(F1, 2, v))),
    "enumerate_indices max_abs_delta": lambda v: list(map(str, enumerate_indices(F6, 2, 2, v))),
    "decomposition_census degree": lambda v: decomposition_census(F1, v, 2).to_json_dict(),
    "decomposition_census max_parts": lambda v: decomposition_census(F1, 2, v).to_json_dict(),
    "decomposition_census max_abs_delta": lambda v: (
        decomposition_census(F6, 2, 2, v).to_json_dict()
    ),
}


@pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS.keys())
def test_integer_arguments_are_read_by_operator_index(call):
    # a float is refused, and a bool is its integer, so no output says true or 1.5
    with pytest.raises(TypeError):
        call(1.5)
    assert json.dumps(call(True)) == json.dumps(call(1))


_X0 = normal_form_x({0: 1})

# each bounded integer argument: the call, the least value allowed, and the message below it
_BOUNDED_ARGUMENTS = {
    "orbit_in_window window": (
        lambda v: sorted(map(str, orbit_in_window(F1, _X0, v))), 0, "window must be non-negative"
    ),
    "project window": (lambda v: _E2.project(v).to_json_dict(), 0, "window must be non-negative"),
    "TruncatedSeries window": (
        lambda v: TruncatedSeries(ALPHABET_X, 1, v).to_json_dict(), 0, "window must be non-negative"
    ),
    "_symmetric window": (
        lambda v: complete_sym(2, v).to_json_dict(), 0, "window must be non-negative"
    ),
    "TruncatedSeries degree": (
        lambda v: TruncatedSeries(ALPHABET_X, v, 2).to_json_dict(), 0, "degree must be non-negative"
    ),
    "enumerate_indices degree": (
        lambda v: list(map(str, enumerate_indices(F1, v, 2))), 1, "degree must be at least 1"
    ),
    "enumerate_indices max_parts": (
        lambda v: list(map(str, enumerate_indices(F1, 2, v))), 1, "max_parts must be at least 1"
    ),
    "enumerate_indices max_abs_delta": (
        lambda v: list(map(str, enumerate_indices(F6, 2, 2, v))),
        0,
        "max_abs_delta must be non-negative",
    ),
    "compositions_of order": (
        lambda v: list(map(str, compositions_of(v, 2))), 0, "order must be non-negative"
    ),
    "_invariant_interior margin": (
        lambda v: is_invariant(F1, _E2, v), 1, "margin must be at least 1"
    ),
    "_symmetric r": (lambda v: elementary_sym(v, 2).to_json_dict(), 0, "r must be non-negative"),
}


@pytest.mark.parametrize("case", _BOUNDED_ARGUMENTS.values(), ids=_BOUNDED_ARGUMENTS.keys())
def test_bounded_integer_arguments_share_one_reader(case):
    call, least, message = case
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(least - 1)
    with pytest.raises(TypeError):
        call(1.5)
    assert json.dumps(call(True)) == json.dumps(call(1))  # 1 is allowed for every one


def test_each_integer_argument_is_read_in_full_before_the_next():
    # the degree is out of bounds before max_parts is read
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        enumerate_indices(F1, 0, 1.5)
    with pytest.raises(ValueError, match="^degree must be non-negative$"):
        TruncatedSeries(ALPHABET_X, -1, 1.5)


def test_sub_and_rmul_follow_add_and_scale():
    a = TruncatedSeries(ALPHABET_X, 1, 2, {_X0: 2, normal_form_x({1: 1}): Fraction(1, 3)})
    b = TruncatedSeries(ALPHABET_X, 1, 2, {_X0: 5, normal_form_x({-2: 1}): -1})
    assert a - b == a + b.scale(-1)
    assert (a - b).coefficient(_X0) == -3 and (a - a).is_zero()
    for c in (3, Fraction(-2, 7), "5/4"):
        assert c * a == a.scale(c) == a * c
    with pytest.raises(TypeError):
        a * 1.5
    with pytest.raises(TypeError):
        1.5 * a


_LABEL_F6 = make_index(F6, composition(1), composition(2), 1)

# a library coefficient string goes through the series files' reader: its messages,
# without the file's "malformed term n: "
_BAD_COEFFICIENT_STRINGS = {
    "1/0": "bad coefficient '1/0'",
    "-3/0": "bad coefficient '-3/0'",
    "1e9": "exponent notation is not allowed, got '1e9'",
    "2E3": "exponent notation is not allowed, got '2E3'",
    "1e2000000": "exponent notation is not allowed, got '1e2000000'",
    "abc": "bad coefficient 'abc'",
}


@pytest.mark.parametrize("coeff", _BAD_COEFFICIENT_STRINGS, ids=repr)
def test_library_coefficient_strings_follow_the_file_rules(coeff):
    message = _BAD_COEFFICIENT_STRINGS[coeff]
    calls = {
        "constructor": lambda: TruncatedSeries(ALPHABET_X, 1, 2, {_X0: coeff}),
        "scale": lambda: _E2.scale(coeff),
        "embed": lambda: embed(_LABEL_F6, {(0, 0): coeff}, 3),
    }
    for call in calls.values():
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message
    payload = x_series(2, 0).to_json_dict()
    payload["terms"][0]["coeff"] = coeff
    with pytest.raises(ValueError) as caught:
        TruncatedSeries.from_json_dict(payload)
    assert str(caught.value) == f"malformed term 0: {message}"


def test_library_coefficient_past_the_digit_limit_names_the_limit():
    limit = sys.get_int_max_str_digits()
    coeff = "1/" + "7" * (limit + 1)
    with pytest.raises(ValueError, match=f"has a number of more than {limit} digits, too long"):
        _E2.scale(coeff)
    assert _E2.scale("1/" + "7" * limit).num_terms == _E2.num_terms  # at the limit it reads


def test_coefficients_past_the_digit_limit_are_written_but_not_read():
    limit = sys.get_int_max_str_digits()
    series = elementary_sym(1, 1).scale(10**5000)
    payload = series.to_json_dict()
    assert [term["coeff"] for term in payload["terms"]] == ["1" + "0" * 5000] * 3
    assert repr(series).startswith("TruncatedSeries(X, degree=1, window=1, 1" + "0" * 5000 + "*")
    # a numerator and a denominator past the limit, each written in full
    tiny = x_series(2, 0).scale(Fraction(7 - 10**5000, 10**5000 + 1))
    assert tiny.to_json_dict()["terms"][0]["coeff"] == "-" + "9" * 4999 + "3/1" + "0" * 4999 + "1"
    with pytest.raises(ValueError, match=f"^malformed term 0: .* more than {limit} digits, too"):
        TruncatedSeries.from_json_dict(payload)


def test_a_series_with_a_monomial_past_the_digit_limit_is_written():
    power = normal_form_x({0: 10**5000})
    series = TruncatedSeries(ALPHABET_X, 10**5000, 0, {power: 2})
    assert series.to_json_dict()["terms"] == [{"monomial": "x[0]^1" + "0" * 5000, "coeff": "2"}]
    assert repr(series) == (
        f"TruncatedSeries(X, degree=1{'0' * 5000}, window=0, 2*x[0]^1{'0' * 5000})"
    )


def test_zero_coefficients_pruned():
    s = TruncatedSeries(ALPHABET_X, 1, 2, [(normal_form_x({0: 1}), 1), (normal_form_x({0: 1}), -1)])
    assert s.is_zero()
    assert s == TruncatedSeries(ALPHABET_X, 1, 2)
    assert TruncatedSeries(ALPHABET_X, 1, 2, {normal_form_x({0: 1}): "0/3"}).is_zero()


def test_add_scale_examples():
    a = x_series(2, 0)
    b = x_series(2, 1)
    assert (a + b).monomials() == {normal_form_x({0: 1}), normal_form_x({1: 1})}
    assert a.scale(0).is_zero()
    assert (a + a.scale(-1)).is_zero()
    assert a.scale(Fraction(3, 2)).coefficient(normal_form_x({0: 1})) == Fraction(3, 2)


def test_add_mismatch_rejected():
    with pytest.raises(ValueError):
        x_series(2, 0) + x_series(3, 0)
    with pytest.raises(ValueError):
        x_series(2, 0) + TruncatedSeries(ALPHABET_X, 2, 2, {normal_form_x({0: 2}): 1})


def test_multiply_examples():
    x0 = x_series(2, 0)
    assert (x0 * x0).monomials() == {normal_form_x({0: 2})}

    x1 = x_series(2, 1)
    left = x0 + x1
    right = x0 + x1.scale(-1)
    product = left * right
    assert product.coefficient(normal_form_x({0: 2})) == 1
    assert product.coefficient(normal_form_x({1: 2})) == -1
    assert product.coefficient(normal_form_x({0: 1, 1: 1})) == 0
    assert product.degree == 2


def test_multiply_alphabet_mismatch():
    xy = TruncatedSeries(ALPHABET_XY, 1, 2, {normal_form_xy({0: 1}, {}): 1})
    with pytest.raises(ValueError):
        x_series(2, 0) * xy


def test_unit_series_is_multiplicative_identity():
    unit = TruncatedSeries(ALPHABET_X, 0, 3, {UNIT_X: 1})
    rng = random.Random(5)
    s = _random_x_series(rng)
    assert unit * s == s


def test_ring_laws_randomized():
    rng = random.Random(99)
    for _ in range(20):
        a, b, c = (_random_x_series(rng, terms=4) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_project_examples():
    s = x_series(3, 2, 3)
    assert s.project(2) == x_series(2, 2)
    assert s.project(3) == s
    assert complete_sym(0, 3).project(2) == complete_sym(0, 2)
    with pytest.raises(ValueError):
        s.project(-1)
    with pytest.raises(ValueError):
        s.project(4)


def test_project_is_functorial():
    rng = random.Random(123)
    for _ in range(20):
        s = _random_x_series(rng, window=4)
        assert s.project(3).project(1) == s.project(1)


def test_act_series_examples():
    s = x_series(1, 0, 1)
    assert act_series(shift(F1, 1), s) == x_series(1, 1)  # x_2 drops out

    sxy = TruncatedSeries(ALPHABET_XY, 2, 2, {normal_form_xy({0: 1}, {1: 1}): 1})
    assert act_series(generator(F6, "h"), sxy) == TruncatedSeries(
        ALPHABET_XY, 2, 2, {normal_form_xy({1: 1}, {0: 1}): 1}
    )

    assert act_series(shift(F1, 0), s) == s

    # v sends x[i] to x[-i]: the values 1, 2 at x[0], x[1] come back at x[-1], x[0] as 2, 1
    x0, x1, x_1 = (normal_form_x({i: 1}) for i in (0, 1, -1))
    pair, image = (TruncatedSeries(ALPHABET_X, 1, 2, {x0: 1, x: 2}) for x in (x1, x_1))
    assert act_series(generator(F3, "v"), pair) == image


def test_act_series_is_linear():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_x_series(rng)
        b = _random_x_series(rng)
        e = shift(F1, rng.randint(-2, 2))
        assert act_series(e, a + b) == act_series(e, a) + act_series(e, b)


def test_is_invariant_examples():
    expansion = expand_basis_function(make_index(F1, composition(2)), 4)
    assert is_invariant(F1, expansion, 1)

    lone = x_series(3, 0)
    assert not is_invariant(F1, lone, 1)

    blend = expansion.scale(Fraction(2, 3)) + expand_basis_function(
        make_index(F1, composition(1, 1)), 4
    ).scale(-5)
    assert is_invariant(F1, blend, 1)


def test_is_invariant_margin_validation():
    s = x_series(3, 0)
    with pytest.raises(ValueError):
        is_invariant(F1, s, 0)
    with pytest.raises(ValueError):
        is_invariant(F6, s, 1)


def test_empty_interior_is_an_error():
    s = complete_sym(2, 2)
    for check in (is_invariant, expand_in_basis):
        with pytest.raises(ValueError, match="interior is empty"):
            check(F1, s, 3)
    # margin == window leaves the interior [0, 0], which holds x_0^2
    assert is_invariant(F1, s, 2)


def test_interior_narrower_than_every_monomial_is_an_error():
    # the interior [0, 0] holds no product of two distinct variables, and no
    # generator image of one, so nothing would be checked
    e2 = elementary_sym(2, 2)
    tampered = e2 + TruncatedSeries(ALPHABET_X, 2, 2, {normal_form_x({1: 1, 2: 1}): 5})
    for series in (e2, tampered):
        for check in (is_invariant, expand_in_basis):
            with pytest.raises(ValueError, match="nothing to check"):
                check(F1, series, 2)
    # the zero series has nothing to get wrong; h_2 has x_0^2 in [0, 0]
    assert is_invariant(F1, TruncatedSeries(ALPHABET_X, 2, 2), 2)
    assert expand_in_basis(F1, TruncatedSeries(ALPHABET_X, 2, 2), 2) == {}
    assert is_invariant(F1, complete_sym(2, 2), 2)
    # a term outside the interior whose shift image lies inside is examined
    assert not is_invariant(F1, x_series(2, -1), 2)


def _two_action_rule(group, series, margin):
    """The reference invariance test: for each generator, every interior x
    reached as a term or as a term's image has coeff(gen^-1 x) == coeff(x)."""
    if not 1 <= margin <= series.window:
        raise ValueError("no interior")
    interior, terms = series.window - margin, series.monomials()
    examined = False
    for gen in generators(group):
        reached = {x for x in terms | {act(gen, m) for m in terms} if fits_window(x, interior)}
        examined = examined or bool(reached)
        inv = gen.inverse()
        if any(series.coefficient(act(inv, x)) != series.coefficient(x) for x in reached):
            return False
    if not series.is_zero() and not examined:
        raise ValueError("nothing to check")
    return True


def _outcome(check, group, series, margin):
    try:
        return check(group, series, margin)
    except ValueError:
        return ValueError


@st.composite
def tampered_orbit_sums(draw):
    """A sum of orbit sums of one group at a window N <= 5, with one
    coefficient bumped or one term deleted, or neither; and a margin 1..N."""
    group = draw(st.sampled_from(list(FriezeGroup)))
    window = draw(st.integers(1, 5))
    degree = draw(st.integers(1, 3))
    labels = [
        label for label in enumerate_indices(group, degree, 2, 1)
        if fits_window(representative_monomial(label), window)
    ]
    series = TruncatedSeries(group.alphabet, degree, window)
    for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)):
        series += expand_basis_function(label, window).scale(draw(st.integers(-2, 2)))
    terms = series.terms()
    change = draw(st.sampled_from(("delete", "bump", "none"))) if terms else "none"
    if change != "none":
        monomial, coeff = terms.pop(draw(st.integers(0, len(terms) - 1)))
        if change == "bump":
            terms.append((monomial, coeff + draw(st.sampled_from((-1, 1)))))
        series = TruncatedSeries(series.alphabet, degree, window, terms)
    return group, series, draw(st.integers(1, window))


@settings(max_examples=600, deadline=None)
@given(tampered_orbit_sums())
def test_is_invariant_agrees_with_the_two_action_rule(case):
    assert _outcome(is_invariant, *case) is _outcome(_two_action_rule, *case)


@settings(max_examples=300, deadline=None)
@given(tampered_orbit_sums())
def test_answers_do_not_depend_on_shared_coefficient_objects(case):
    group, series, margin = case
    fresh = TruncatedSeries(
        series.alphabet, series.degree, series.window,
        [(m, Fraction(c.numerator, c.denominator)) for m, c in series.terms()],
    )
    assert fresh == series
    assert len({id(c) for _, c in fresh.terms()}) == fresh.num_terms
    for check in (is_invariant, expand_in_basis):
        assert _outcome(check, group, fresh, margin) == _outcome(check, group, series, margin)


def test_scale_and_add_share_one_product_per_coefficient_object():
    window = 6
    a = expand_basis_function(make_index(F6, composition(1), composition(2), 1), window)
    b = expand_basis_function(make_index(F6, composition(2), composition(1), 3), window)
    total = a.scale(Fraction(2, 3)).add(b.scale(-5))
    assert {id(c) for _, c in a.terms()} == {id(a.terms()[0][1])}
    assert len({id(c) for _, c in total.terms()}) == 2
    assert sorted({c for _, c in total.terms()}) == [-5, Fraction(2, 3)]


def test_json_rejects_exponent_notation():
    payload = x_series(2, 0).to_json_dict()
    for coeff in ("1e3", "2E-2", "-1.5e1", "1e999999999"):
        payload["terms"][0]["coeff"] = coeff
        with pytest.raises(ValueError, match="exponent notation"):
            TruncatedSeries.from_json_dict(payload)
    # plain rationals and decimals stay exact
    for coeff, value in (("-3/2", Fraction(-3, 2)), ("0.25", Fraction(1, 4))):
        payload["terms"][0]["coeff"] = coeff
        assert TruncatedSeries.from_json_dict(payload).coefficient(normal_form_x({0: 1})) == value


@st.composite
def small_series(draw, alphabet, degree, window):
    """A series with few terms over a small window; repeated monomials and
    zero coefficients exercise the accumulation."""
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        indices = draw(st.lists(st.integers(-window, window), min_size=degree, max_size=degree))
        if alphabet == ALPHABET_X:
            exps = {}
            for i in indices:
                exps[i] = exps.get(i, 0) + 1
            monomial = normal_form_x(exps)
        else:
            letters = draw(st.lists(st.booleans(), min_size=degree, max_size=degree))
            xs, ys = {}, {}
            for i, is_x in zip(indices, letters):
                target = xs if is_x else ys
                target[i] = target.get(i, 0) + 1
            monomial = normal_form_xy(xs, ys)
        terms.append((monomial, Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))))
    return TruncatedSeries(alphabet, degree, window, terms)


@st.composite
def related_series(draw):
    alphabet = draw(st.sampled_from((ALPHABET_X, ALPHABET_XY)))
    window = draw(st.integers(0, 3))
    degree = draw(st.integers(1, 3))
    a = draw(small_series(alphabet, degree, window))
    b = draw(small_series(alphabet, degree, window))
    c = draw(small_series(alphabet, draw(st.integers(0, 2)), window))
    return a, b, c


def _rebuilt(series):
    return TruncatedSeries(series.alphabet, series.degree, series.window, series.terms())


@settings(max_examples=150, deadline=None)
@given(related_series(), st.integers(-2, 2), st.integers(0, 3), st.data())
def test_library_built_series_pass_the_validating_constructor(abc, factor, window, data):
    a, b, c = abc
    group = data.draw(st.sampled_from([g for g in FriezeGroup if g.alphabet == a.alphabet]))
    rep = data.draw(st.sampled_from(translation_coset_representatives(group)))
    element = rep * shift(group, data.draw(st.integers(-3, 3)))
    results = [
        a.add(b),
        a.add(a.scale(-1)),
        a.scale(factor),
        a.multiply(c),
        a.project(min(window, a.window)),
        act_series(element, a),
    ]
    # orbit sums of every group, at windows that hold every representative
    for label_group in FriezeGroup:
        label = data.draw(st.sampled_from(enumerate_indices(label_group, a.degree, 2, 1)))
        results.append(expand_basis_function(label, window + 3))
    for result in results:
        assert _rebuilt(result) == result


def _one_action_rule(group, series, margin):
    """The reference invariance rule, through the public ``act`` and
    ``fits_window``: each generator acts once on each term; the interior images
    keep their term's coefficient and are as many as the interior terms."""
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if margin > series.window:
        raise ValueError("interior is empty")
    if group.alphabet != series.alphabet:
        raise ValueError("does not act on alphabet")
    interior, terms = series.window - margin, series.terms()
    inside = sum(fits_window(monomial, interior) for monomial, _ in terms)
    for gen in generators(group):
        images = [(act(gen, monomial), coeff) for monomial, coeff in terms]
        hits = [(image, coeff) for image, coeff in images if fits_window(image, interior)]
        if any(series.coefficient(image) != coeff for image, coeff in hits):
            return False
        if len(hits) != inside:
            return False
    if terms and not inside:
        raise ValueError("nothing to check")
    return True


def _same_outcome(check, reference, *case):
    """Both return the same value, or both raise ValueError and the message of
    ``check`` holds the reference's phrase."""
    try:
        want = reference(*case)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            check(*case)
        return
    assert check(*case) == want


@st.composite
def any_series_case(draw):
    """An arbitrary series of degree 0..3 over a window 1..4 in the alphabet of
    a drawn group, and a margin 1..window."""
    group = draw(st.sampled_from(list(FriezeGroup)))
    window = draw(st.integers(1, 4))
    series = draw(small_series(group.alphabet, draw(st.integers(0, 3)), window))
    return group, series, draw(st.integers(1, window))


@settings(max_examples=400, deadline=None)
@given(any_series_case())
def test_is_invariant_agrees_with_the_one_action_rule_on_any_series(case):
    _same_outcome(is_invariant, _one_action_rule, *case)


@settings(max_examples=300, deadline=None)
@given(tampered_orbit_sums())
def test_is_invariant_agrees_with_the_one_action_rule_on_orbit_sums(case):
    _same_outcome(is_invariant, _one_action_rule, *case)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=str)
def test_images_move_the_support_by_the_shift_then_reflect(group):
    # the law the invariance kernel reads image supports by: t^z and g^z move
    # [lo, hi] to [lo+z, hi+z], v and r then map it to [-hi, -lo], h keeps it
    elements = {
        rep * shift(group, z)
        for rep in (*generators(group), *translation_coset_representatives(group))
        for z in range(-2, 3)
    }
    unit = UNIT_X if group.alphabet == ALPHABET_X else UNIT_XY
    for element in elements:
        assert act(element, unit).support() is None
        for monomial in group_monomials(group, 3, 3, range(-3, 2)):
            lo, hi = monomial.support()
            lo, hi = lo + element.power, hi + element.power
            if element.reverses_shift:
                lo, hi = -hi, -lo
            assert act(element, monomial).support() == (lo, hi), (element, monomial)


@pytest.mark.parametrize("alphabet", [ALPHABET_X, ALPHABET_XY])
def test_degree_zero_series_are_invariant_at_every_margin(alphabet):
    # the unit has no support and lies in every window, also after a shift,
    # so the widest margin (interior [0, 0]) passes too
    unit = UNIT_X if alphabet == ALPHABET_X else UNIT_XY
    for window in range(1, 5):
        for terms in ({unit: 3}, {unit: Fraction(-2, 7)}, {}):
            series = TruncatedSeries(alphabet, 0, window, terms)
            for group in FriezeGroup:
                if group.alphabet != alphabet:
                    continue
                for margin in range(1, window + 1):
                    assert is_invariant(group, series, margin) is True
                    assert _one_action_rule(group, series, margin) is True


def _sorted_walk_with_recheck(group, series, margin):
    """The reference expansion: a walk over the terms in listing order that
    checks every interior orbit member against the term that found it."""
    if series.degree < 1:
        raise ValueError("degree-0 series have no orbit-sum expansion")
    if not is_invariant(group, series, margin):
        raise ValueError("series is not invariant on the interior window")
    interior = series.window - margin
    out, seen = {}, set()
    for monomial, coeff in series.terms():
        if monomial in seen or not fits_window(monomial, interior):
            continue
        index = index_of_monomial(group, monomial)
        for member in orbit_in_window(group, monomial, interior):
            if series.coefficient(member) != coeff:
                raise ValueError(f"reconstruction mismatch at {member} for {index}")
            seen.add(member)
        if fits_window(representative_monomial(index), interior):
            out[index] = coeff
    return out


@settings(max_examples=300, deadline=None)
@given(tampered_orbit_sums())
def test_expand_in_basis_agrees_with_the_checked_sorted_walk(case):
    _same_outcome(expand_in_basis, _sorted_walk_with_recheck, *case)
    try:
        labels = list(expand_in_basis(*case))
    except ValueError:
        return
    assert labels == sorted(labels, key=BasisIndex.sort_key)


def test_elementary_examples():
    assert elementary_sym(0, 2) == TruncatedSeries(ALPHABET_X, 0, 2, {UNIT_X: 1})
    assert elementary_sym(1, 1) == x_series(1, -1, 0, 1)
    e2 = elementary_sym(2, 1)
    assert e2.monomials() == {
        normal_form_x({-1: 1, 0: 1}),
        normal_form_x({-1: 1, 1: 1}),
        normal_form_x({0: 1, 1: 1}),
    }


def test_complete_examples():
    assert complete_sym(1, 2) == elementary_sym(1, 2)
    h2 = complete_sym(2, 1)
    squares = TruncatedSeries(
        ALPHABET_X, 2, 1, {normal_form_x({i: 2}): 1 for i in (-1, 0, 1)}
    )
    assert h2 == elementary_sym(2, 1) + squares
    assert all(c == 1 for _, c in h2.terms())


@pytest.mark.parametrize("build", [elementary_sym, complete_sym])
def test_symmetric_function_edge_cases(build):
    assert build(0, 3) == TruncatedSeries(ALPHABET_X, 0, 3, {UNIT_X: 1})
    assert build(True, 2) == build(1, 2)  # operator.index reads a bool as 0 or 1
    with pytest.raises(ValueError):
        build(-1, 2)
    with pytest.raises(ValueError):
        build(2, -1)
    with pytest.raises(ValueError):
        build(0, -1)


@pytest.mark.parametrize(
    "build, choose, count",
    [
        (elementary_sym, combinations, lambda r, window: comb(2 * window + 1, r)),
        (complete_sym, combinations_with_replacement, lambda r, window: comb(2 * window + r, r)),
    ],
    ids=["e", "h"],
)
def test_symmetric_functions_agree_with_the_per_index_tuple_definition(build, choose, count):
    # the reference: one monomial per index tuple in the window, each through normal_form_x
    for r in range(6):
        for window in range(8):
            tuples = choose(range(-window, window + 1), r)
            want = TruncatedSeries(
                ALPHABET_X, r, window, dict.fromkeys(map(normal_form_x, map(Counter, tuples)), 1)
            )
            got = build(r, window)
            assert got == want
            assert got.to_json_dict() == want.to_json_dict()
            assert got.num_terms == count(r, window)


def test_symmetric_functions_are_invariant():
    for r in (1, 2, 3):
        assert is_invariant(F1, elementary_sym(r, 4), 1)
        assert is_invariant(F3, complete_sym(r, 4), 1)


def test_expand_in_basis_symmetric_indicators():
    coeffs = expand_in_basis(F1, elementary_sym(2, 4), 1)
    assert all(c == 1 for c in coeffs.values())
    assert all(max(idx.shape_x.parts) <= 1 for idx in coeffs)
    assert make_index(F1, composition(1, 1)) in coeffs
    assert make_index(F1, composition(1, 0, 1)) in coeffs

    h_coeffs = expand_in_basis(F1, complete_sym(2, 4), 1)
    assert all(c == 1 for c in h_coeffs.values())
    assert make_index(F1, composition(2)) in h_coeffs


def test_json_roundtrip():
    rng = random.Random(17)
    s = _random_x_series(rng)
    payload = s.to_json_dict()
    assert TruncatedSeries.from_json_dict(payload) == s
    assert json.dumps(payload) == json.dumps(s.to_json_dict())

    sxy = expand_basis_function(make_index(F6, composition(1), composition(1), 0), 2)
    assert TruncatedSeries.from_json_dict(sxy.to_json_dict()) == sxy


def test_json_terms_naming_one_monomial_add_and_cancel():
    # two spellings of one monomial are one term; zero sums and zeros are dropped
    terms = [
        ("x[1] x[2]", "1/2"), ("x[2] x[1]", 1), ("x[0]^2", "3"), ("x[0] x[0]", -3),
        ("x[-1] x[0]", 0), ("x[2] x[1]", "0"),
    ]
    payload = {"alphabet": "X", "degree": 2, "window": 3,
               "terms": [{"monomial": m, "coeff": c} for m, c in terms]}
    series = TruncatedSeries.from_json_dict(payload)
    assert series.terms() == [(normal_form_x({1: 1, 2: 1}), Fraction(3, 2))]
    payload["terms"] = payload["terms"][2:5]
    assert TruncatedSeries.from_json_dict(payload).is_zero()
    xy = {"alphabet": "XY", "degree": 2, "window": 2, "terms": [
        {"monomial": "y[1] x[0]", "coeff": "2"}, {"monomial": "x[0] y[1]", "coeff": -2},
        {"monomial": "y[0] y[0]", "coeff": 1}, {"monomial": "y[0]^2", "coeff": "1"},
    ]}
    assert TruncatedSeries.from_json_dict(xy).terms() == [(normal_form_xy({}, {0: 2}), 2)]


def test_json_coefficients_are_exact_strings():
    s = x_series(2, 0).scale(Fraction(3, 2))
    payload = s.to_json_dict()
    assert payload["terms"] == [{"monomial": "x[0]", "coeff": "3/2"}]


def _added(pairs):
    """The reference sum: the values of each monomial added up, zero sums dropped."""
    sums = {}
    for monomial, value in pairs:
        sums[monomial] = sums.get(monomial, 0) + value
    return {monomial: value for monomial, value in sums.items() if value}


def _per_term_from_json(data):
    """The loader as a per-term path, with the loader's messages in the loader's
    order: each coefficient and each monomial read on its own by ``parse_monomial``,
    the header checked by the constructor of an empty series, each term's degree
    and support checked on its own, and the terms added up.  Returns the fields
    of the series, as ``_load`` does."""
    if not isinstance(data, dict):
        raise ValueError("malformed series object: expected a JSON object")
    try:
        alphabet = data["alphabet"]
        header = []
        for key in ("degree", "window"):
            value = data[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"malformed series object: {key} must be an integer, got {value!r}"
                )
            header.append(value)
        raw_terms = data["terms"]
    except KeyError as exc:
        raise ValueError(f"malformed series object: missing {exc}") from exc
    if not isinstance(raw_terms, list):
        raise ValueError("malformed series object: terms must be a list")
    terms = []
    for n, entry in enumerate(raw_terms):
        if not isinstance(entry, dict) or not isinstance(entry.get("monomial"), str):
            raise ValueError(f'malformed term {n}: expected a string "monomial"')
        coeff = entry.get("coeff")
        if isinstance(coeff, bool) or not isinstance(coeff, (int, str)):
            raise ValueError(
                f"malformed term {n}: coefficient must be an integer or a string, got {coeff!r}"
            )
        if isinstance(coeff, str) and "e" in coeff.lower():
            raise ValueError(
                f"malformed term {n}: exponent notation is not allowed, got {coeff!r}"
            )
        try:
            value = Fraction(coeff)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed term {n}: bad coefficient {coeff!r}") from exc
        try:
            monomial = parse_monomial(entry["monomial"], alphabet)
        except ParseError as exc:
            raise ParseError(f"malformed term {n}: {exc}") from None
        terms.append((monomial, value))
    empty = TruncatedSeries(alphabet, *header)
    degree, window = empty.degree, empty.window
    for monomial, _ in terms:  # every term read, also one whose sum cancels
        if monomial.degree != degree:
            raise ValueError(
                f"monomial {monomial} has degree {monomial.degree}, series has degree {degree}"
            )
        support = monomial.support()
        if support is not None and not -window <= support[0] <= support[1] <= window:
            raise ValueError(f"monomial {monomial} is not supported in [-{window}, {window}]")
    return alphabet, degree, window, _added(terms)


def _load(data):
    """``from_json_dict`` as the fields of the series it returns."""
    series = TruncatedSeries.from_json_dict(data)
    return series.alphabet, series.degree, series.window, dict(series.terms())


def _load_outcome(load, data):
    try:
        return load(data)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# the window of the documents is 2 unless it is a drawn fault
_VARIABLES = {"X": [f"x[{i}]" for i in range(-2, 3)],
              "XY": [f"x[{i}]" for i in range(-2, 3)] + [f"y[{i}]" for i in range(-2, 3)]}
# each bad token is at fault in every alphabet except y[0] in XY
_BAD_TOKENS = ["x[1", "x[0]^0", "x[2]^-1", "y[0]", "bogus", "1", "x[1]]"]


@st.composite
def _spelling(draw, variables):
    """One spelling of the product of ``variables``: each power as ``v^e``,
    as repeated factors or as ``v^1``, the factors in any order, now and then
    a bad token put in, and any whitespace between and around them."""
    tokens = []
    for variable in sorted(set(variables)):
        exponent = variables.count(variable)
        style = draw(st.sampled_from(["power", "repeat", "one"]))
        if style == "repeat" or (style == "power" and exponent == 1):
            tokens += [variable] * exponent
        elif style == "power":
            tokens.append(f"{variable}^{exponent}")
        else:
            tokens += [f"{variable}^1"] + [variable] * (exponent - 1)
    tokens = draw(st.permutations(tokens))
    if draw(st.sampled_from([False] * 29 + [True])):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_BAD_TOKENS)))
    gaps = st.sampled_from([" ", " ", "  ", "\t", " \n"])
    text = "".join(token + draw(gaps) for token in tokens)
    return draw(st.sampled_from(["", " "])) + text[: -1 if draw(st.booleans()) else None]


@st.composite
def series_documents(draw):
    """Series documents of degree 2 on window 2: terms of repeated, shuffled
    and respelled factors, some cancelled by a respelled twin, with now and
    then a term of the wrong degree or out of the window, a bad token, a y in
    an X file, or a bad alphabet, degree or window."""
    alphabet = draw(st.sampled_from(["X"] * 5 + ["XY"] * 4 + ["Z"]))
    letters = _VARIABLES.get(alphabet, _VARIABLES["X"])
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        variables = draw(st.lists(st.sampled_from(letters), min_size=2, max_size=2))
        fault = draw(st.sampled_from([None] * 27 + ["degree", "window", "y"]))
        if fault == "degree":
            variables.append(draw(st.sampled_from(letters)))
        elif fault == "window":
            variables[0] = draw(st.sampled_from(["x[3]", "x[-3]", "y[3]"]))
        elif fault == "y" and alphabet == "X":
            variables[0] = "y[0]"
        coeff = draw(st.sampled_from([1, -1, 2, "1", "1/2", "-1/2", "3/4"]))
        terms.append({"monomial": draw(_spelling(variables)), "coeff": coeff})
        if draw(st.booleans()):  # a twin that cancels it
            twin = str(-Fraction(coeff)) if isinstance(coeff, str) else -coeff
            terms.append({"monomial": draw(_spelling(variables)), "coeff": twin})
    return {"alphabet": alphabet, "degree": draw(st.sampled_from([2] * 9 + [1, -1])),
            "window": draw(st.sampled_from([2] * 9 + [1, -1])),
            "terms": draw(st.permutations(terms))}


def _document(*monomials, degree=2, window=2, alphabet="X"):
    terms = [{"monomial": monomial, "coeff": 1} for monomial in monomials]
    return {"alphabet": alphabet, "degree": degree, "window": window, "terms": terms}


@settings(max_examples=400, deadline=None)
@given(series_documents())
@example(_document("x[1] x[1"))
@example(_document("x[1] x[2]", "x[2] x[1", "x[1 x[0] x[1"))
@example(_document("x[0] x[1]", "x[0]^0 x[1]", "x[-1]^-1 x[0]^3"))
@example(_document("x[0] x[0]", "x[0] y[0]"))
@example(_document("x[0] x[3]", "x[0]^3", "x[1 x[1]"))
@example(_document("x[0]^3", "x[0] x[3]", degree=-1, window=-1))
@example(_document("x[0]^3", "x[0] x[1]", "x[1", degree=-1))
@example(dict(_document("x[0] x[1]", alphabet="Z"), terms=[{"monomial": "x[0]", "coeff": "1/0"}]))
@example(_document("1", "x[0]", degree=0, window=-1))
@example(_document("x[0] x[0]", alphabet="Z"))
@example(_document(alphabet="Z"))
def test_loader_agrees_with_the_per_term_path(document):
    loaded = _load_outcome(_load, document)
    assert loaded == _load_outcome(_per_term_from_json, document)


@st.composite
def family_documents(draw):
    """Series documents of degree 2 whose terms come in translate families: a
    few shapes, each at several bases on a window of 2 to 6, now and then with
    one base past either end of the window, a whole family of degree 3, a term
    cancelled by a respelled twin (out of the window too) or a bad token, and
    all the terms in any order."""
    alphabet = draw(st.sampled_from(["X", "XY"]))
    window = draw(st.integers(2, 6))
    letters = st.sampled_from("xy" if alphabet == "XY" else "x")
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from([2] * 9 + [3]))
        offset = st.tuples(letters, st.integers(1, 3))
        offsets = draw(st.lists(offset, min_size=size, max_size=size))
        # a member with base b has the variables b + offset, in [-window, window] for b in bases
        least, greatest = -window - min(o for _, o in offsets), window - max(o for _, o in offsets)
        bases = draw(st.lists(st.integers(least, greatest), min_size=1, max_size=5, unique=True))
        past = [[least - 1], [greatest + 1], [least - 1, greatest + 1]]
        bases += draw(st.sampled_from([[]] * 6 + past))
        for base in bases:
            variables = [f"{letter}[{base + offset}]" for letter, offset in offsets]
            coeff = draw(st.sampled_from([1, -2, "1/2", "-3/4"]))
            terms.append({"monomial": draw(_spelling(variables)), "coeff": coeff})
            if draw(st.sampled_from([False] * 3 + [True])):  # a twin that cancels it
                twin = str(-Fraction(coeff)) if isinstance(coeff, str) else -coeff
                terms.append({"monomial": draw(_spelling(variables)), "coeff": twin})
    return {"alphabet": alphabet, "degree": 2, "window": window,
            "terms": draw(st.permutations(terms))}


# the family of x[-1] x[0] comes first in the file, the first faulty term is x[-3]^2's
_FIRST_FAULTY_TERM_NOT_FAMILY = _document("x[-1] x[0]", "x[-3]^2", "x[2] x[3]", "x[0]^2")
_PARSE_ERROR_AFTER_A_DEGREE_FAULT = _document("x[-1] x[0]", "x[0] x[1]^2", "x[1] x[2", "x[-1]^2")
_CANCELLED_OUT_OF_WINDOW = dict(_document(), terms=[
    {"monomial": "x[0] x[1]", "coeff": 1}, {"monomial": "x[2] x[3]", "coeff": "1/2"},
    {"monomial": "x[3] x[2]", "coeff": "-1/2"},
])


@settings(max_examples=400, deadline=None)
@given(family_documents())
@example(_FIRST_FAULTY_TERM_NOT_FAMILY)
@example(_PARSE_ERROR_AFTER_A_DEGREE_FAULT)
@example(_CANCELLED_OUT_OF_WINDOW)
def test_loader_agrees_with_the_per_term_path_on_translate_families(document):
    loaded = _load_outcome(_load, document)
    assert loaded == _load_outcome(_per_term_from_json, document)


@pytest.mark.parametrize("document, message", [
    (_FIRST_FAULTY_TERM_NOT_FAMILY, "monomial x[-3]^2 is not supported in [-2, 2]"),
    (_PARSE_ERROR_AFTER_A_DEGREE_FAULT, "malformed term 2: at position 5: bad monomial factor 'x[2'"),
    (_CANCELLED_OUT_OF_WINDOW, "monomial x[2] x[3] is not supported in [-2, 2]"),
], ids=["first-faulty-term", "parse-error-wins", "cancelled-pair"])
def test_loader_reports_the_first_faulty_term_in_the_file(document, message):
    with pytest.raises(ValueError) as info:
        TruncatedSeries.from_json_dict(document)
    assert str(info.value) == message


def test_loader_keeps_no_factor_between_calls():
    xy = _document("x[0] y[1]", alphabet="XY")
    TruncatedSeries.from_json_dict(xy)
    with pytest.raises(ParseError, match="^malformed term 0: at position 5: y-variables"):
        TruncatedSeries.from_json_dict(dict(xy, alphabet="X"))


def test_series_is_immutable():
    s = x_series(2, 0)
    with pytest.raises(AttributeError):
        s.degree = 5


def test_multiply_commutes_with_projection_on_co_supported_factors():
    rng = random.Random(31)
    inner = 2
    for _ in range(15):
        a = _random_x_series(rng, window=4)
        b = _random_x_series(rng, window=4)
        a_small, b_small = a.project(inner), b.project(inner)
        lifted = TruncatedSeries(ALPHABET_X, 2, 4, dict(a_small.terms()))
        lifted_b = TruncatedSeries(ALPHABET_X, 2, 4, dict(b_small.terms()))
        assert (lifted * lifted_b).project(inner) == a_small * b_small


def _pairwise_product(a, b):
    """The reference product: each pair of terms merged and multiplied on its own."""
    return _added((_merge(ma, mb), ca * cb) for ma, ca in a.terms() for mb, cb in b.terms())


def _per_term_action(element, series):
    """The reference ``act_series``: each term through the public ``act``, the
    images kept by ``fits_window`` and added up."""
    images = ((act(element, monomial), coeff) for monomial, coeff in series.terms())
    return _added((image, c) for image, c in images if fits_window(image, series.window))


def _fresh(series):
    """The same series with one new Fraction object per term."""
    return TruncatedSeries(
        series.alphabet, series.degree, series.window,
        [(m, Fraction(c.numerator, c.denominator)) for m, c in series.terms()],
    )


@st.composite
def group_series(draw, group, degree, window):
    """A sum of scaled orbit sums of the group, whose terms share coefficient
    objects, plus a few arbitrary terms (the unit at degree 0, one-block
    two-alphabet monomials); drawn with fresh objects for every term, or not."""
    series = draw(small_series(group.alphabet, degree, window))
    labels = [
        label for label in enumerate_indices(group, degree, 2, 1)
        if fits_window(representative_monomial(label), window)
    ] if degree else []
    for label in draw(st.lists(st.sampled_from(labels), max_size=2, unique=True)) if labels else ():
        scale = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        series += expand_basis_function(label, window).scale(scale)
    return _fresh(series) if draw(st.booleans()) else series


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_multiply_agrees_with_the_pairwise_product(data):
    group = data.draw(st.sampled_from(list(FriezeGroup)))
    window = data.draw(st.integers(1, 4))
    a = data.draw(group_series(group, data.draw(st.integers(0, 3)), window))
    b = data.draw(group_series(group, data.draw(st.integers(0, 2)), window))
    for left, right in ((a, b), (b, a)):
        product = left.multiply(right)
        assert dict(product.terms()) == _pairwise_product(left, right)
        assert product.degree == a.degree + b.degree and product.window == window
        margin = data.draw(st.integers(1, window))
        fresh = _outcome(is_invariant, group, _fresh(product), margin)
        assert _outcome(is_invariant, group, product, margin) is fresh


def _per_term_projection(series, window):
    """The reference ``project``: each term kept or dropped by ``fits_window``."""
    return {m: coeff for m, coeff in series.terms() if fits_window(m, window)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_project_agrees_with_the_per_term_filter(data):
    group = data.draw(st.sampled_from(list(FriezeGroup)))
    window = data.draw(st.integers(0, 4))
    series = data.draw(group_series(group, data.draw(st.integers(0, 3)), window))
    for inner in range(window + 1):
        projected = series.project(inner)
        assert dict(projected.terms()) == _per_term_projection(series, inner)
        assert (projected.degree, projected.window) == (series.degree, inner)


@pytest.mark.parametrize(
    "series",
    [
        complete_sym(0, 3),
        TruncatedSeries(ALPHABET_XY, 0, 3, {UNIT_XY: 2}),
        complete_sym(3, 4),
        elementary_sym(2, 5) + elementary_sym(2, 5).scale(-1),
        expand_basis_function(make_index(F6, composition(1), composition(2), -1), 5),
        expand_basis_function(make_index(F4, composition(2), composition(), 0), 5),
    ],
    ids=["unit X", "unit XY", "h3", "zero", "F6 orbit sum", "pure-x F4 orbit sum"],
)
def test_project_examples_against_the_per_term_filter(series):
    for inner in range(series.window + 1):
        assert dict(series.project(inner).terms()) == _per_term_projection(series, inner)


@pytest.mark.parametrize("alphabet", [ALPHABET_X, ALPHABET_XY])
def test_multiply_examples_against_the_pairwise_product(alphabet):
    window, x = 3, (normal_form_x if alphabet == ALPHABET_X else lambda e: normal_form_xy(e, {}))
    unit = TruncatedSeries(alphabet, 0, window, {UNIT_X if alphabet == ALPHABET_X else UNIT_XY: 2})
    plus = TruncatedSeries(alphabet, 1, window, {x({0: 1}): 1, x({1: 1}): 1})
    minus = TruncatedSeries(alphabet, 1, window, {x({0: 1}): 1, x({1: 1}): -1})
    # (x0 + x1)(x0 - x1) = x0^2 - x1^2: the cross terms cancel and are dropped
    squares = TruncatedSeries(alphabet, 2, window, {x({0: 2}): 1, x({1: 2}): -1})
    cases = [(unit, unit), (unit, plus), (plus, minus), (minus, unit), (plus, plus)]
    if alphabet == ALPHABET_XY:  # one-block monomials of either letter, and across letters
        ys = TruncatedSeries(alphabet, 2, window, {
            normal_form_xy({}, {-1: 1, 2: 1}): Fraction(1, 3), normal_form_xy({}, {0: 2}): -1,
        })
        cases += [(ys, plus), (ys, ys), (plus, ys.scale(3))]
    for a, b in cases:
        assert dict(a.multiply(b).terms()) == _pairwise_product(a, b)
    assert plus.multiply(minus) == squares


def test_products_of_shared_coefficient_objects_share_one_object():
    window = 5
    a = expand_basis_function(make_index(F6, composition(1), composition(2), 1), window)
    b = expand_basis_function(make_index(F6, composition(2), composition(1), 2), window)
    left = a.scale(Fraction(2, 3)).add(b.scale(-5))
    term = TruncatedSeries(ALPHABET_XY, 1, window, {normal_form_xy({0: 1}, {}): Fraction(-7, 2)})
    # each term of left * term comes from one pair: two coefficient objects, two products
    product = left.multiply(term)
    assert dict(product.terms()) == _pairwise_product(left, term)
    assert sorted({id(c): c for _, c in product.terms()}.values()) == [
        Fraction(-7, 3), Fraction(35, 2)
    ]
    # a product of invariants is invariant; fresh objects give the same verdicts
    e1 = expand_basis_function(enumerate_indices(F6, 1, 2, 1)[0], window)  # x_i + y_i
    for series in (product, left.multiply(e1), e1.multiply(left), _fresh(left).multiply(e1)):
        for margin in range(1, window + 1):
            fresh = _outcome(is_invariant, F6, _fresh(series), margin)
            assert _outcome(is_invariant, F6, series, margin) is fresh
    assert all(is_invariant(F6, left.multiply(e1), margin) for margin in (1, 2))
    assert not is_invariant(F6, product, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_act_series_agrees_with_the_per_term_action(data):
    group = data.draw(st.sampled_from(list(FriezeGroup)))
    window = data.draw(st.integers(0, 4))
    series = data.draw(group_series(group, data.draw(st.integers(0, 3)), window))
    # reflections, block swaps and both glide parities, then shifts that may push
    # every term out of the window
    rep = data.draw(st.sampled_from(translation_coset_representatives(group)))
    element = rep * shift(group, data.draw(st.integers(-2 * window - 3, 2 * window + 3)))
    image = act_series(element, series)
    assert dict(image.terms()) == _per_term_action(element, series)
    assert image.num_terms == sum(fits_window(act(element, m), window) for m in series.monomials())


def _family_keyed_images(group, series, moves, bound):
    """The reference walk: ``_family_images`` keyed by ``actions._family_key``, so
    that for the glide groups each base parity is a group of its own."""
    glide, families = group.uses_glide, {}
    for monomial, coeff in series.terms():
        families.setdefault(_family_key(monomial, glide), {})[monomial[0]] = coeff
    for z, reflect, swap in moves:
        sign, out = -1 if reflect else 1, {}
        for key, members in families.items():
            b0 = next(iter(members))
            lo, hi = _support(b0, *key[1:])
            image = _image(*_fields((b0, *key[1:])), z, reflect, swap)[: len(key)]
            first, last, offset = b0 - lo - z - bound, b0 - hi - z + bound, image[0] - sign * b0
            kept = {offset + sign * b: coeff for b, coeff in members.items() if first <= b <= last}
            if kept:
                out[_family_key(image, glide)] = kept
        yield out


def _two_walk_is_invariant(group, series, margin):
    """The reference invariance test: every generator's images under the
    reference walk equal the identity's, with the phrases of its errors."""
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if margin > series.window:
        raise ValueError("the interior is empty")
    if group.alphabet != series.alphabet:
        raise ValueError("does not act on alphabet")
    if series.degree == 0:
        return True
    moves = [(0, False, False), *map(_moves, generators(group))]
    inside, *images = _family_keyed_images(group, series, moves, series.window - margin)
    if any(image != inside for image in images):
        return False
    if not series.is_zero() and not inside:
        raise ValueError("so there is nothing to check")
    return True


def _two_walk_expansion(group, series, margin):
    """The reference expansion: the invariance test, then a second identity walk
    of the reference, each family labelled by its first interior term."""
    if series.degree < 1:
        raise ValueError("degree-0 series have no orbit-sum expansion")
    if not _two_walk_is_invariant(group, series, margin):
        raise ValueError("series is not invariant on the interior window")
    interior, out = series.window - margin, {}
    walk = _family_keyed_images(group, series, [(0, False, False)], interior)
    for key, members in next(walk).items():
        base, coeff = next(iter(members.items()))
        index = index_of_monomial(group, (base, *key[1:]))
        if fits_window(representative_monomial(index), interior):
            out[index] = coeff
    return out


def _member_dicts(images, bound):
    """A walk's {key: (first, gaps, coeffs)} as {key: {base: coeff}}; the gaps are
    positive, one fewer than the coefficients, and the bases lie in ``_bases_in(key, bound)``."""
    out = {}
    for key, (first, gaps, coeffs) in images.items():
        assert len(gaps) + 1 == len(coeffs) and min(gaps, default=1) > 0 and None not in coeffs
        bases = list(accumulate(gaps, initial=first))
        assert all(map(_bases_in(key, bound).__contains__, bases))
        out[key] = dict(zip(bases, coeffs))
    return out


def _flat(images, cut):
    """{monomial fields: coeff} of a walk's output, ``cut`` fields off each key."""
    return {(b, *key[cut:]): c for key, members in images.items() for b, c in members.items()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_walk_agrees_with_the_family_keyed_walk(data):
    group = data.draw(st.sampled_from(list(FriezeGroup)))
    window = data.draw(st.integers(1, 4))
    series = data.draw(group_series(group, data.draw(st.integers(1, 3)), window))
    elements = [*generators(group), *translation_coset_representatives(group)]
    z = data.draw(st.integers(-window - 2, window + 2))
    elements.append(data.draw(st.sampled_from(elements)) * shift(group, z))
    moves = [(0, False, False), *map(_moves, elements)]
    for bound in range(window + 2):
        walk = _family_images(series, moves, bound)
        reference = _family_keyed_images(group, series, moves, bound)
        for images, expected in zip(walk, reference, strict=True):
            assert _flat(_member_dicts(images, bound), 0) == _flat(expected, 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tampered_orbit_sums(), any_series_case()))
def test_one_walk_agrees_with_the_two_walk_composition(case):
    _same_outcome(is_invariant, _two_walk_is_invariant, *case)
    _same_outcome(expand_in_basis, _two_walk_expansion, *case)


@pytest.mark.parametrize("group", [F2, F5], ids=str)
def test_both_base_parities_under_one_key_get_their_own_labels(group):
    # O(x_1) has x at odd indices and O(y_1) has x at even ones: x[1] and x[0]
    # are one group of the walk, with bases 0 and -1, but two labels
    window, margin = 4, 1
    odd, even = (index_of_monomial(group, parse_monomial(t, ALPHABET_XY)) for t in ("x[1]", "y[1]"))
    third = Fraction(1, 3)
    series = expand_basis_function(odd, window) * 2 - expand_basis_function(even, window) * third
    interior = window - margin
    inside = _member_dicts(next(_family_images(series, [(0, False, False)], interior)), interior)
    assert {base % 2 for base in inside[(1,), (), 0]} == {0, 1}
    assert expand_in_basis(group, series, margin) == {odd: 2, even: Fraction(-1, 3)}


def _checked_against_the_two_walks(group, series, margin, invariant):
    """The verdict is ``invariant``, and ``is_invariant`` and ``expand_in_basis`` give
    what the two-walk references give, which do not run ``_family_images``."""
    assert is_invariant(group, series, margin) is invariant
    _same_outcome(is_invariant, _two_walk_is_invariant, group, series, margin)
    _same_outcome(expand_in_basis, _two_walk_expansion, group, series, margin)


@pytest.mark.parametrize("group", [F1, F3], ids=str)
def test_a_family_with_an_empty_interior_range_beside_an_invariant_family(group):
    # x[-3] x[3] fits the window 3 but is wider than the interior [-2, 2]
    window, margin = 3, 1
    wide = normal_form_x({-3: 1, 3: 1})
    label = index_of_monomial(group, normal_form_x({0: 1, 1: 1}))
    assert len(_bases_in(wide[1:], window - margin)) == 0
    series = expand_basis_function(label, window) + TruncatedSeries(
        ALPHABET_X, 2, window, {wide: 5}
    )
    _checked_against_the_two_walks(group, series, margin, True)
    assert expand_in_basis(group, series, margin) == {label: 1}


@pytest.mark.parametrize("coeff, invariant", [(2, False), (1, True)])
def test_a_term_just_below_the_interior_range_whose_t_image_lands_inside(coeff, invariant):
    # interior [-2, 2]: x[-3] has base -4, one below its family's range, and t sends it to x[-2]
    window, margin = 3, 1
    label, below = index_of_monomial(F1, normal_form_x({0: 1})), normal_form_x({-3: 1})
    assert below[0] == _bases_in(below[1:], window - margin).start - 1
    assert fits_window(act(generator(F1, "t"), below), window - margin)
    terms = dict(expand_basis_function(label, window).terms())
    terms[below] = coeff
    series = TruncatedSeries(ALPHABET_X, 1, window, terms)
    _checked_against_the_two_walks(F1, series, margin, invariant)
    if invariant:
        assert expand_in_basis(F1, series, margin) == {label: 1}


@pytest.mark.parametrize("bump", [0, 1])
@pytest.mark.parametrize("group", [F2, F5], ids=str)
def test_g_sends_a_family_of_both_base_parities_to_another_family(group, bump):
    # O(x_1) and O(y_1) put x terms at both base parities of one key, and g
    # swaps the blocks, so it sends that key to the key of the y terms
    window, margin = 4, 1
    x0, y0 = (parse_monomial(text, ALPHABET_XY) for text in ("x[0]", "y[0]"))
    assert act(generator(group, "g"), x0)[1:] == y0[1:]
    odd, even = (index_of_monomial(group, parse_monomial(t, ALPHABET_XY)) for t in ("x[1]", "y[1]"))
    series = expand_basis_function(odd, window) * 3 - expand_basis_function(even, window)
    terms = dict(series.terms())
    inside = [m for m in terms if fits_window(m, window - margin)]
    assert {m[0] % 2 for m in inside if m[1:] == x0[1:]} == {0, 1}
    terms[y0] += bump
    series = TruncatedSeries(ALPHABET_XY, 1, window, terms)
    _checked_against_the_two_walks(group, series, margin, not bump)


@pytest.mark.parametrize(
    "group, text", [(F3, "x[0]^2 x[1]"), (F4, "x[0]^2"), (F7, "x[0]^2")], ids=str
)
def test_one_family_of_a_two_family_orbit_is_not_invariant(group, text):
    window, margin = 4, 1
    monomial = parse_monomial(text, group.alphabet)
    interior = orbit_in_window(group, monomial, window - margin)
    assert len({image[1:] for image in interior}) == 2
    family = {image: 1 for image in interior if image[1:] == monomial[1:]}
    series = TruncatedSeries(group.alphabet, monomial.degree, window, family)
    _checked_against_the_two_walks(group, series, margin, False)


@pytest.mark.parametrize("group", [F1, F3], ids=str)
def test_a_sparse_series_at_a_wide_window_costs_its_terms_not_its_window(group):
    # one family of three terms spread over a window of 10**7: every list the walk
    # builds is as long as the terms it sends, and all three readers answer at once
    window, started = 10**7, time.perf_counter()
    x = {b: normal_form_x({b: 1}) for b in (-window, 0, window)}
    series = TruncatedSeries(ALPHABET_X, 1, window, {x[-window]: 2, x[0]: 1, x[window]: 3})
    moves = [(0, False, False), *map(_moves, generators(group))]
    for images in _family_images(series, moves, window - 1):
        _member_dicts(images, window - 1)
        assert all(len(coeffs) <= 3 for _, _, coeffs in images.values())
    _checked_against_the_two_walks(group, series, 1, False)
    t = act(generator(group, "t"), x[0])
    assert act_series(generator(group, "t"), series) == TruncatedSeries(
        ALPHABET_X, 1, window, {act(generator(group, "t"), x[-window]): 2, t: 1}
    )
    # the orbit sum of x[0] on [-3, 3] beside a far term is invariant on [-2, 2]
    label = index_of_monomial(group, x[0])
    near = {normal_form_x({b: 1}): 1 for b in range(-3, 4)}
    series = TruncatedSeries(ALPHABET_X, 1, window, {**near, x[window]: 5})
    _checked_against_the_two_walks(group, series, window - 2, True)
    assert expand_in_basis(group, series, window - 2) == {label: 1}
    assert time.perf_counter() - started < 2


def _two_orbit_sums(group, window):
    """2 O(a) - 1/3 O(b) for the first two degree-2 labels of the group: several families."""
    first, second = enumerate_indices(group, 2, 2, 1)[:2]
    return (
        expand_basis_function(first, window).scale(2)
        + expand_basis_function(second, window).scale(Fraction(-1, 3))
    )


@pytest.mark.parametrize("bump", [0, 1])
@pytest.mark.parametrize("group", [F1, F5, F7], ids=str)
def test_a_sum_whose_families_arrive_in_two_interleaved_runs(group, bump):
    # add appends the other operand's new terms, so with each family's bases split
    # between the operands (b mod 4 < 2, which alternates at a step of 1 or 2),
    # every family of the sum arrives as two runs, the second after the other families
    window, margin = 5, 1
    whole = _two_orbit_sums(group, window)
    halves = [[(m, c) for m, c in whole.terms() if (m[0] % 4 < 2) == first] for first in (1, 0)]
    assert len({m[1:] for m, _ in halves[0]} & {m[1:] for m, _ in halves[1]}) >= 2
    interior = next(i for i, (m, _) in enumerate(halves[1]) if fits_window(m, window - margin))
    halves[1][interior] = halves[1][interior][0], halves[1][interior][1] + bump
    early, late = (TruncatedSeries(whole.alphabet, 2, window, half) for half in halves)
    series = early + late
    assert (series == whole) is not bool(bump)
    _checked_against_the_two_walks(group, series, margin, not bump)
    for rep in translation_coset_representatives(group):
        for z in (-3, 0, 1, 2):
            element = rep * shift(group, z)
            assert dict(act_series(element, series).terms()) == _per_term_action(element, series)


@pytest.mark.parametrize("group", [F1, F5, F7], ids=str)
def test_the_constructor_gives_one_series_for_any_order_of_its_terms(group):
    window, margin = 5, 1
    whole = _two_orbit_sums(group, window)
    terms = whole.terms()
    random.Random(11).shuffle(terms)
    shuffled = TruncatedSeries(whole.alphabet, 2, window, terms)
    assert shuffled == whole
    _checked_against_the_two_walks(group, shuffled, margin, True)
    assert expand_in_basis(group, shuffled, margin) == expand_in_basis(group, whole, margin)
    # two faulty terms in different families: the one given first is named, whichever
    # family was filed first
    first = terms[0][0]
    other = next(m for m, _ in terms if m[1:] != first[1:])
    far_first, far_other = (act(shift(group, 2 * window + 2), m) for m in (first, other))
    for a, b in ((far_first, far_other), (far_other, far_first)):
        faulty = [*terms[:3], (a, 1), *terms[3:], (b, 1)]
        message = f"monomial {a} is not supported in [-{window}, {window}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TruncatedSeries(whole.alphabet, 2, window, faulty)


@pytest.mark.parametrize("alphabet", [ALPHABET_X, ALPHABET_XY])
def test_a_sparse_factor_costs_its_pairs_not_its_window(alphabet):
    far, started = 10**6, time.perf_counter()
    if alphabet == ALPHABET_X:
        ends = normal_form_x({-far: 1}), normal_form_x({far: 1})
        one = normal_form_x({0: 1, 1: 1})
    else:
        ends = normal_form_xy({-far: 1}, {}), normal_form_xy({}, {far: 1})
        one = normal_form_xy({0: 1}, {1: 1})
    sparse = TruncatedSeries(alphabet, 1, far, dict(zip(ends, (2, Fraction(-3, 4)))))
    single = TruncatedSeries(alphabet, 2, far, {one: Fraction(1, 2)})
    for a, b in ((sparse, single), (single, sparse)):
        assert dict(a.multiply(b).terms()) == _pairwise_product(a, b)
    assert time.perf_counter() - started < 1


# -- normal forms built unchecked: block products, symmetric functions, normal_form_*

exponent_maps = st.dictionaries(st.integers(-4, 4), st.integers(1, 3), max_size=3)


@st.composite
def normal_forms(draw, alphabet):
    """Normal forms drawn from exponent maps; empty maps give the unit and the
    pure-x and pure-y monomials, and the y block may start left of the x
    block (negative Δ), overlap it or lie apart from it."""
    if alphabet == ALPHABET_X:
        return normal_form_x(draw(exponent_maps))
    return normal_form_xy(draw(exponent_maps), draw(exponent_maps))


def _rebuild(monomial):
    """The same fields through the checked constructors."""
    if isinstance(monomial, MonomialX):
        return MonomialX(monomial.base, Composition(monomial.shape.parts))
    return MonomialXY(
        monomial.base,
        Composition(monomial.shape_x.parts),
        Composition(monomial.shape_y.parts),
        monomial.delta,
    )


def _assert_rebuilds(monomial):
    rebuilt = _rebuild(monomial)
    assert rebuilt == monomial and hash(rebuilt) == hash(monomial)


def _product_by_exponent_maps(a, b):
    """The product through summed exponent maps and the normal-form builders."""
    (xs, ys), (xb, yb) = a._exponent_maps(), b._exponent_maps()
    for exps, more in ((xs, xb), (ys, yb)):
        for i, c in more.items():
            exps[i] = exps.get(i, 0) + c
    return normal_form_x(xs) if isinstance(a, MonomialX) else normal_form_xy(xs, ys)


@st.composite
def normal_form_pairs(draw):
    alphabet = draw(st.sampled_from((ALPHABET_X, ALPHABET_XY)))
    return draw(normal_forms(alphabet)), draw(normal_forms(alphabet))


@settings(max_examples=400, deadline=None)
@given(normal_form_pairs())
def test_merge_is_the_normal_form_of_the_summed_exponents(pair):
    a, b = pair
    product = _merge(a, b)
    assert product == _product_by_exponent_maps(a, b)
    assert product == _merge(b, a)
    _assert_rebuilds(product)


@pytest.mark.parametrize(
    "a, b",
    [
        (UNIT_X, normal_form_x({2: 1})),
        (normal_form_x({-3: 1}), normal_form_x({3: 2})),
        (normal_form_x({0: 1, 2: 1}), normal_form_x({1: 1, 2: 1})),
        (normal_form_xy({}, {}), normal_form_xy({1: 1}, {-2: 1})),
        (normal_form_xy({0: 1}, {}), normal_form_xy({}, {-3: 2})),
        (normal_form_xy({}, {1: 1}), normal_form_xy({}, {4: 1})),
        (normal_form_xy({2: 1}, {-1: 1}), normal_form_xy({-4: 1}, {3: 1})),
        (normal_form_xy({0: 1, 1: 1}, {1: 1}), normal_form_xy({1: 2}, {0: 1, 1: 1})),
    ],
)
def test_merge_examples(a, b):
    product = _merge(a, b)
    assert product == _product_by_exponent_maps(a, b)
    _assert_rebuilds(product)


@pytest.mark.parametrize("build", [elementary_sym, complete_sym])
def test_symmetric_function_terms_rebuild(build):
    for r in range(5):
        for window in range(5):
            for monomial, _ in build(r, window).terms():
                assert monomial.degree == r
                _assert_rebuilds(monomial)


@settings(max_examples=200, deadline=None)
@given(exponent_maps, exponent_maps)
def test_normal_forms_rebuild(xs, ys):
    _assert_rebuilds(normal_form_x(xs))
    _assert_rebuilds(normal_form_xy(xs, ys))


def test_normal_form_guards_are_kept():
    for bad in ({0: -1}, {0: 2, 3: -2}):
        with pytest.raises(ValueError):
            normal_form_x(bad)
        with pytest.raises(ValueError):
            normal_form_xy(bad, {})
        with pytest.raises(ValueError):
            normal_form_xy({}, bad)
    for bad in ({0: Fraction(1)}, {0: 1.0}, {Fraction(1): 1}, {"0": 1}):
        with pytest.raises(TypeError):
            normal_form_x(bad)
        with pytest.raises(TypeError):
            normal_form_xy({1: 1}, bad)
