import json
import random
import re
from fractions import Fraction

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
    elementary_sym,
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
from friezeinv.actions import orbit_coset_representatives, translation_coset_representatives
from friezeinv.errors import ParseError
from friezeinv.monomials import fits_window
from friezeinv.series import _accumulate, _merge
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


def test_zero_coefficients_pruned():
    s = TruncatedSeries(ALPHABET_X, 1, 2, [(normal_form_x({0: 1}), 1), (normal_form_x({0: 1}), -1)])
    assert s.is_zero()
    assert s == TruncatedSeries.zero(ALPHABET_X, 1, 2)
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
    series = TruncatedSeries.zero(group.alphabet, degree, window)
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
    rep = data.draw(st.sampled_from(orbit_coset_representatives(group)))
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
    with pytest.raises(ValueError):
        build(-1, 2)
    with pytest.raises(ValueError):
        build(2, -1)
    with pytest.raises(ValueError):
        build(0, -1)


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


def _per_term_from_json(data):
    """The loader as a per-term path: each coefficient and each monomial read
    on its own by ``parse_monomial``, and the terms handed to the validating
    constructor, with the loader's messages in the loader's order."""
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
    return TruncatedSeries(alphabet, *header, terms)


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
    loaded = _load_outcome(TruncatedSeries.from_json_dict, document)
    assert loaded == _load_outcome(_per_term_from_json, document)


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
    return _accumulate(
        (_merge(ma, mb), ca * cb) for ma, ca in a._coeffs.items() for mb, cb in b._coeffs.items()
    )


def _per_term_action(element, series):
    """The reference ``act_series``: each term through the public ``act``, the
    images kept by ``fits_window`` and added up."""
    images = ((act(element, monomial), coeff) for monomial, coeff in series._coeffs.items())
    return _accumulate((image, c) for image, c in images if fits_window(image, series.window))


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
        assert product._coeffs == _pairwise_product(left, right)
        assert product.degree == a.degree + b.degree and product.window == window
        margin = data.draw(st.integers(1, window))
        fresh = _outcome(is_invariant, group, _fresh(product), margin)
        assert _outcome(is_invariant, group, product, margin) is fresh


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
        assert a.multiply(b)._coeffs == _pairwise_product(a, b)
    assert plus.multiply(minus) == squares


def test_products_of_shared_coefficient_objects_share_one_object():
    window = 5
    a = expand_basis_function(make_index(F6, composition(1), composition(2), 1), window)
    b = expand_basis_function(make_index(F6, composition(2), composition(1), 2), window)
    left = a.scale(Fraction(2, 3)).add(b.scale(-5))
    term = TruncatedSeries(ALPHABET_XY, 1, window, {normal_form_xy({0: 1}, {}): Fraction(-7, 2)})
    # each term of left * term comes from one pair: two coefficient objects, two products
    product = left.multiply(term)
    assert product._coeffs == _pairwise_product(left, term)
    assert sorted({id(c): c for c in product._coeffs.values()}.values()) == [
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
    assert image._coeffs == _per_term_action(element, series)
    assert image.num_terms == sum(fits_window(act(element, m), window) for m in series.monomials())


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
