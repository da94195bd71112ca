import itertools
import math
from fractions import Fraction

import pytest

from friezeinv import (
    ComponentType,
    FriezeGroup,
    MonomialXY,
    act_series,
    component_type,
    composition,
    coordinates,
    decomposition_census,
    embed,
    enumerate_indices,
    generator,
    make_index,
    normal_form_x,
    normal_form_xy,
    orbit_in_window,
    representative_monomial,
    shift,
)
from friezeinv.actions import _families
from friezeinv.series import TruncatedSeries

F1, F2, F3, F6 = FriezeGroup.F1, FriezeGroup.F2, FriezeGroup.F3, FriezeGroup.F6


def test_component_type_examples():
    assert component_type(F1, make_index(F1, composition(2, 1))) is ComponentType.LINE
    diag = make_index(F6, composition(1), composition(1), 0)
    assert component_type(F6, diag) is ComponentType.LINE
    off = make_index(F6, composition(1), composition(1), 1)
    assert component_type(F6, off) is ComponentType.DOUBLE
    with pytest.raises(ValueError):
        component_type(F3, make_index(F3, composition(1)))


def test_census_f6_parity():
    for degree in (1, 3):
        report = decomposition_census(F6, degree, 3, 3)
        assert report.line == 0
        assert report.double > 0
    for degree in (2, 4):
        report = decomposition_census(F6, degree, 3, 3)
        assert report.line > 0
        assert report.double > 0


def test_census_f6_parity_guard_survives_optimize(monkeypatch):
    # a classification that calls a label self-paired at odd degree must fail
    # loudly, also under python -O
    import friezeinv.structure as structure

    monkeypatch.setattr(structure, "component_type", lambda group, index: ComponentType.LINE)
    with pytest.raises(RuntimeError, match="even degree"):
        decomposition_census(F6, 3, 3, 3)


def test_census_f1_matches_stars_and_bars():
    # exact-part counts via cumulative census differences
    for degree in (1, 2, 3, 4):
        for parts in (2, 3, 4):
            larger = decomposition_census(F1, degree, parts).total
            smaller = decomposition_census(F1, degree, parts - 1).total
            expected = math.comb(degree + parts - 3, parts - 1)
            assert larger - smaller == expected


def test_census_example_counts():
    assert decomposition_census(F1, 3, 3).total == 6
    report = decomposition_census(F6, 2, 2, 2)
    assert report.total == report.line + report.double
    assert report.total == len(enumerate_indices(F6, 2, 2, 2))


def _raw_shapes(order, max_parts):
    """Compositions of ``order`` with at most ``max_parts`` parts, as tuples,
    listed straight from the definition (positive ends, free interior)."""
    if order == 0:
        return [()]
    return [
        parts
        for num in range(1, max_parts + 1)
        for parts in itertools.product(range(order + 1), repeat=num)
        if sum(parts) == order and parts[0] and parts[-1]
    ]


@pytest.mark.parametrize("degree", range(1, 7))
@pytest.mark.parametrize("max_parts", range(1, 4))
def test_census_counts_match_burnside(degree, max_parts):
    # F3 identifies a shape with its reversal: the orbit count is the mean of
    # the fixed-point counts of the identity and the reversal
    shapes = _raw_shapes(degree, max_parts)
    palindromes = sum(1 for parts in shapes if parts == parts[::-1])
    assert len(enumerate_indices(F3, degree, max_parts)) == (len(shapes) + palindromes) // 2
    assert (len(shapes) + palindromes) % 2 == 0

    # F6 identifies (sx, sy, delta) with (sy, sx, -delta): LINE labels are the
    # swap's fixed points, every other orbit has two raw labels
    for max_delta in range(3):
        raw = [
            (sx, sy, delta)
            for order_x in range(degree + 1)
            for sx in _raw_shapes(order_x, max_parts)
            for sy in _raw_shapes(degree - order_x, max_parts)
            for delta in (range(-max_delta, max_delta + 1) if sx and sy else (0,))
        ]
        fixed = sum(1 for sx, sy, delta in raw if sx == sy and delta == 0)
        report = decomposition_census(F6, degree, max_parts, max_delta)
        assert report.line == fixed
        assert report.double == (len(raw) - fixed) / 2

        # F2: the glide maps (sx, sy, delta, p) to (sy, sx, -delta, p+delta+1
        # mod 2) and g^2 fixes every label; the glide fixes none, since a
        # label with sx == sy and delta == 0 changes parity
        primed = [(sx, sy, delta, p) for sx, sy, delta in raw for p in (0, 1)]
        glide_fixed = sum(
            1
            for sx, sy, delta, p in primed
            if (sy, sx, -delta, (p + delta + 1) % 2) == (sx, sy, delta, p)
        )
        assert len(enumerate_indices(F2, degree, max_parts, max_delta)) == (
            len(primed) + glide_fixed
        ) / 2


def test_census_json_shape():
    payload = decomposition_census(F6, 3, 3, 3).to_json_dict()
    assert payload == {
        "group": "F6",
        "degree": 3,
        "bounds": {"max_parts": 3, "max_delta": 3},
        "LINE": 0,
        "DOUBLE": payload["DOUBLE"],
    }


def test_embed_examples():
    idx = make_index(F1, composition(1))
    series = embed(idx, {(0, 0): 1}, 3)
    assert series.monomials() == {normal_form_x({1: 1})}

    assert embed(idx, {}, 3).is_zero()

    values = {(0, -2): Fraction(1, 2), (0, 0): 3}
    series = embed(idx, values, 3)
    assert coordinates(idx, series) == {(0, -2): Fraction(1, 2), (0, 0): Fraction(3)}


def test_embed_equivariance():
    idx = make_index(F1, composition(2, 1))
    values = {(0, -2): 1, (0, 0): 2}
    shifted = embed(idx, {(f, p + 1): v for (f, p), v in values.items()}, 5)
    assert shifted == act_series(shift(F1, 1), embed(idx, values, 5))


def test_embed_window_overflow():
    idx = make_index(F1, composition(1, 1))
    with pytest.raises(ValueError):
        embed(idx, {(0, 3): 1}, 3)  # monomial reaches x_5


def test_embed_rejects_a_family_out_of_range():
    diag = make_index(F6, composition(1), composition(1), 0)
    off = make_index(F6, composition(1), composition(1), 1)
    for index, count in ((make_index(F1, composition(1)), 1), (diag, 1), (off, 2)):
        for family in (-1, count, count + 1):
            with pytest.raises(ValueError, match="families"):
                embed(index, {(family, 0): 1}, 3)


def test_embed_rejects_a_base_of_the_wrong_parity():
    # an F2 family is one parity class of bases; the primed label's starts at -1
    for primed, good, bad in ((False, 0, 1), (True, -1, 0)):
        idx = make_index(F2, composition(1), composition(1), 0, primed)
        assert coordinates(idx, embed(idx, {(0, good): 1}, 4)) == {(0, good): Fraction(1)}
        with pytest.raises(ValueError, match="parity"):
            embed(idx, {(0, bad): 1}, 4)


def test_embed_f6_diagonal():
    idx = make_index(F6, composition(1), composition(1), 0)
    series = embed(idx, {(0, 0): 1, (0, 1): -2}, 3)
    assert coordinates(idx, series) == {(0, 0): Fraction(1), (0, 1): Fraction(-2)}


def test_coordinates_rejects_foreign_monomials():
    idx = make_index(F1, composition(1))
    stray = TruncatedSeries("X", 1, 3, {normal_form_x({2: 1}): 1})
    assert coordinates(idx, stray) == {(0, 1): Fraction(1)}
    wrong_shape = TruncatedSeries("X", 2, 3, {normal_form_x({1: 2}): 1})
    with pytest.raises(ValueError):
        coordinates(make_index(F1, composition(1, 1)), wrong_shape)
    # x[1] in two alphabets has the fields of an F1 monomial, but not its alphabet
    other_alphabet = TruncatedSeries("XY", 1, 3, {normal_form_xy({1: 1}, {}): 1})
    with pytest.raises(ValueError):
        coordinates(idx, other_alphabet)
    with pytest.raises(ValueError):
        coordinates(make_index(F6, composition(1)), stray)


def test_embed_double_roundtrip():
    idx = make_index(F6, composition(1), composition(1), 1)
    values = {(0, 0): Fraction(1), (1, 0): Fraction(2), (0, -1): Fraction(-1, 3)}
    assert coordinates(idx, embed(idx, values, 4)) == values


def test_h_moves_family_0_to_family_1():
    idx = make_index(F6, composition(1), composition(1), 1)
    image = act_series(generator(F6, "h"), embed(idx, {(0, 0): 1}, 4))
    # the alphabet swap sends the first family at base i to the second at i+delta
    assert coordinates(idx, image) == {(1, idx.delta): Fraction(1)}


def test_embed_rejects_overflow_and_malformed_keys():
    idx = make_index(F6, composition(1), composition(1), 1)
    with pytest.raises(ValueError):
        embed(idx, {(0, 2): 1}, 3)  # the first family reaches y_4
    with pytest.raises(ValueError):
        embed(idx, {(0, 0, 0): 1}, 3)


def _labels(group):
    """Every label of the group at degree <= 4, with at most 3 parts and |delta| <= 2."""
    return [index for degree in range(1, 5) for index in enumerate_indices(group, degree, 3, 2)]


def _members(index, window):
    """The orbit members in the window by (family, base): a member belongs to
    the family of the one image whose fields it shares but for the base, and,
    for the glide groups, whose base has the parity of its own."""
    group, rep = index.group, representative_monomial(index)
    step = 2 if group.uses_glide else 1
    images = _families(group, rep)
    out = {}
    for monomial in orbit_in_window(group, rep, window):
        [family] = [
            n for n, image in enumerate(images)
            if image[1:] == monomial[1:] and (image.base - monomial.base) % step == 0
        ]
        out[family, monomial.base] = monomial
    return out


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_coordinates_and_embed_are_inverse(group):
    for index in _labels(group):
        members = _members(index, 4)
        values = {key: Fraction(key[0] + 1, key[1] ** 2 + 1) for key in members}
        series = embed(index, values, 4)
        # every orbit member in the window has one key, and the key's member is its term
        assert series.monomials() == set(members.values()), index
        for key, monomial in members.items():
            assert series.coefficient(monomial) == values[key], (index, key)
        assert coordinates(index, series) == values, index
        assert embed(index, coordinates(index, series), 4) == series, index


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_embed_is_translation_equivariant(group):
    # t adds 1 to every base, and g^2 adds 2 for the glide groups
    window, step = 5, 2 if group.uses_glide else 1
    for index in _labels(group):
        values = {key: key[1] + 3 for key in _members(index, window - step)}
        moved = act_series(shift(group, step), embed(index, values, window))
        shifted = {(family, base + step): v for (family, base), v in values.items()}
        assert moved == embed(index, shifted, window), index


# ---------------------------------------------------------------------------
# the LINE/DOUBLE pairs that the (family, base) pair replaces, kept as the
# reference it is compared with on F1 and F6
# ---------------------------------------------------------------------------

def _line_monomial(index, position):
    rep = representative_monomial(index)
    return tuple.__new__(type(rep), (position,) + rep[1:])


def embed_line(index, sequence, window):
    group = index.group
    if component_type(group, index) is not ComponentType.LINE:
        raise ValueError("embed_line requires a LINE component")
    terms = [(_line_monomial(index, position), value) for position, value in sequence.items()]
    return TruncatedSeries(group.alphabet, index.degree, window, terms)


def line_coordinates(index, series):
    if component_type(index.group, index) is not ComponentType.LINE:
        raise ValueError("line_coordinates requires a LINE component")
    out = {}
    for monomial, coeff in series.terms():
        if _line_monomial(index, monomial.base) != monomial:
            raise ValueError(f"{monomial} does not belong to the component of {index}")
        out[monomial.base] = coeff
    return out


def _double_monomials(index, position):
    first = MonomialXY(position, index.shape_x, index.shape_y, index.delta)
    second = MonomialXY(position, index.shape_y, index.shape_x, -index.delta)
    return first, second


def embed_double(index, sequence, window):
    if component_type(index.group, index) is not ComponentType.DOUBLE:
        raise ValueError("embed_double requires a DOUBLE component")
    terms = []
    for position, (first_value, second_value) in sequence.items():
        first, second = _double_monomials(index, position)
        terms += [(first, first_value), (second, second_value)]
    return TruncatedSeries(index.group.alphabet, index.degree, window, terms)


def double_coordinates(index, series):
    if component_type(index.group, index) is not ComponentType.DOUBLE:
        raise ValueError("double_coordinates requires a DOUBLE component")
    out = {}
    for monomial, coeff in series.terms():
        first, second = _double_monomials(index, monomial.base)
        if monomial == first:
            slot = 0
        elif monomial == second:
            slot = 1
        else:
            raise ValueError(f"{monomial} does not belong to the component of {index}")
        pair = list(out.get(monomial.base, (Fraction(0), Fraction(0))))
        pair[slot] += coeff
        out[monomial.base] = (pair[0], pair[1])
    return out


@pytest.mark.parametrize("group", [F1, F6], ids=lambda g: g.value)
def test_pair_matches_the_line_and_double_reference(group):
    window = 6
    for index in _labels(group):
        members = _members(index, window)
        count = len(_families(group, representative_monomial(index)))
        # the bases at which every family has its member in the window
        positions = {p for _, p in members if all((n, p) in members for n in range(count))}
        assert positions, index
        if component_type(group, index) is ComponentType.LINE:
            sequence = {p: Fraction(p, 7) + 2 for p in positions}
            series = embed(index, {(0, p): v for p, v in sequence.items()}, window)
            assert series == embed_line(index, sequence, window), index
            assert line_coordinates(index, series) == sequence, index
            assert coordinates(index, series) == {(0, p): v for p, v in sequence.items()}
        else:
            pairs = {p: (Fraction(p, 7) + 2, Fraction(-1, p * p + 2)) for p in positions}
            values = {(slot, p): pair[slot] for p, pair in pairs.items() for slot in (0, 1)}
            series = embed(index, values, window)
            assert series == embed_double(index, pairs, window), index
            assert double_coordinates(index, series) == pairs, index
            assert coordinates(index, series) == values, index
