import itertools
import math
from fractions import Fraction

import pytest

from friezeinv import (
    ComponentType,
    FriezeGroup,
    act_series,
    component_type,
    composition,
    decomposition_census,
    double_coordinates,
    embed_double,
    embed_line,
    enumerate_indices,
    has_finite_support,
    is_constant_sequence,
    line_coordinates,
    make_index,
    normal_form_x,
    shift,
)
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


def test_embed_line_examples():
    idx = make_index(F1, composition(1))
    series = embed_line(idx, {0: 1}, 3)
    assert series.monomials() == {normal_form_x({1: 1})}

    assert embed_line(idx, {}, 3).is_zero()

    seq = {-2: Fraction(1, 2), 0: 3}
    series = embed_line(idx, seq, 3)
    assert line_coordinates(idx, series) == {-2: Fraction(1, 2), 0: Fraction(3)}


def test_embed_line_equivariance():
    idx = make_index(F1, composition(2, 1))
    seq = {-2: 1, 0: 2}
    shifted = embed_line(idx, {p + 1: v for p, v in seq.items()}, 5)
    assert shifted == act_series(shift(F1, 1), embed_line(idx, seq, 5))


def test_embed_line_window_overflow():
    idx = make_index(F1, composition(1, 1))
    with pytest.raises(ValueError):
        embed_line(idx, {3: 1}, 3)  # monomial reaches x_5


def test_embed_line_requires_line_component():
    off = make_index(F6, composition(1), composition(1), 1)
    with pytest.raises(ValueError):
        embed_line(off, {0: 1}, 3)


def test_embed_line_f6_diagonal():
    idx = make_index(F6, composition(1), composition(1), 0)
    series = embed_line(idx, {0: 1, 1: -2}, 3)
    assert line_coordinates(idx, series) == {0: Fraction(1), 1: Fraction(-2)}


def test_line_coordinates_rejects_foreign_monomials():
    idx = make_index(F1, composition(1))
    stray = TruncatedSeries("X", 1, 3, {normal_form_x({2: 1}): 1})
    assert line_coordinates(idx, stray) == {1: Fraction(1)}
    wrong_shape = TruncatedSeries("X", 2, 3, {normal_form_x({1: 2}): 1})
    with pytest.raises(ValueError):
        line_coordinates(make_index(F1, composition(1, 1)), wrong_shape)


def test_embed_double_roundtrip():
    idx = make_index(F6, composition(1), composition(1), 1)
    pairs = {0: (Fraction(1), Fraction(2)), -1: (Fraction(-1, 3), Fraction(0))}
    series = embed_double(idx, pairs, 4)
    assert double_coordinates(idx, series) == {
        0: (Fraction(1), Fraction(2)),
        -1: (Fraction(-1, 3), Fraction(0)),
    }


def test_embed_double_h_swaps_slots():
    idx = make_index(F6, composition(1), composition(1), 1)
    from friezeinv import generator

    series = embed_double(idx, {0: (1, 0)}, 4)
    image = act_series(generator(F6, "h"), series)
    coords = double_coordinates(idx, image)
    # the alphabet swap sends the first family at base i to the second at i+delta
    assert coords == {idx.delta + 0: (Fraction(0), Fraction(1))}


def test_embed_double_rejects_overflow_and_malformed_pairs():
    idx = make_index(F6, composition(1), composition(1), 1)
    with pytest.raises(ValueError):
        embed_double(idx, {2: (1, 1)}, 3)  # the first family reaches y_4
    with pytest.raises(ValueError):
        embed_double(idx, {0: (1, 2, 3)}, 3)


def test_embed_double_requires_double_component():
    diag = make_index(F6, composition(1), composition(1), 0)
    with pytest.raises(ValueError):
        embed_double(diag, {0: (1, 0)}, 3)


def test_sequence_predicates():
    assert is_constant_sequence({i: 1 for i in range(-3, 4)}, -3, 3)
    assert not is_constant_sequence({0: 1}, -3, 3)
    assert is_constant_sequence({}, -2, 2)

    assert has_finite_support({0: 5}, -3, 3)
    assert not has_finite_support({i: 1 for i in range(-3, 4)}, -3, 3)
    assert not has_finite_support({3: 1}, -3, 3)
    with pytest.raises(ValueError):
        is_constant_sequence({}, 2, -2)
