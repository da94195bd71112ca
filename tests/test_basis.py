import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friezeinv import (
    ALPHABET_X,
    EMPTY,
    BasisIndex,
    Composition,
    FriezeGroup,
    MonomialX,
    MonomialXY,
    canonical_index,
    composition,
    compositions_of,
    enumerate_indices,
    expand_basis_function,
    expand_in_basis,
    format_basis_label,
    index_of_monomial,
    make_index,
    normal_form_x,
    normal_form_xy,
    parse_basis_label,
    representative_monomial,
)
from friezeinv import basis
from friezeinv.actions import _coset_moves
from friezeinv.errors import ParseError
from friezeinv.monomials import _fields as _monomial_fields, _image
from conftest import brute_orbit_in_window, group_monomials

F1, F2, F3, F4, F5, F6, F7 = FriezeGroup


def test_canonical_index_examples():
    assert canonical_index(F3, composition(2, 1)) == make_index(F3, composition(1, 2))

    idx = canonical_index(F6, composition(1), composition(2), -3)
    assert idx == make_index(F6, composition(1), composition(2), -3)
    assert canonical_index(F6, composition(2), composition(1), 3) == idx

    same = make_index(F1, composition(1, 0, 1))
    assert canonical_index(F1, composition(1, 0, 1)) == same


def test_index_of_monomial_examples():
    assert index_of_monomial(F1, normal_form_x({3: 1, 5: 2})) == make_index(
        F1, composition(1, 0, 2)
    )

    even = index_of_monomial(F2, normal_form_xy({2: 1}, {}))
    odd = index_of_monomial(F2, normal_form_xy({1: 1}, {}))
    assert even != odd

    assert index_of_monomial(F6, normal_form_xy({0: 1}, {0: 1})) == make_index(
        F6, composition(1), composition(1), 0
    )


def test_unit_monomial_has_no_label():
    with pytest.raises(ValueError):
        index_of_monomial(F1, normal_form_x({}))


def test_degenerate_delta_collapses():
    a = canonical_index(F6, composition(2), EMPTY, 0)
    assert a == canonical_index(F6, EMPTY, composition(2), 0)
    assert a == canonical_index(F6, composition(2), EMPTY, 3)
    pure_x = canonical_index(F1, composition(1, 1))
    assert canonical_index(F1, composition(1, 1), EMPTY, 2) == pure_x
    with pytest.raises(ValueError):
        BasisIndex(F6, composition(2), EMPTY, delta=3)


def test_labels_compare_as_the_tuples_of_their_fields():
    # the documented semantics: a label is the plain tuple
    # (primed, parts_x, parts_y, delta, group), and sort_key is its first four
    idx = make_index(F6, composition(1), composition(2), -3)
    fields = (False, (1,), (2,), -3, F6)
    assert idx == fields and hash(idx) == hash(fields) and tuple(idx) == fields
    assert idx.sort_key() == fields[:4]
    a, b = make_index(F2, composition(1), composition(2), 1), make_index(F2, composition(2))
    assert (a < b) == (tuple(a) < tuple(b)) == (a.sort_key() < b.sort_key())
    assert sorted([b, a]) == sorted([b, a], key=BasisIndex.sort_key) == [a, b]
    primed = make_index(F2, composition(1), composition(1), 0, primed=True)
    assert sorted([primed, a]) == [a, primed]


def test_labels_never_equal_monomials_or_other_groups():
    x = make_index(F1, composition(1, 0, 2))
    assert x != representative_monomial(x) and len({x, representative_monomial(x)}) == 2
    xy = make_index(F6, composition(1), composition(2), -3)
    assert xy != representative_monomial(xy) and xy != tuple(representative_monomial(xy))
    assert make_index(F3, composition(1, 0, 2)) != x
    for group in (F4, F7):
        assert make_index(group, composition(1), composition(2), -3) != xy
    assert len({make_index(g, composition(1), composition(1)) for g in (F2, F4, F5, F6, F7)}) == 5


@pytest.mark.parametrize(
    "idx",
    [make_index(F1, composition(1, 0, 2)), make_index(F6, composition(1), composition(2), -3),
     make_index(F2, composition(1), composition(1), 0, primed=True),
     make_index(F5, EMPTY, composition(2, 1))],
    ids=str,
)
def test_label_copy_deepcopy_and_pickle_round_trips(idx):
    copies = [copy.copy(idx), copy.deepcopy(idx)]
    copies += [pickle.loads(pickle.dumps(idx, protocol)) for protocol in range(6)]
    for twin in copies:
        assert type(twin) is BasisIndex and twin == idx and hash(twin) == hash(idx)
        assert twin.group is idx.group and str(twin) == str(idx)


@pytest.mark.parametrize("protocol", range(6))
def test_label_pickle_rebuilds_through_the_checked_constructor(protocol):
    # tampered field tuples: an offset on a pure shape, a prime without a
    # glide, a y shape in one alphabet, no shape at all, and a bad shape
    for fields in ((False, (2,), (), 3, F6), (True, (1,), (1,), 0, F6),
                   (False, (1,), (1,), 0, F1), (False, (), (), 0, F2),
                   (False, (0, 1), (), 0, F1), (False, (1,), (2, -1), 0, F6)):
        tampered = tuple.__new__(BasisIndex, fields)
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(tampered, protocol))
        with pytest.raises(ValueError):
            copy.deepcopy(tampered)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_parsed_canonical_and_computed_labels_agree(group):
    for idx in enumerate_indices(group, 3, 2, 1):
        parsed = parse_basis_label(format_basis_label(idx))
        canonical = canonical_index(group, idx.shape_x, idx.shape_y, idx.delta, idx.primed)
        computed = index_of_monomial(group, representative_monomial(idx))
        for other in (parsed, canonical, computed):
            assert type(other) is BasisIndex
            assert other == idx and hash(other) == hash(idx)
            assert (other.shape_x, other.shape_y, other.degree) == (idx.shape_x, idx.shape_y, 3)
        assert len({idx: 0, parsed: 1, canonical: 2, computed: 3}) == 1


def test_constructor_guards():
    with pytest.raises(ValueError, match="delta must be 0"):
        BasisIndex(F6, composition(2), EMPTY, delta=3)
    with pytest.raises(ValueError, match="total order"):
        BasisIndex(F6, EMPTY, EMPTY)
    with pytest.raises(ValueError, match="single shape"):
        BasisIndex(F1, composition(1), composition(1))
    with pytest.raises(ValueError, match="single shape"):
        BasisIndex(F3, composition(1), EMPTY, 1)
    with pytest.raises(ValueError, match="parity class"):
        BasisIndex(F6, composition(1), composition(1), 0, True)
    idx = BasisIndex(F2, composition(1), composition(2), -1, True)
    assert (idx.group, idx.shape_x, idx.shape_y, idx.delta, idx.primed) == (
        F2, composition(1), composition(2), -1, True)
    assert isinstance(idx.shape_x, Composition) and idx.degree == 3


def test_primed_is_stored_as_a_bool():
    shape = composition(1)
    label = make_index(F2, shape, shape, 0, primed=1)
    assert label == make_index(F2, shape, shape, 0, primed=True) and type(label.primed) is bool
    assert type(make_index(F2, shape, shape, 0, primed=0).primed) is bool
    assert str(label) == "f2'[(1),(1);Δ=0]"
    with pytest.raises(ValueError, match="^primed must be 0 or 1$"):
        make_index(F2, shape, shape, 0, primed=2)
    for primed in (0.0, 1.0, 0.5):
        with pytest.raises(TypeError):
            make_index(F2, shape, shape, 0, primed=primed)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_canonicalization_is_idempotent(group):
    rng = random.Random(31 + ord(group.value[1]))
    for m in rng.sample(group_monomials(group, 3, 3, range(-2, 2)), 40):
        idx = index_of_monomial(group, m)
        assert index_of_monomial(group, representative_monomial(idx)) == idx


def _expansions_equal(a: BasisIndex, b: BasisIndex, window: int) -> bool:
    return expand_basis_function(a, window) == expand_basis_function(b, window)


def test_relation_f3_reversal():
    a = make_index(F3, composition(2, 0, 1))
    b = make_index(F3, composition(1, 0, 2))
    assert canonical_index(F3, a.shape_x) == canonical_index(F3, b.shape_x)
    assert _expansions_equal(a, b, 5)


def test_relation_f4_swap():
    sx, sy, delta = composition(2, 1), composition(1, 1, 1), 1
    a = make_index(F4, sx, sy, delta)
    b = make_index(F4, sy.reverse(), sx.reverse(), delta + sy.num_parts - sx.num_parts)
    assert canonical_index(F4, *_fields(a)) == canonical_index(F4, *_fields(b))
    assert _expansions_equal(a, b, 5)


def test_relation_f6_swap_negate():
    a = make_index(F6, composition(1), composition(2), -3)
    b = make_index(F6, composition(2), composition(1), 3)
    assert _expansions_equal(a, b, 5)


def test_relation_f2_primed_coincidence():
    for shape in (composition(1), composition(2), composition(1, 1)):
        a = make_index(F2, shape, shape, 0, primed=False)
        b = make_index(F2, shape, shape, 0, primed=True)
        assert canonical_index(F2, *_fields(a), False) == canonical_index(
            F2, *_fields(b), True
        )
        assert _expansions_equal(a, b, 5)


def test_relation_f2_swap_parity():
    # swapping the shapes negates delta and flips the parity class iff delta is even
    sx, sy = composition(1), composition(2)
    for delta in (-2, -1, 0, 1, 2):
        a = make_index(F2, sx, sy, delta, primed=False)
        flip = delta % 2 == 0
        b = make_index(F2, sy, sx, -delta, primed=flip)
        assert _expansions_equal(a, b, 5)
        assert canonical_index(F2, *_fields(a), False) == canonical_index(
            F2, *_fields(b), flip
        )


def test_relation_f5_parity_families():
    sx, sy, delta = composition(1, 1), composition(2), 1  # par(sx) even
    a = make_index(F5, sx, sy, delta)
    b = make_index(
        F5, sx.reverse(), sy.reverse(), sx.num_parts - sy.num_parts - delta, primed=True
    )
    assert _expansions_equal(a, b, 5)

    sx2 = composition(1, 0, 1)  # par odd: same parity class
    a2 = make_index(F5, sx2, sy, delta)
    b2 = make_index(
        F5, sx2.reverse(), sy.reverse(), sx2.num_parts - sy.num_parts - delta
    )
    assert _expansions_equal(a2, b2, 5)

    # par(sy)+delta parity controls the swap family
    delta3 = 1  # par(sy)+delta3 = 2, even: same parity class
    b3 = make_index(
        F5, sy.reverse(), sx2.reverse(), delta3 + sy.num_parts - sx2.num_parts
    )
    assert _expansions_equal(make_index(F5, sx2, sy, delta3), b3, 5)

    delta4 = 2  # par(sy)+delta4 = 3, odd: primed flip
    b4 = make_index(
        F5, sy.reverse(), sx2.reverse(), delta4 + sy.num_parts - sx2.num_parts, primed=True
    )
    assert _expansions_equal(make_index(F5, sx2, sy, delta4), b4, 5)


def test_relation_f7_triple():
    sx, sy, delta = composition(2, 1), composition(1), 2
    mm, mp = sx.num_parts, sy.num_parts
    a = make_index(F7, sx, sy, delta)
    images = [
        make_index(F7, sx.reverse(), sy.reverse(), mm - mp - delta),
        make_index(F7, sy, sx, -delta),
        make_index(F7, sy.reverse(), sx.reverse(), delta + mp - mm),
    ]
    for b in images:
        assert _expansions_equal(a, b, 5)
        assert canonical_index(F7, *_fields(a)) == canonical_index(F7, *_fields(b))


def _fields(idx: BasisIndex):
    return idx.shape_x, idx.shape_y, idx.delta


def test_enumerate_examples():
    assert enumerate_indices(F1, 1, 5) == [make_index(F1, composition(1))]

    f1_three = enumerate_indices(F1, 3, 2)
    assert {i.shape_x.parts for i in f1_three} == {(3,), (1, 2), (2, 1)}

    f3_three = enumerate_indices(F3, 3, 2)
    assert {i.shape_x.parts for i in f3_three} == {(3,), (1, 2)}


def test_enumerate_is_canonical_and_sorted(any_group):
    group = any_group
    indices = enumerate_indices(group, 3, 2, 2)
    assert len(indices) == len(set(indices))
    assert indices == sorted(indices, key=BasisIndex.sort_key)
    for idx in indices:
        assert canonical_index(group, idx.shape_x, idx.shape_y, idx.delta, idx.primed) == idx
        assert idx.degree == 3


def test_representatives_are_normal_forms(any_group):
    """representative_monomial builds its result without the constructor's
    checks; it must still be the normal form of its own exponents."""
    for idx in enumerate_indices(any_group, 3, 3, 2):
        rep = representative_monomial(idx)
        if isinstance(rep, MonomialX):
            expected = normal_form_x(rep.exponents())
        else:
            expected = normal_form_xy(*rep.exponents())
        assert type(rep) is type(expected)
        assert rep == expected and hash(rep) == hash(expected), idx


def test_enumerate_bounds_the_canonical_delta():
    # the raw label f7[(1),(1,0,1);Δ=0] is inside |Δ| <= 1, its orbit's
    # canonical label is not, so the orbit is listed only from |Δ| <= 2 on
    label = canonical_index(F7, composition(1), composition(1, 0, 1), 0)
    assert str(label) == "f7[(1),(1,0,1);Δ=-2]"
    assert label not in enumerate_indices(F7, 3, 3, 1)
    assert label in enumerate_indices(F7, 3, 3, 2)
    # an F6 swap only negates Δ, so no orbit with a raw label inside is missing
    listed = set(enumerate_indices(F6, 3, 3, 1))
    for rep in _raw_representatives(F6, 3, 3, 1):
        assert index_of_monomial(F6, rep) in listed, rep


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        enumerate_indices(F6, 2, 0)
    with pytest.raises(ValueError):
        enumerate_indices(F6, 2, 1, -3)
    with pytest.raises(ValueError):
        enumerate_indices(F1, 2, 1, -1)


# ---------------------------------------------------------------------------
# brute-force canonical-label oracle: the least label key over the orbit
# itself, exhausted by letter words at a window wide enough to hold a
# translate of every member
# ---------------------------------------------------------------------------

def _label_key(group: FriezeGroup, monomial) -> tuple:
    """(primed, x parts, y parts, delta) read off one orbit member."""
    if isinstance(monomial, MonomialX):
        return (False, monomial.shape.parts, (), 0)
    primed = group.uses_glide and monomial.base % 2 == 1
    return (primed, monomial.shape_x.parts, monomial.shape_y.parts, monomial.delta)


def oracle_label(group: FriezeGroup, monomial, memo: dict) -> BasisIndex:
    """Least label over the brute-force orbit; every orbit member it meets
    is memoized with the same label."""
    if monomial not in memo:
        window = monomial.span + abs(getattr(monomial, "delta", 0))
        orbit = brute_orbit_in_window(group, monomial, window)
        primed, parts_x, parts_y, delta = min(_label_key(group, m) for m in orbit)
        label = make_index(group, composition(*parts_x), composition(*parts_y), delta, primed)
        memo.update(dict.fromkeys(orbit, label))
        memo[monomial] = label
    return memo[monomial]


def _raw_representatives(group: FriezeGroup, degree: int, max_parts: int, max_delta: int):
    """Representatives of every raw label inside the bounds."""
    orders = (degree,) if group.alphabet == ALPHABET_X else range(degree + 1)
    parities = (False, True) if group.uses_glide else (False,)
    for order_x in orders:
        for sx in compositions_of(order_x, max_parts):
            for sy in compositions_of(degree - order_x, max_parts):
                two_blocks = sx.parts and sy.parts
                for delta in range(-max_delta, max_delta + 1) if two_blocks else (0,):
                    for primed in parities:
                        raw = make_index(group, sx, sy, delta, primed)
                        yield representative_monomial(raw)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_index_of_monomial_matches_brute_force(group):
    memo: dict = {}
    for m in group_monomials(group, 3, 3, range(-2, 1)):
        assert index_of_monomial(group, m) == oracle_label(group, m, memo), m


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_enumerate_matches_brute_force(group):
    memo: dict = {}
    for degree in range(1, 6):
        for max_parts in range(1, 4):
            for max_delta in range(3):
                expected = set()
                for rep in _raw_representatives(group, degree, max_parts, max_delta):
                    label = oracle_label(group, rep, memo)
                    parts = max(label.shape_x.num_parts, label.shape_y.num_parts)
                    if parts <= max_parts and abs(label.delta) <= max_delta:
                        expected.add(label)
                got = enumerate_indices(group, degree, max_parts, max_delta)
                assert len(got) == len(expected), (degree, max_parts, max_delta)
                assert set(got) == expected, (degree, max_parts, max_delta)


# ---------------------------------------------------------------------------
# the list-and-min kernel and the raw-label enumeration, kept as references
# for the running least key and the one canonicalization per raw label
# ---------------------------------------------------------------------------

def _listed_least_key(group: FriezeGroup, monomial) -> BasisIndex:
    """The key of every coset image, the identity's included, through ``_image``,
    collected in a list; the label is its ``min``."""
    fields, glide = _monomial_fields(monomial), group.uses_glide
    if not (fields[1] or fields[2]):
        raise ValueError("the unit monomial has no basis label")
    keys = []
    for move in _coset_moves(group):
        b, px, py, d = _image(*fields, *move)
        keys.append((glide and b % 2 == 1, px, py, d))
    return tuple.__new__(BasisIndex, (*min(keys), group))


def _raw_label_enumeration(group, degree, max_parts, max_abs_delta) -> list[BasisIndex]:
    """Each raw label built as a BasisIndex, kept when the label of its
    ``representative_monomial`` equals it whole, and sorted by ``sort_key``."""
    orders = range(degree + 1) if group.alphabet != ALPHABET_X else (degree,)
    parities = (False, True) if group.uses_glide else (False,)
    labels = []
    for order_x in orders:
        deltas = range(-max_abs_delta, max_abs_delta + 1) if 0 < order_x < degree else (0,)
        for sx in compositions_of(order_x, max_parts):
            for sy in compositions_of(degree - order_x, max_parts):
                for delta in deltas:
                    for primed in parities:
                        raw = tuple.__new__(BasisIndex, (primed, sx.parts, sy.parts, delta, group))
                        if _listed_least_key(group, representative_monomial(raw)) == raw:
                            labels.append(raw)
    return sorted(labels, key=BasisIndex.sort_key)


_SHAPES = st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
    lambda parts: parts[0] and parts[-1]
).map(lambda parts: composition(*parts))


@st.composite
def _group_monomials(draw):
    """A group and a nonunit monomial of its alphabet: x-only, y-only or two blocks,
    at any base, odd and negative ones included."""
    group = draw(st.sampled_from(list(FriezeGroup)))
    base = draw(st.integers(-9, 9))
    if group.alphabet == ALPHABET_X:
        return group, MonomialX(base, draw(_SHAPES))
    kind = draw(st.sampled_from(("x", "y", "xy")))
    shape_x = draw(_SHAPES) if kind != "y" else EMPTY
    shape_y = draw(_SHAPES) if kind != "x" else EMPTY
    delta = draw(st.integers(-5, 5)) if kind == "xy" else 0
    return group, MonomialXY(base, shape_x, shape_y, delta)


@settings(max_examples=600, deadline=None)
@given(_group_monomials())
@example((F2, MonomialXY(-1, composition(1), EMPTY, 0)))
@example((F5, MonomialXY(-3, EMPTY, composition(2, 1), 0)))
@example((F7, MonomialXY(-2, composition(1), composition(1, 0, 1), 0)))
def test_running_least_key_agrees_with_the_listed_minimum(case):
    group, monomial = case
    got, want = index_of_monomial(group, monomial), _listed_least_key(group, monomial)
    assert type(got) is BasisIndex and got == want, monomial
    assert list(map(type, got)) == list(map(type, want)), monomial


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_enumerate_agrees_with_the_raw_label_enumeration(group):
    for degree in range(1, 6):
        for max_parts in range(1, 4):
            for max_delta in range(3):
                got = enumerate_indices(group, degree, max_parts, max_delta)
                want = _raw_label_enumeration(group, degree, max_parts, max_delta)
                assert got == want, (degree, max_parts, max_delta)
                assert all(type(label) is BasisIndex for label in got)
                types = [list(map(type, label)) for label in got]
                assert types == [list(map(type, label)) for label in want]


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_the_identity_move_comes_first(group):
    # index_of_monomial reads the identity key off the fields and walks the rest
    assert _coset_moves(group)[0] == (0, False, False)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_enumerate_canonicalizes_each_raw_label_once(group, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return index_of_monomial(*args)

    monkeypatch.setattr(basis, "index_of_monomial", counted)
    parities = 2 if group.uses_glide else 1
    for degree in range(1, 5):
        orders = (degree,) if group.alphabet == ALPHABET_X else range(degree + 1)
        for max_parts in range(1, 4):
            for max_delta in range(3):
                raw = 0
                for order_x in orders:
                    deltas = 2 * max_delta + 1 if 0 < order_x < degree else 1
                    raw += (len(list(compositions_of(order_x, max_parts)))
                            * len(list(compositions_of(degree - order_x, max_parts)))
                            * deltas * parities)
                calls.clear()
                enumerate_indices(group, degree, max_parts, max_delta)
                assert len(calls) == raw, (degree, max_parts, max_delta)


def test_expand_examples():
    f1 = expand_basis_function(make_index(F1, composition(1)), 2)
    assert f1.monomials() == {normal_form_x({i: 1}) for i in range(-2, 3)}
    assert all(c == 1 for _, c in f1.terms())

    f3 = expand_basis_function(make_index(F3, composition(1, 2)), 2)
    assert f3.num_terms == 8

    f6 = expand_basis_function(make_index(F6, composition(1), composition(1), 0), 1)
    assert f6.monomials() == {normal_form_xy({i: 1}, {i: 1}) for i in (-1, 0, 1)}


def test_expand_palindrome_orbit_sum_counts_each_monomial_once():
    idx = make_index(F3, composition(1, 2, 1))
    series = expand_basis_function(idx, 3)
    # 5 translates fit in [-3, 3]; the reflection family coincides with them
    assert series.num_terms == 5
    assert all(c == 1 for _, c in series.terms())


def test_expand_window_too_small():
    # a window too small for the representative still holds other orbit members,
    # and one too small for every member gives the zero series
    series = expand_basis_function(make_index(F1, composition(1, 1, 1, 1)), 2)
    assert [str(m) for m, _ in series.terms()] == ["x[-2] x[-1] x[0] x[1]", "x[-1] x[0] x[1] x[2]"]
    pair = expand_basis_function(make_index(F1, composition(1, 0, 0, 0, 1)), 2)
    assert [str(m) for m, _ in pair.terms()] == ["x[-2] x[2]"]
    for group in FriezeGroup:
        for label in enumerate_indices(group, 2, 2, 1):
            span = representative_monomial(label).span
            assert expand_basis_function(label, 0).is_zero() == (span > 1), label
    with pytest.raises(ValueError):
        expand_basis_function(make_index(F1, composition(1)), -1)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_expand_basis_function_is_the_brute_force_orbit_with_coefficient_one(group):
    # read from the ordered orbit walk, not from orbit_in_window's set; for F2 and F5,
    # f[(1),(1);Δ=0] has one translate family that the walk yields once per base parity
    for label in enumerate_indices(group, 2, 2, 1):
        for window in (0, 3, 7):
            orbit = brute_orbit_in_window(group, representative_monomial(label), window)
            assert dict(expand_basis_function(label, window).terms()) == dict.fromkeys(orbit, 1)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_partition_of_monomials(group):
    """Sampled version of the orbit-partition property (full sweep in the
    acceptance suite): every monomial lies in exactly one label's expansion."""
    monomials = [m for m in group_monomials(group, 3, 2, range(-1, 1)) if m.span <= 2]
    window = 4
    labels = {index_of_monomial(group, m) for m in monomials}
    expansions = {idx: expand_basis_function(idx, window).monomials() for idx in labels}
    for m in monomials:
        owners = [idx for idx, monos in expansions.items() if m in monos]
        assert owners == [index_of_monomial(group, m)]


def test_expand_in_basis_single_term():
    series = expand_basis_function(make_index(F1, composition(2)), 4).scale(3)
    assert expand_in_basis(F1, series, 1) == {make_index(F1, composition(2)): Fraction(3)}


def test_expand_in_basis_rejects_non_invariant():
    from friezeinv import ALPHABET_X, TruncatedSeries

    lone = TruncatedSeries(ALPHABET_X, 1, 3, {normal_form_x({0: 1}): 1})
    with pytest.raises(ValueError):
        expand_in_basis(F1, lone, 1)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_expand_in_basis_round_trip(group):
    rng = random.Random(52 + ord(group.value[1]))
    window = 5
    indices = [idx for idx in enumerate_indices(group, 2, 2, 1)]
    chosen = rng.sample(indices, min(3, len(indices)))
    weights = {idx: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for idx in chosen}
    series = None
    for idx, weight in weights.items():
        term = expand_basis_function(idx, window).scale(weight)
        series = term if series is None else series + term
    recovered = expand_in_basis(group, series, 1)
    expected = {idx: w for idx, w in weights.items() if w}
    assert recovered == expected


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_expand_in_basis_finds_every_orbit_from_first_bases(group):
    # each interior family is labelled by its first base only: for F2 and F5 the
    # orbit of the other parity class is reached through the family's g-image, so
    # every sum of orbit sums expands to exactly the labels whose representative
    # lies in the interior, at every window and margin
    rng = random.Random(61 + ord(group.value[1]))
    for degree in (1, 2, 3):
        labels = enumerate_indices(group, degree, 3, 2)
        combos = [[idx] for idx in labels]
        combos += [rng.sample(labels, min(n, len(labels))) for n in (2, 3) for _ in range(4)]
        for window in range(1, 8):
            for combo in combos:
                weights = {}
                for idx in combo:
                    weights[idx] = weights.get(idx, 0) + rng.randint(1, 3)
                series = None
                for idx, weight in weights.items():
                    term = expand_basis_function(idx, window).scale(weight)
                    series = term if series is None else series + term
                for margin in range(1, window + 1):
                    lo, hi = -window + margin, window - margin
                    expected = {
                        idx: weight for idx, weight in weights.items()
                        if lo <= (support := representative_monomial(idx).support())[0]
                        and support[1] <= hi
                    }
                    try:
                        recovered = expand_in_basis(group, series, margin)
                    except ValueError:  # no interior term at all
                        recovered = {}
                    assert recovered == expected, (combo, window, margin)


def test_label_text_roundtrip():
    samples = [
        make_index(F1, composition(1, 0, 2)),
        make_index(F3, composition(1, 2)),
        make_index(F6, composition(1), composition(2), -3),
        make_index(F2, composition(1), composition(1), 0, primed=True),
        make_index(F5, composition(2), EMPTY, 0, primed=False),
        make_index(F4, composition(1), composition(1, 1), 4),
    ]
    for idx in samples:
        assert parse_basis_label(format_basis_label(idx)) == idx
    assert format_basis_label(samples[2]) == "f6[(1),(2);Δ=-3]"
    assert parse_basis_label("f6[(1),(2);delta=-3]") == samples[2]
    # int() reads any decimal digits, as the label grammar did before
    assert parse_basis_label("f6[(1),(\u0662);Δ=-\u0663]") == samples[2]
    for spaced in ("f6[(1), (2);Δ=-3]", "f6[(1) ,(2);Δ=-3]", "f6[ (1) , (2) ; Δ=-3]"):
        assert parse_basis_label(spaced) == samples[2]


def test_one_alphabet_labels_reject_two_alphabet_fields():
    # the y shape, the offset and the prime are checked, not dropped
    with pytest.raises(ValueError):
        make_index(F1, composition(1), composition(2), 3, True)
    with pytest.raises(ValueError):
        canonical_index(F1, composition(1), composition(2))
    with pytest.raises(ValueError):
        canonical_index(F3, composition(1, 2), primed=True)
    assert make_index(F3, composition(2), EMPTY, 4) == make_index(F3, composition(2))


@pytest.mark.parametrize(
    "text",
    [
        "f8[(1)]", "f1[(1),(2);Δ=0]", "f6[(1)]", "f6'[(1),(1);Δ=0]", "f2[(1),(1)]", "f2[]",
        "f1'[(1)]", "f3'[(2,1)]", "f1[()]", "f6[(),();Δ=0]", "f6[(1)(2);Δ=0]",
        "f6[(1) (2);Δ=0]", "f6[(1),;(2)Δ=0]",
    ],
)
def test_label_parse_errors(text):
    with pytest.raises(ParseError):
        parse_basis_label(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("f8[(1)]", 0),
        ("f6[(1),(2)]", 0),
        ("f1[()]", 0),
        ("f1[(1,x)]", 3),
        ("  f1[(1,x)]", 5),
        ("f6[(1,),(2);Δ=0]", 3),
        ("f6[(1),(2,-1);Δ=0]", 7),
        (" f6[(1),(2,x);Δ=0]", 8),
        ("f6[(1),(2);Δ=x]", 13),
        ("f6[(1),(2); delta=-x]", 18),
        ("f6[(1),(2);Q=1]", 11),
        ("f6[(1),(2);  1]", 13),
        ("f6[(1)(2);Δ=0]", 0),
        ("f6[(1,x) ,(2);Δ=0]", 3),
        ("f6[(1), (2,x);Δ=0]", 8),
        ("f6[(1) , (2,-1);Δ=0]", 9),
        ("f6[(1), (2); Δ=x]", 15),
        ("f6[(1),(2);Δ=--5]", 13),
        ("f6[(1),(2);Δ=²]", 13),
        ("f6[(1),(2); delta=-²]", 18),
        ("f1[(1,--2)]", 3),
        (" f6[(1),(-²);Δ=0]", 8),
    ],
)
def test_label_parse_error_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_basis_label(text)
    assert info.value.position == position
    assert str(info.value).startswith(f"at position {position}: ")


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_expansions_are_invariant_on_interior(group):
    from friezeinv import is_invariant

    for idx in enumerate_indices(group, 2, 2, 1)[:4]:
        series = expand_basis_function(idx, 5)
        assert is_invariant(group, series, 1), idx


def test_expand_in_basis_reconstructs_on_interior():
    window, margin = 5, 1
    weights = {
        make_index(F1, composition(2)): Fraction(5, 3),
        make_index(F1, composition(1, 1)): Fraction(-2),
    }
    series = None
    for idx, w in weights.items():
        term = expand_basis_function(idx, window).scale(w)
        series = term if series is None else series + term
    recovered = expand_in_basis(F1, series, margin)
    rebuilt = None
    for idx, w in recovered.items():
        term = expand_basis_function(idx, window).scale(w)
        rebuilt = term if rebuilt is None else rebuilt + term
    lo, hi = -window + margin, window - margin
    for monomial in series.monomials() | rebuilt.monomials():
        sup = monomial.support()
        if sup and lo <= sup[0] and sup[1] <= hi:
            assert rebuilt.coefficient(monomial) == series.coefficient(monomial)
