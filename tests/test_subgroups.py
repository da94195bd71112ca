"""The subgroup lattice as a cross-group oracle.

Six inclusions H < G of frieze groups act on the same ring, each of index 2,
with a coset representative c of G outside H.  For a monomial m:

  (i)   the G-orbit sum of m is the sum of the distinct H-orbit sums of the
        H-labels of m and c.m, at every window;
  (ii)  those two H-labels coincide exactly when the stabilizer of m in G has
        an element outside H;
  (iii) a G-invariant series is H-invariant.

Membership in H is read off the fields of G's normal-form elements, and is
itself checked against the actions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezeinv import (
    ALPHABET_X,
    FriezeGroup,
    TruncatedSeries,
    act,
    enumerate_indices,
    expand_basis_function,
    generator,
    index_of_monomial,
    is_invariant,
    normal_form_x,
    normal_form_xy,
    orbit_in_window,
    representative_monomial,
    shift,
    stabilizer,
)
from friezeinv.actions import translation_coset_representatives
from friezeinv.monomials import fits_window

F1, F2, F3, F4, F5, F6, F7 = FriezeGroup

# (H, G, coset representative of G outside H, membership in H of an element of G)
INCLUSIONS = (
    (F1, F3, generator(F3, "v"), lambda e: not e.v),
    (F2, F5, generator(F5, "v"), lambda e: not e.v),
    (F2, F6, shift(F6), lambda e: e.h == e.power % 2),
    (F4, F7, generator(F7, "v"), lambda e: e.v == e.h),
    (F5, F7, shift(F7), lambda e: e.h == e.power % 2),
    (F6, F7, generator(F7, "v"), lambda e: not e.v),
)
IDS = [f"{h}<{g}" for h, g, _, _ in INCLUSIONS]

exponent_maps = st.dictionaries(st.integers(-3, 3), st.integers(1, 2), max_size=3)


@st.composite
def monomials(draw, alphabet):
    if alphabet == ALPHABET_X:
        xs = draw(exponent_maps.filter(bool))
        return normal_form_x(xs)
    xs, ys = draw(exponent_maps), draw(exponent_maps)
    if not (xs or ys):
        xs = {draw(st.integers(-3, 3)): 1}
    return normal_form_xy(xs, ys)


def _elements(group, powers):
    reps = translation_coset_representatives(group)
    return [rep * shift(group, z) for rep in reps for z in powers]


@pytest.mark.parametrize("inclusion", INCLUSIONS, ids=IDS)
def test_membership_predicate_matches_the_actions(inclusion):
    sub, group, coset_rep, in_sub = inclusion
    if group.alphabet == ALPHABET_X:
        generic = normal_form_x({0: 2, 1: 1})
    else:
        generic = normal_form_xy({0: 2, 1: 1}, {3: 1})
    # a trivial stabilizer makes the action on it faithful
    assert stabilizer(group, generic) == ()
    sub_images = {act(h, generic) for h in _elements(sub, range(-8, 9))}
    for element in _elements(group, range(-3, 4)):
        assert (act(element, generic) in sub_images) is in_sub(element), element
    assert not in_sub(coset_rep)


def _orbit_sum(group, monomial, window):
    orbit = orbit_in_window(group, monomial, window)
    return TruncatedSeries(group.alphabet, monomial.degree, window, dict.fromkeys(orbit, 1))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INCLUSIONS), st.integers(0, 6), st.data())
def test_orbit_sum_splits_into_the_subgroup_orbit_sums(inclusion, window, data):
    sub, group, coset_rep, in_sub = inclusion
    monomial = data.draw(monomials(group.alphabet))
    labels = {index_of_monomial(sub, monomial), index_of_monomial(sub, act(coset_rep, monomial))}
    # (i): disjoint when the labels differ, so every coefficient stays 1
    total = TruncatedSeries(group.alphabet, monomial.degree, window)
    for label in labels:
        total += _orbit_sum(sub, representative_monomial(label), window)
    assert total == _orbit_sum(group, monomial, window)
    # (ii)
    outside = [e for e in stabilizer(group, monomial) if not in_sub(e)]
    assert (len(labels) == 1) is bool(outside)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INCLUSIONS), st.integers(1, 5), st.integers(1, 3), st.data())
def test_invariant_series_are_subgroup_invariant(inclusion, window, degree, data):
    sub, group, _, _ = inclusion
    labels = [
        label for label in enumerate_indices(group, degree, 2, 1)
        if fits_window(representative_monomial(label), window)
    ]
    chosen = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    series = TruncatedSeries(group.alphabet, degree, window)
    for label in chosen:
        weight = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        series += expand_basis_function(label, window).scale(weight)
    margin = data.draw(st.integers(1, window))
    # (iii); a margin that leaves no term to examine fails alike for both
    outcomes = []
    for acting in (group, sub):
        try:
            outcomes.append(is_invariant(acting, series, margin))
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] in (True, ValueError)
    assert outcomes[1] is outcomes[0]
