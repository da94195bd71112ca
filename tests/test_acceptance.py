"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything is exact arithmetic, so every tolerance is equality.  Scope
constants below pin the desk scale: windows <= 6, degrees <= 4, |delta| <= 4,
parts <= 4.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from friezeinv import (
    FriezeGroup,
    act,
    act_series,
    canonical_index,
    complete_sym,
    decomposition_census,
    elementary_sym,
    enumerate_indices,
    expand_basis_function,
    expand_in_basis,
    generators,
    identity,
    index_of_monomial,
    is_invariant,
    make_index,
    parse_word,
    representative_monomial,
    stabilizer,
)
from friezeinv.groups import generator
from conftest import ball_words, group_monomials, oracle_act_word, word_letters

ALL_GROUPS = tuple(FriezeGroup)
MAX_DEGREE = 4
MAX_PARTS = 4
MAX_ABS_DELTA = 4
RELATION_WINDOW = 5
SYMFUNC_WINDOW = 6
STABILIZER_WORD_LENGTH = 8
RANDOM_WORD_PAIRS = 1000
CLOSURE_CASES = 100


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {text}")
        raise
    print(f"criterion {number}: PASS - {text}")


RELATORS = {
    FriezeGroup.F1: [],
    FriezeGroup.F2: [],
    FriezeGroup.F3: ["v*v", "v*t*v*t"],
    FriezeGroup.F4: ["r*r", "r*t*r*t"],
    FriezeGroup.F5: ["v*v", "v*g*v*g"],
    FriezeGroup.F6: ["h*h", "t*h*t^-1*h^-1"],
    FriezeGroup.F7: ["v*v", "v*t*v*t", "h*h", "t*h*t^-1*h^-1", "v*h*v^-1*h^-1"],
}


def _random_word_element(group, rng, max_letters=6):
    element = identity(group)
    for _ in range(rng.randint(0, max_letters)):
        letter = rng.choice(word_letters(group))
        gen = generator(group, letter.lower())
        element = element * (gen.inverse() if letter.isupper() else gen)
    return element


def test_criterion_1_group_presentations():
    with criterion(1, "relators normalize to identity; action is a homomorphism"):
        for group in ALL_GROUPS:
            for relator in RELATORS[group]:
                assert parse_word(group, relator).is_identity, (group, relator)
            rng = random.Random(100 + ord(group.value[1]))
            monomials = group_monomials(group, 3, 3, range(-2, 2))
            for _ in range(RANDOM_WORD_PAIRS):
                a = _random_word_element(group, rng)
                b = _random_word_element(group, rng)
                m = rng.choice(monomials)
                assert act(a * b, m) == act(a, act(b, m))


def test_criterion_2_orbit_partition():
    with criterion(2, "each monomial lies in exactly one basis expansion"):
        window = 5
        for group in ALL_GROUPS:
            monomials = [
                m
                for m in group_monomials(group, MAX_DEGREE, 3, range(-2, 2))
                if m.span <= 3
            ]
            labels = {index_of_monomial(group, m) for m in monomials}
            owner: dict = {}
            for label in labels:
                for member in expand_basis_function(label, window).monomials():
                    assert member not in owner, (group, member)
                    owner[member] = label
            for m in monomials:
                assert owner[m] == index_of_monomial(group, m), (group, m)


def test_criterion_3_stabilizer_oracle_equivalence():
    with criterion(3, "coset-table stabilizers agree with brute force, words <= 8"):
        for group in ALL_GROUPS:
            words = ball_words(group, STABILIZER_WORD_LENGTH)
            monomials = [
                m
                for m in group_monomials(group, MAX_DEGREE, 4, range(-2, 2))
                if m.span <= 4
            ]
            for m in monomials:
                brute = {
                    element
                    for element, word in words.items()
                    if not element.is_identity and oracle_act_word(group, word, m) == m
                }
                closed = {e for e in stabilizer(group, m) if e in words}
                assert brute == closed, (group, m)


def _raw_labels(group):
    """Raw (non-canonical) labels within desk-scale bounds."""
    from friezeinv.compositions import compositions_of

    labels = []
    parities = (False, True) if group.uses_glide else (False,)
    for degree in range(1, MAX_DEGREE + 1):
        if group.alphabet == "X":
            for shape in compositions_of(degree, MAX_PARTS):
                labels.append(make_index(group, shape))
            continue
        for order_x in range(degree + 1):
            for shape_x in compositions_of(order_x, MAX_PARTS):
                for shape_y in compositions_of(degree - order_x, MAX_PARTS):
                    degenerate = order_x in (0, degree)
                    deltas = (0,) if degenerate else range(-MAX_ABS_DELTA, MAX_ABS_DELTA + 1)
                    for delta in deltas:
                        for primed in parities:
                            labels.append(
                                make_index(group, shape_x, shape_y, delta, primed)
                            )
    return labels


def _fits(index, window) -> bool:
    sup = representative_monomial(index).support()
    return -window <= sup[0] and sup[1] <= window


def _stated_relation_images(index):
    """The equality relations stated for each group, as raw label images."""
    group, sx, sy, delta, primed = (
        index.group, index.shape_x, index.shape_y, index.delta, index.primed,
    )
    m, mp = sx.num_parts, sy.num_parts
    if group is FriezeGroup.F1:
        return []
    if group is FriezeGroup.F3:
        return [make_index(group, sx.reverse())]
    if group is FriezeGroup.F4:
        return [make_index(group, sy.reverse(), sx.reverse(), delta + mp - m)]
    if group is FriezeGroup.F6:
        return [make_index(group, sy, sx, -delta)]
    if group is FriezeGroup.F2:
        images = []
        if sx == sy and delta == 0:
            images.append(make_index(group, sx, sy, 0, not primed))
        # orbit-forced swap: parity class flips exactly when delta is even
        images.append(make_index(group, sy, sx, -delta, primed ^ (delta % 2 == 0)))
        return images
    if group is FriezeGroup.F5:
        # the stated parities assume a nonempty x block; at the degenerate
        # edge the flip is governed by the block that anchors the base
        reversal_flip = (mp if sx.is_empty else m) % 2 == 0
        swap_flip = (m if sy.is_empty else mp + delta) % 2 == 1
        images = [
            # reversal family: parity class flips when par(shape_x) is even
            make_index(
                group, sx.reverse(), sy.reverse(), m - mp - delta,
                primed ^ reversal_flip,
            ),
            # swap family: parity class flips when par(shape_y)+delta is odd
            make_index(
                group, sy.reverse(), sx.reverse(), delta + mp - m,
                primed ^ swap_flip,
            ),
        ]
        if sx == sy and delta == 0:
            images.append(make_index(group, sx, sy, 0, not primed))
        return images
    # F7: the triple of identifications
    return [
        make_index(group, sx.reverse(), sy.reverse(), m - mp - delta),
        make_index(group, sy, sx, -delta),
        make_index(group, sy.reverse(), sx.reverse(), delta + mp - m),
    ]


def test_criterion_4_relation_suite():
    with criterion(4, f"stated label equalities hold exactly at N={RELATION_WINDOW}"):
        for group in ALL_GROUPS:
            cache: dict = {}

            def expansion(index):
                if index not in cache:
                    cache[index] = expand_basis_function(index, RELATION_WINDOW)
                return cache[index]

            checked = 0
            for label in _raw_labels(group):
                for image in _stated_relation_images(label):
                    assert canonical_index(
                        group, label.shape_x, label.shape_y, label.delta, label.primed
                    ) == canonical_index(
                        group, image.shape_x, image.shape_y, image.delta, image.primed
                    ), (group, label, image)
                    if _fits(label, RELATION_WINDOW) and _fits(image, RELATION_WINDOW):
                        assert expansion(label) == expansion(image), (group, label, image)
                        checked += 1
            if group is not FriezeGroup.F1:
                floor = 30 if group.alphabet == "X" else 300
                assert checked >= floor, (group, checked)


def test_criterion_5_symmetric_function_identities():
    with criterion(5, f"e_r/h_r expansions are 0/1 indicators up to r=4, N={SYMFUNC_WINDOW}"):
        margin = 1
        representable_parts = SYMFUNC_WINDOW - margin
        for r in range(1, 5):
            all_indices = enumerate_indices(FriezeGroup.F1, r, representable_parts)

            e_coeffs = expand_in_basis(FriezeGroup.F1, elementary_sym(r, SYMFUNC_WINDOW), margin)
            expected_e = {
                idx: Fraction(1)
                for idx in all_indices
                if all(part <= 1 for part in idx.shape_x.parts)
            }
            assert e_coeffs == expected_e, r

            h_coeffs = expand_in_basis(FriezeGroup.F1, complete_sym(r, SYMFUNC_WINDOW), margin)
            assert h_coeffs == {idx: Fraction(1) for idx in all_indices}, r


def test_criterion_6_module_census():
    with criterion(6, "component census: parity law for F6, count oracle for F1"):
        for degree in (1, 3):
            report = decomposition_census(FriezeGroup.F6, degree, MAX_PARTS, MAX_ABS_DELTA)
            assert report.line == 0, degree
        for degree in (2, 4):
            report = decomposition_census(FriezeGroup.F6, degree, MAX_PARTS, MAX_ABS_DELTA)
            assert report.line > 0, degree

        for degree in range(1, MAX_DEGREE + 1):
            for parts in range(2, 5):
                got = (
                    decomposition_census(FriezeGroup.F1, degree, parts).total
                    - decomposition_census(FriezeGroup.F1, degree, parts - 1).total
                )
                assert got == math.comb(degree + parts - 3, parts - 1), (degree, parts)


def test_criterion_7_invariance_closure():
    with criterion(7, "products and rational combinations stay invariant"):
        window, margin = 5, 1
        for group in ALL_GROUPS:
            rng = random.Random(700 + ord(group.value[1]))
            by_degree = {
                degree: [
                    idx
                    for idx in enumerate_indices(group, degree, 2, 1)
                    if _fits(idx, window)
                ]
                for degree in (1, 2)
            }
            pool = by_degree[1] + by_degree[2]
            expansions = {idx: expand_basis_function(idx, window) for idx in pool}
            for case in range(CLOSURE_CASES):
                if case % 2 == 0:
                    a, b = rng.choice(pool), rng.choice(pool)
                    series = expansions[a] * expansions[b]
                else:
                    degree = rng.choice([d for d, idxs in by_degree.items() if len(idxs) >= 2])
                    a, b = rng.sample(by_degree[degree], 2)
                    series = expansions[a].scale(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    ) + expansions[b].scale(Fraction(rng.randint(1, 5)))
                assert is_invariant(group, series, margin), (group, case, a, b)


def test_criterion_8_projection_compatibility():
    with criterion(8, "projections collapse and commute with interior actions"):
        outer, inner = 5, 3
        for group in ALL_GROUPS:
            rng = random.Random(800 + ord(group.value[1]))
            monomials = [
                m
                for m in group_monomials(group, 3, 3, range(-2, 2))
                if m.support() is not None
                and -inner + 1 <= m.support()[0]
                and m.support()[1] <= inner - 1
            ]
            same_degree = [m for m in monomials if m.degree == 2]
            from friezeinv.series import TruncatedSeries

            series = TruncatedSeries(
                group.alphabet,
                2,
                outer,
                {
                    m: Fraction(rng.randint(1, 5))
                    for m in rng.sample(same_degree, min(6, len(same_degree)))
                },
            )
            assert series.project(4).project(inner) == series.project(inner)
            for gen in generators(group):
                assert act_series(gen, series.project(inner)) == act_series(
                    gen, series
                ).project(inner), (group, gen)
