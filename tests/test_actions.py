import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezeinv import (
    ALPHABET_X,
    FriezeGroup,
    GroupElement,
    MonomialX,
    MonomialXY,
    UNIT_X,
    act,
    composition,
    enumerate_indices,
    generator,
    normal_form_x,
    normal_form_xy,
    orbit_in_window,
    representative_monomial,
    shift,
    stabilizer,
)
from friezeinv.actions import (
    _families,
    orbit_coset_representatives,
    translation_coset_representatives,
)
from friezeinv.monomials import fits_window
from conftest import (
    ball_words,
    brute_orbit_in_window,
    group_monomials,
    oracle_act_word,
)

F1, F2, F3, F4, F5, F6, F7 = FriezeGroup


# ---------------------------------------------------------------------------
# closed-form image oracles for the generator actions on normal forms,
# valid when both blocks are nonempty
# ---------------------------------------------------------------------------

def closed_v_x(m: MonomialX) -> MonomialX:
    return MonomialX(-m.base - m.shape.num_parts - 1, m.shape.reverse())


def closed_v_xy(m: MonomialXY) -> MonomialXY:
    mm, mp = m.shape_x.num_parts, m.shape_y.num_parts
    return MonomialXY(
        -m.base - mm - 1, m.shape_x.reverse(), m.shape_y.reverse(), mm - mp - m.delta
    )


def closed_h(m: MonomialXY) -> MonomialXY:
    return MonomialXY(m.base + m.delta, m.shape_y, m.shape_x, -m.delta)


def closed_g(m: MonomialXY) -> MonomialXY:
    return MonomialXY(m.base + m.delta + 1, m.shape_y, m.shape_x, -m.delta)


def closed_r(m: MonomialXY) -> MonomialXY:
    mm, mp = m.shape_x.num_parts, m.shape_y.num_parts
    dp = m.delta + mp - mm
    j = -m.base - mm - 1
    return MonomialXY(j - dp, m.shape_y.reverse(), m.shape_x.reverse(), dp)


def closed_glide_rotation(m: MonomialXY) -> MonomialXY:
    # the x block of the image starts at j+1+dp, so the new base is j+dp
    mm, mp = m.shape_x.num_parts, m.shape_y.num_parts
    dp = mm - mp - m.delta
    j = -m.base - mm - 2
    return MonomialXY(j + dp, m.shape_y.reverse(), m.shape_x.reverse(), -dp)


def _random_xy_two_block(rng: random.Random) -> MonomialXY:
    def block():
        width = rng.randint(1, 3)
        start = rng.randint(-3, 3)
        exps = {start + j: rng.randint(0, 2) for j in range(width)}
        exps[start] = max(exps[start], 1)
        exps[start + width - 1] = max(exps[start + width - 1], 1)
        return exps

    return normal_form_xy(block(), block())


def test_act_one_alphabet_examples():
    t = generator(F1, "t")
    m = MonomialX(0, composition(1, 0, 2))
    assert act(t, m) == MonomialX(1, composition(1, 0, 2))

    v = generator(F3, "v")
    image = act(v, MonomialX(0, composition(2, 1)))
    assert image == MonomialX(-3, composition(1, 2))
    assert image == closed_v_x(MonomialX(0, composition(2, 1)))

    assert act(shift(F1, 0), m) == m


def test_act_two_alphabet_examples():
    h = generator(F6, "h")
    m = MonomialXY(0, composition(1), composition(2), 1)
    assert act(h, m) == MonomialXY(1, composition(2), composition(1), -1)

    g = generator(F2, "g")
    assert act(g, normal_form_xy({1: 1}, {})) == normal_form_xy({}, {2: 1})

    m2 = _random_xy_two_block(random.Random(0))
    assert act(shift(F4, 0), m2) == m2


@pytest.mark.parametrize(
    "group,letter,oracle",
    [
        (F5, "v", closed_v_xy),
        (F7, "v", closed_v_xy),
        (F6, "h", closed_h),
        (F7, "h", closed_h),
        (F2, "g", closed_g),
        (F5, "g", closed_g),
        (F4, "r", closed_r),
        (F5, "r", closed_glide_rotation),
    ],
)
def test_generator_actions_match_closed_forms(group, letter, oracle):
    rng = random.Random(hash((group.value, letter)) & 0xFFFF)
    gen = generator(group, letter)
    for _ in range(200):
        m = _random_xy_two_block(rng)
        assert act(gen, m) == oracle(m)


# exponent maps over a small index range: empty maps give the unit and one
# empty map a pure-x or pure-y monomial; the y block may start on either side
exponent_maps = st.dictionaries(st.integers(-8, 8), st.integers(0, 3), max_size=5)


@st.composite
def elements_and_monomials(draw):
    group = draw(st.sampled_from(list(FriezeGroup)))
    flags = {letter: draw(st.booleans()) for letter in sorted(group.flag_letters)}
    element = GroupElement(group, power=draw(st.integers(-9, 9)), **flags)
    if group.alphabet == ALPHABET_X:
        return element, normal_form_x(draw(exponent_maps))
    return element, normal_form_xy(draw(exponent_maps), draw(exponent_maps))


def letter_word(element: GroupElement) -> str:
    """The normal form v^a h^b r^c s^z spelled out letter by letter."""
    flags = "".join(letter for letter in "vhr" if getattr(element, letter))
    letter = element.group.shift_letter
    power = element.power
    return flags + (letter * power if power >= 0 else letter.upper() * -power)


@settings(max_examples=1500, deadline=None)
@given(elements_and_monomials())
def test_act_matches_letter_oracle(case):
    element, monomial = case
    image = act(element, monomial)
    expected = oracle_act_word(element.group, letter_word(element), monomial)
    assert type(image) is type(expected)
    assert image == expected


def _renormalized(monomial):
    if isinstance(monomial, MonomialX):
        return normal_form_x(monomial.exponents())
    return normal_form_xy(*monomial.exponents())


@settings(max_examples=500, deadline=None)
@given(elements_and_monomials(), st.integers(0, 4))
def test_images_and_translates_are_normal_forms(case, window):
    """act and orbit_in_window build their results without the constructor's
    checks; each result must still be the normal form of its own exponents."""
    element, monomial = case
    for image in [act(element, monomial), *orbit_in_window(element.group, monomial, window)]:
        expected = _renormalized(image)
        assert type(image) is type(expected)
        assert image == expected and hash(image) == hash(expected), image


@settings(max_examples=500, deadline=None)
@given(exponent_maps, exponent_maps)
def test_support_matches_exponents(xs, ys):
    for monomial in (normal_form_x(xs), normal_form_xy(xs, ys)):
        exps = monomial.exponents()
        indices = list(exps) if isinstance(monomial, MonomialX) else [*exps[0], *exps[1]]
        expected = (min(indices), max(indices)) if indices else None
        assert monomial.support() == expected


def test_wrong_group_rejected():
    with pytest.raises(TypeError):
        act(generator(F6, "h"), MonomialX(0, composition(1)))
    with pytest.raises(TypeError):
        act(generator(F3, "v"), MonomialXY(0, composition(1), composition(1), 0))


def test_orbit_rejects_a_monomial_of_the_other_alphabet():
    # x[1] in one alphabet has the fields of a pure-x monomial in two
    for group, monomial in (
        (F6, normal_form_x({1: 1})),
        (F3, normal_form_xy({1: 1}, {})),
        (F2, UNIT_X),
    ):
        with pytest.raises(TypeError, match="acts on"):
            orbit_in_window(group, monomial, 2)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_involutions_square_to_identity_on_monomials(group, any_sample_size=40):
    rng = random.Random(11 + ord(group.value[1]))
    monomials = group_monomials(group, 3, 3, range(-2, 2))
    involutions = [letter for letter in ("v", "h", "r") if letter in group.flag_letters]
    if group is F7:
        involutions.append("r")
    if group is F5:
        involutions.append("r")
    for letter in involutions:
        gen = generator(group, letter)
        for m in rng.sample(monomials, min(any_sample_size, len(monomials))):
            assert act(gen, act(gen, m)) == m


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_action_is_homomorphism(group):
    rng = random.Random(1000 + ord(group.value[1]))
    monomials = group_monomials(group, 3, 3, range(-2, 2))
    for _ in range(300):
        a = GroupElement(
            group,
            v="v" in group.flag_letters and rng.random() < 0.5,
            h="h" in group.flag_letters and rng.random() < 0.5,
            r="r" in group.flag_letters and rng.random() < 0.5,
            power=rng.randint(-5, 5),
        )
        b = GroupElement(
            group,
            v="v" in group.flag_letters and rng.random() < 0.5,
            h="h" in group.flag_letters and rng.random() < 0.5,
            r="r" in group.flag_letters and rng.random() < 0.5,
            power=rng.randint(-5, 5),
        )
        m = rng.choice(monomials)
        assert act(a * b, m) == act(a, act(b, m))
        assert act(a, m).degree == m.degree


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_distinct_normal_forms_act_differently(group):
    """Normal-form uniqueness at desk scale: different elements are told apart
    by their action on some small monomial."""
    elements = list(ball_words(group, 5))
    monomials = group_monomials(group, 2, 2, range(-1, 1))
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            assert any(act(a, m) != act(b, m) for m in monomials), (a, b)


def test_orbit_examples():
    orb = orbit_in_window(F1, normal_form_x({1: 1}), 2)
    assert orb == {normal_form_x({i: 1}) for i in range(-2, 3)}

    orb3 = orbit_in_window(F3, normal_form_x({1: 2, 2: 1}), 2)
    assert orb3 == brute_orbit_in_window(F3, normal_form_x({1: 2, 2: 1}), 2)
    assert len(orb3) == 8

    orb6 = orbit_in_window(F6, normal_form_xy({1: 1}, {2: 1}), 1)
    assert orb6 == {
        normal_form_xy({-1: 1}, {0: 1}),
        normal_form_xy({0: 1}, {1: 1}),
        normal_form_xy({0: 1}, {-1: 1}),
        normal_form_xy({1: 1}, {0: 1}),
    }


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_orbit_matches_brute_force(group):
    rng = random.Random(400 + ord(group.value[1]))
    monomials = group_monomials(group, 3, 3, range(-2, 2))
    for m in rng.sample(monomials, 25):
        for window in (0, 1, 2, 3, 4):
            assert orbit_in_window(group, m, window) == brute_orbit_in_window(
                group, m, window
            )


def _labelled_monomials(group):
    """The representative of every label of the group at degree <= 4, with at
    most 3 parts and |delta| <= 2, and one other orbit member of each."""
    out = []
    for degree in range(1, 5):
        for index in enumerate_indices(group, degree, 3, 2):
            rep = representative_monomial(index)
            out += [rep, act(translation_coset_representatives(group)[-1], rep)]
    return out


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_families_obey_the_rank_law(group):
    # the stabilizer meets the translations trivially, so the coset images of
    # a monomial fall into |G/T| / |stabilizer| translate families
    cosets = len(translation_coset_representatives(group))
    for monomial in _labelled_monomials(group):
        families = _families(group, monomial)
        assert len(families) * (1 + len(stabilizer(group, monomial))) == cosets, monomial
        assert families[0] == monomial


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_translates_of_the_families_are_the_orbit(group):
    step = 2 if group.uses_glide else 1
    for monomial in _labelled_monomials(group):
        families = _families(group, monomial)
        for window in (2, 4):
            translates = {
                tuple.__new__(type(image), (image.base + z, *image[1:]))
                for image in families
                for z in range(-2 * window - 8, 2 * window + 8, step)
            }
            in_window = {m for m in translates if fits_window(m, window)}
            assert in_window == brute_orbit_in_window(group, monomial, window), monomial
            assert orbit_in_window(group, monomial, window) == in_window, monomial


def test_orbit_rejects_negative_window():
    with pytest.raises(ValueError):
        orbit_in_window(F1, normal_form_x({0: 1}), -1)


def test_stabilizer_examples():
    elems = stabilizer(F3, MonomialX(0, composition(1, 2, 1)))
    assert [str(e) for e in elems] == ["v*t^-4"]
    assert act(elems[0], MonomialX(0, composition(1, 2, 1))) == MonomialX(
        0, composition(1, 2, 1)
    )

    diag = MonomialXY(0, composition(2), composition(2), 0)
    assert [str(e) for e in stabilizer(F6, diag)] == ["h"]

    assert stabilizer(F1, normal_form_x({3: 2})) == ()
    with pytest.raises(ValueError):
        stabilizer(F1, normal_form_x({}))


def test_stabilizer_f7_order_four():
    m = MonomialXY(0, composition(1, 1), composition(1, 1), 0)
    elems = stabilizer(F7, m)
    assert len(elems) == 3
    for e in elems:
        assert act(e, m) == m
    # the three nontrivial elements together with 1 are closed under product
    assert elems[0] * elems[1] in elems or elems[0] * elems[1] == elems[2]


def _oracle_word(element: GroupElement) -> str:
    """A letter word for the normal form v^a h^b r^c (t|g)^z (shift first)."""
    letter = element.group.shift_letter
    flags = "v" * element.v + "h" * element.h + "r" * element.r
    power = element.power
    return flags + (letter * power if power >= 0 else letter.upper() * -power)


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_stabilizer_matches_brute_force(group):
    """Coset-table stabilizer vs exhaustive words (small scope; the acceptance
    suite runs the full sweep).  On translates with |base| up to 40, beyond
    the word ball, every returned element must fix the monomial letter by
    letter, and the stabilizer of a shifted monomial is the conjugate one."""
    words = ball_words(group, 8)
    monomials = group_monomials(group, 3, 3, range(-2, 2))
    rng = random.Random(900 + ord(group.value[1]))
    for m in rng.sample(monomials, 30):
        brute = {
            element
            for element, word in words.items()
            if not element.is_identity and oracle_act_word(group, word, m) == m
        }
        elements = stabilizer(group, m)
        closed = {e for e in elements if e in words}
        assert brute == closed, (m, sorted(map(str, brute)), sorted(map(str, closed)))
        for z in (-40, -33, -8, 17, 29, 40):
            s = shift(group, z)
            image = oracle_act_word(group, _oracle_word(s), m)
            far = stabilizer(group, image)
            for e in far:
                assert oracle_act_word(group, _oracle_word(e), image) == image, (image, str(e))
            assert set(far) == {s * e * s.inverse() for e in elements}, (m, z)


@pytest.mark.parametrize(
    "group, flags",
    [
        (FriezeGroup.F1, {"1"}),
        (FriezeGroup.F2, {"1"}),
        (FriezeGroup.F3, {"1", "v"}),
        (FriezeGroup.F4, {"1", "r"}),
        (FriezeGroup.F5, {"1", "v"}),
        (FriezeGroup.F6, {"1", "h"}),
        (FriezeGroup.F7, {"1", "v", "h", "v*h"}),
    ],
)
def test_orbit_coset_representatives(group, flags):
    reps = orbit_coset_representatives(group)
    assert len(reps) == len(flags)
    assert {str(rep) for rep in reps} == flags
