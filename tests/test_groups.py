import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from friezeinv import (
    FriezeGroup,
    GroupElement,
    act,
    format_word,
    generator,
    generators,
    identity,
    normal_form_x,
    parse_word,
    shift,
)
from friezeinv.errors import ParseError

F1, F2, F3, F4, F5, F6, F7 = FriezeGroup

# defining relators of each presentation, as generator words
RELATORS = {
    F1: [],
    F2: [],
    F3: ["v*v", "v*t*v*t"],
    F4: ["r*r", "r*t*r*t"],
    F5: ["v*v", "v*g*v*g"],
    F6: ["h*h", "t*h*t^-1*h^-1"],
    F7: ["v*v", "v*t*v*t", "h*h", "t*h*t^-1*h^-1", "v*h*v^-1*h^-1"],
}


@pytest.mark.parametrize(
    "group,relator", [(g, w) for g, words in RELATORS.items() for w in words]
)
def test_relators_normalize_to_identity(group, relator):
    assert parse_word(group, relator).is_identity


def test_groups_are_singletons_so_identity_hashing_is_sound():
    # FriezeGroup hashes by identity, which agrees with equality only because
    # every copy, pickle and lookup of a member gives the member itself
    for group in FriezeGroup:
        twins = [copy.copy(group), copy.deepcopy(group), FriezeGroup(group.value),
                 FriezeGroup[group.name]]
        twins += [pickle.loads(pickle.dumps(group, protocol)) for protocol in range(6)]
        assert all(twin is group and hash(twin) == hash(group) for twin in twins)
    element = parse_word(F7, "v*h*t^2")
    assert pickle.loads(pickle.dumps(element)) == element
    assert hash(pickle.loads(pickle.dumps(element))) == hash(element)


def test_tampered_elements_are_rejected_by_copy_and_pickle():
    # copy and pickle go through the checked constructor, as for labels
    tampered = GroupElement(F1)
    object.__setattr__(tampered, "v", True)
    for protocol in range(6):
        with pytest.raises(ValueError, match="no generator 'v'"):
            pickle.loads(pickle.dumps(tampered, protocol))
    for clone in (copy.copy, copy.deepcopy):
        with pytest.raises(ValueError, match="no generator 'v'"):
            clone(tampered)
    element = parse_word(F7, "v*h*t^-2")
    twins = [pickle.loads(pickle.dumps(element, protocol)) for protocol in range(6)]
    assert all(twin == element for twin in [*twins, copy.copy(element), copy.deepcopy(element)])


def test_power_must_be_an_integer():
    # a float power would give monomials with float bases
    for power in (1.5, 1.0, "1", Fraction(1)):
        with pytest.raises(TypeError):
            GroupElement(F1, power=power)
    with pytest.raises(TypeError):
        act(GroupElement(F1, power=1.5), normal_form_x({1: 1}))
    power = GroupElement(F1, power=True).power
    assert power == 1 and type(power) is int
    # an involution and a shift, each raised to a float or a Fraction
    for element in (generator(F3, "v"), generator(F3, "t")):
        for exponent in (1.5, 3.0, Fraction(3), Fraction(1, 2)):
            with pytest.raises(TypeError):
                element**exponent


def test_multiplication_examples():
    assert parse_word(F3, "v*t^2") * parse_word(F3, "v*t^3") == shift(F3, 1)
    assert shift(F1, 2) * shift(F1, 3) == shift(F1, 5)
    vht = parse_word(F7, "v*h*t")
    assert (vht * vht).is_identity


def test_inverse_examples():
    assert shift(F1, 3).inverse() == shift(F1, -3)
    vt2 = parse_word(F3, "v*t^2")
    assert vt2.inverse() == vt2
    assert (vt2 * vt2).is_identity
    ht = parse_word(F6, "h*t")
    assert ht.inverse() == parse_word(F6, "h*t^-1")


def _random_element(group: FriezeGroup, rng: random.Random) -> GroupElement:
    flags = {letter: rng.random() < 0.5 for letter in group.flag_letters}
    return GroupElement(
        group,
        v=flags.get("v", False),
        h=flags.get("h", False),
        r=flags.get("r", False),
        power=rng.randint(-6, 6),
    )


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_group_axioms_random(group):
    rng = random.Random(20240 + ord(group.value[1]))
    e = identity(group)
    for _ in range(200):
        a, b, c = (_random_element(group, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * e == e * a == a
        assert (a * a.inverse()).is_identity
        assert (a.inverse() * a).is_identity


def test_powers():
    g = generator(F2, "g")
    assert g**2 == shift(F2, 2)
    assert g**-3 == shift(F2, -3)
    assert (parse_word(F3, "v*t") ** 2).is_identity
    assert (generator(F7, "v") ** 0).is_identity


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_power_closed_form_matches_repeated_product(group):
    rng = random.Random(777 + ord(group.value[1]))
    for _ in range(20):
        element = _random_element(group, rng)
        for n in range(-12, 13):
            step = element if n >= 0 else element.inverse()
            expected = identity(group)
            for _ in range(abs(n)):
                expected = expected * step
            assert element**n == expected


def test_huge_powers_parse_at_once():
    start = time.perf_counter()
    assert parse_word(F1, "t^3000000") == shift(F1, 3000000)
    assert parse_word(F6, "h^3000001*t^-3000000") == GroupElement(F6, h=True, power=-3000000)
    assert parse_word(F5, "r^3000001") == generator(F5, "r")
    # repeated multiplication took seconds here; the closed form takes microseconds
    assert time.perf_counter() - start < 1.0


def test_mixed_group_multiplication_rejected():
    with pytest.raises(ValueError):
        shift(F1, 1) * shift(F2, 1)


def test_flag_validation():
    with pytest.raises(ValueError):
        GroupElement(F1, v=True)
    with pytest.raises(ValueError):
        GroupElement(F6, r=True)
    GroupElement(F7, v=True, h=True)


def test_flags_are_stored_as_bools():
    # v=2 would square to v=4 and print as v, although v^2 = 1
    assert (GroupElement(F7, v=1) * generator(F7, "v")).is_identity
    element = GroupElement(F7, v=1, h=1)
    assert element == GroupElement(F7, v=True, h=True) and str(element) == "v*h"
    assert all(type(flag) is bool for flag in (element.v, element.h, element.r))
    assert type(GroupElement(F4, r=True, power=2).r) is bool
    for letter in "vhr":
        with pytest.raises(ValueError, match=f"^{letter} must be 0 or 1$"):
            GroupElement(F7, **{letter: 2})
        with pytest.raises(TypeError):
            GroupElement(F3, **{letter: 0.5})
    with pytest.raises(TypeError):
        GroupElement(F3, v=1.0)


def test_generators_listing():
    assert [str(g) for g in generators(F7)] == ["t", "v", "h"]
    assert [str(g) for g in generators(F5)] == ["g", "v"]


def test_derived_rotations():
    # r = v*h in F7, r = v*g in F5
    assert generator(F7, "r") == parse_word(F7, "v*h")
    assert generator(F5, "r") == parse_word(F5, "v*g")
    with pytest.raises(ValueError):
        generator(F3, "r")
    with pytest.raises(ValueError):
        generator(F2, "t")


@pytest.mark.parametrize("group", list(FriezeGroup), ids=lambda g: g.value)
def test_word_roundtrip(group):
    rng = random.Random(7 + ord(group.value[1]))
    for _ in range(50):
        element = _random_element(group, rng)
        assert parse_word(group, format_word(element)) == element


def test_word_parse_examples():
    assert parse_word(F3, "v*t^-2") == GroupElement(F3, v=True, power=-2)
    assert parse_word(F3, "v t^-2") == GroupElement(F3, v=True, power=-2)
    assert parse_word(F6, "1").is_identity
    assert format_word(identity(F4)) == "1"
    assert format_word(GroupElement(F5, v=True, power=1)) == "v*g"


@pytest.mark.parametrize("text", ["", "x", "t^", "t^2.5"])
def test_word_parse_errors(text):
    with pytest.raises(ParseError):
        parse_word(F3, text)


def test_overlong_word_exponent_is_a_positioned_parse_error():
    long = "1" * 5000  # past the interpreter's 4,300-digit limit for int(str)
    for text, position in ((f"t^{long}", 0), (f"v * t^-{long}", 4)):
        with pytest.raises(ParseError, match="an integer of 5000 digits is too long") as info:
            parse_word(F3, text)
        assert info.value.position == position


def test_bad_word_token_is_quoted_by_a_bounded_prefix():
    with pytest.raises(ParseError) as info:
        parse_word(F3, "v*" + "q" * 5000)
    assert str(info.value) == "at position 2: bad generator token '" + "q" * 39 + "..."


def test_word_parse_rejects_foreign_generator():
    with pytest.raises(ParseError):
        parse_word(F1, "v")
    with pytest.raises(ParseError):
        parse_word(F6, "g")
