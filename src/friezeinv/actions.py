"""Group actions on monomials, orbits inside a window, and stabilizers.

The generator actions on variable indices are:

    t: x_i -> x_{i+1}, y_i -> y_{i+1}        (F1, F3, F4, F6, F7)
    g: x_i -> y_{i+1}, y_i -> x_{i+1}        (F2, F5)
    v: x_i -> x_{-i},  y_i -> y_{-i}         (F3, F5, F7)
    h: x_i -> y_i,     y_i -> x_i            (F6, F7)
    r: x_i -> y_{-i},  y_i -> x_{-i}         (F4)

An element in normal form v^a h^b r^c (t|g)^z acts as the composite
v^a o h^b o r^c o (t|g)^z (shift first).  It acts on a normal-form monomial
by integer arithmetic on its blocks.  A block (b, s) holds the variables of
one alphabet, x_{b+1}^{s1} ... x_{b+m}^{sm} for the m parts of the shape s;
a two-alphabet monomial has the x block (base, shape_x) and the y block
(base + delta, shape_y).

  * Base shift: t^z and g^z add z to the base of every block.
  * Block swap: h, r and an odd power of g exchange the x and y blocks;
    swaps combine by XOR.
  * Block reflection: v and r map each block (b, s) to (-b-m-1, rev s).

Swap and reflection commute.  ``_moves`` reads the three moves off an
element, so only it knows that an odd power of g swaps blocks;
``monomials._image`` does the arithmetic on the (base, parts_x, parts_y,
delta) fields a monomial is made of (a one-alphabet monomial is an x block
with an empty y block, and its image keeps only the x block).  The image of
a normal form is a normal form, so images and their translates are built
with a plain ``tuple.__new__``.  An orbit is the set of translates (by t, or by
g^2 for the glide groups) of one image per translate family.  ``_coset_walk``
reads the family key and base of the image under each translation-coset
representative; ``_families`` and ``stabilizer`` read that one walk, and
``monomials._bases_in`` gives the bases of a family inside a window.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .errors import at_least
from .groups import FriezeGroup, GroupElement, generator, identity, shift
from .monomials import ALPHABET_X, Monomial, MonomialX, MonomialXY, _bases_in, _fields, _image


def _moves(element: GroupElement) -> tuple[int, bool, bool]:
    """The element's (shift, reflect, swap) arguments of ``_image``."""
    z = element.power
    swap = element.h ^ element.r ^ (element.group.uses_glide and z % 2 == 1)
    return z, element.v or element.r, swap


def act(element: GroupElement, monomial: Monomial) -> Monomial:
    """Image of a monomial of the alphabet the element's group acts on."""
    cls = MonomialX if element.group.alphabet == ALPHABET_X else MonomialXY
    if not isinstance(monomial, cls):
        raise TypeError(f"{element.group} acts on {cls.__name__} monomials")
    image = _image(*_fields(monomial), *_moves(element))
    return tuple.__new__(cls, image[: len(monomial)])


@lru_cache(maxsize=None)
def translation_coset_representatives(group: FriezeGroup) -> tuple[GroupElement, ...]:
    """Coset representatives of the translation subgroup (t, or g^2 for the
    glide groups): the products of the subsets of the group's commuting flag
    generators, and for the glide groups each of them also followed by g."""
    reps = (identity(group),)
    for letter in "vhr":
        if letter in group.flag_letters:
            flag = generator(group, letter)
            reps += tuple(rep * flag for rep in reps)
    if not group.uses_glide:
        return reps
    return tuple(rep * shift(group, parity) for rep in reps for parity in (0, 1))


@lru_cache(maxsize=None)
def _coset_moves(group: FriezeGroup) -> tuple[tuple[int, bool, bool], ...]:
    """The ``_moves`` of the translation-coset representatives."""
    return tuple(_moves(rep) for rep in translation_coset_representatives(group))


def _family_key(monomial: Monomial, glide: bool) -> tuple:
    """What the translates of a monomial share: all but the base, and for the
    glide groups, whose translations are powers of g^2, the base parity."""
    return (glide and monomial[0] % 2, *monomial[1:])


def _coset_walk(group: FriezeGroup, monomial: Monomial) -> list[tuple[tuple, int]]:
    """The (``_family_key``, base) of the monomial's image under each translation-coset
    representative, in coset-table order, so the first is the monomial's own."""
    cls = MonomialX if group.alphabet == ALPHABET_X else MonomialXY
    if not isinstance(monomial, cls):
        raise TypeError(f"{group} acts on {cls.__name__} monomials")
    fields, size, glide = _fields(monomial), len(monomial), group.uses_glide
    images = (_image(*fields, *move)[:size] for move in _coset_moves(group))
    return [(_family_key(image, glide), image[0]) for image in images]


def _families(group: FriezeGroup, monomial: Monomial) -> list[Monomial]:
    """One image per translate family of the monomial's orbit, in coset-table
    order, so the first is the monomial itself.  Coset images with one
    ``_family_key`` are translates of each other, so the walk's first base per
    key is kept, and only those images are built."""
    bases: dict[tuple, int] = {}
    for key, base in _coset_walk(group, monomial):
        bases.setdefault(key, base)
    return [tuple.__new__(type(monomial), (base, *key[1:])) for key, base in bases.items()]


def _orbit_members(group: FriezeGroup, monomial: Monomial, window: int) -> Iterator[Monomial]:
    """The images of the monomial supported in [-window, window]: each ``_families`` image's
    translates in turn, bases ascending, sharing its part tuples.  A glide group's translate
    family can so come as two runs, one per base parity."""
    window = at_least(window, 0, "window")
    step, new, cls = (2 if group.uses_glide else 1), tuple.__new__, type(monomial)
    for image in _families(group, monomial):
        base, rest = image[0], image[1:]
        fit = _bases_in(rest, window)
        # the least base in the range that a translation (a multiple of step) reaches
        start = fit.start + (base - fit.start) % step
        yield from (new(cls, (b,) + rest) for b in range(start, fit.stop, step))


def orbit_in_window(group: FriezeGroup, monomial: Monomial, window: int) -> set[Monomial]:
    """All images of the monomial supported in [-window, window]: ``_orbit_members``."""
    return set(_orbit_members(group, monomial, window))


def stabilizer(group: FriezeGroup, monomial: Monomial) -> tuple[GroupElement, ...]:
    """The non-identity elements fixing the monomial, read off the coset table.

    A translation coset holds a fixing element exactly when the image of the
    monomial under its representative has the monomial's ``_family_key``: the
    representative followed by the translation by the base difference.  A
    translation moves the base, so no other element of the coset fixes the
    monomial, and the tuple has at most three entries (only F7 can reach
    three).  Empty tuple == trivial stabilizer.
    """
    if monomial.is_unit:
        raise ValueError("stabilizer is only defined for nonunit monomials")
    (key, base), *walk = _coset_walk(group, monomial)
    reps = translation_coset_representatives(group)[1:]
    found = [shift(group, base - b) * rep for rep, (k, b) in zip(reps, walk) if k == key]
    return tuple(sorted(found, key=GroupElement.sort_key))
