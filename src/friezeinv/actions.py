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
g^2 for the glide groups) of one image per translate family, which
``_families`` picks from the images under the translation-coset representatives.
"""

from __future__ import annotations

from functools import lru_cache

from .groups import FriezeGroup, GroupElement, generator, identity, shift
from .monomials import ALPHABET_X, Monomial, MonomialX, MonomialXY, _fields, _image


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
def orbit_coset_representatives(group: FriezeGroup) -> tuple[GroupElement, ...]:
    """Coset representatives of the cyclic shift subgroup; the orbit of a
    monomial is the union of the shift-orbits of their images.

    They are the products of the subsets of the group's commuting flag
    generators."""
    reps = (identity(group),)
    for letter in "vhr":
        if letter in group.flag_letters:
            flag = generator(group, letter)
            reps += tuple(rep * flag for rep in reps)
    return reps


@lru_cache(maxsize=None)
def translation_coset_representatives(group: FriezeGroup) -> tuple[GroupElement, ...]:
    """Coset representatives of the translation subgroup (t, or g^2 for the
    glide groups).  For the glide groups this additionally splits each shift
    coset by the parity of the glide power."""
    reps = orbit_coset_representatives(group)
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


def _families(group: FriezeGroup, monomial: Monomial) -> list[Monomial]:
    """One image per translate family of the monomial's orbit, in coset-table
    order, so the first is the monomial itself.  Coset images with one
    ``_family_key`` are translates of each other, and only the first is kept."""
    cls = MonomialX if group.alphabet == ALPHABET_X else MonomialXY
    if not isinstance(monomial, cls):
        raise TypeError(f"{group} acts on {cls.__name__} monomials")
    fields, glide, size = _fields(monomial), group.uses_glide, len(monomial)
    families: dict[tuple, Monomial] = {}
    for move in _coset_moves(group):
        image = tuple.__new__(cls, _image(*fields, *move)[:size])
        families.setdefault(_family_key(image, glide), image)
    return list(families.values())


def orbit_in_window(group: FriezeGroup, monomial: Monomial, window: int) -> set[Monomial]:
    """All images of the monomial whose support lies entirely in [-window, window]."""
    if window < 0:
        raise ValueError("window must be non-negative")
    families = _families(group, monomial)
    if monomial.is_unit:
        return {monomial}
    step, new, cls = (2 if group.uses_glide else 1), tuple.__new__, type(monomial)
    out: set[Monomial] = set()
    for image in families:
        base, rest = image[0], image[1:]
        lo, hi = image.support()
        # translating by z moves the support to [lo+z, hi+z]; z is a multiple of step
        first = -window - lo
        first += first % step
        out.update(new(cls, (base + z,) + rest) for z in range(first, window - hi + 1, step))
    return out


def stabilizer(group: FriezeGroup, monomial: Monomial) -> tuple[GroupElement, ...]:
    """The non-identity elements fixing the monomial, read off the coset table.

    A power of the shift generator moves the support by its exponent, so each
    coset of the shift subgroup holds at most one fixing element: the
    representative followed by the shift that carries the image's support back
    onto the monomial's.  The tuple therefore has at most three entries (only
    F7 can reach three).  Empty tuple == trivial stabilizer.
    """
    if monomial.is_unit:
        raise ValueError("stabilizer is only defined for nonunit monomials")
    found = []
    for rep in orbit_coset_representatives(group)[1:]:
        lo = act(rep, monomial).support()[0]
        element = shift(group, monomial.support()[0] - lo) * rep
        if act(element, monomial) == monomial:
            found.append(element)
    return tuple(sorted(found, key=GroupElement.sort_key))
