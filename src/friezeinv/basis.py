"""Canonical labels for the orbit-sum invariant functions and their expansions.

Every nonunit monomial lies in exactly one group orbit, and each orbit gives
one invariant function: the formal sum of the orbit's distinct monomials with
coefficient 1.  A BasisIndex is the canonical name of such an orbit: shapes,
y-offset and (for the two glide groups) a parity class telling whether the
representative's base index is even (unprimed) or odd (primed).

Several raw labels can name the same orbit (reversal for F3, shape swaps with
an offset adjustment for F4/F6/F7, the parity-coupled swap families for
F2/F5).  The canonical label has the least key (primed, shape_x parts,
shape_y parts, delta) over the images of a representative under the
translation-coset representatives; ``index_of_monomial`` computes it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import product

from .actions import _coset_moves, _orbit_members
from .compositions import EMPTY, Composition, _unchecked, compositions_of, parse_composition
from .errors import ParseError, as_flag, at_least, quote, read_int
from .groups import FriezeGroup
from .monomials import ALPHABET_X, Monomial, MonomialX, MonomialXY, _fields, _image, fits_window
from .series import TruncatedSeries, _invariant_interior


class BasisIndex(tuple):
    """The tuple (primed, parts_x, parts_y, delta, group): it equals and orders like
    that plain tuple, never a monomial or a label of another group.  The constructor
    checks ``Composition`` shapes, and copy and pickle rebuild labels through it."""

    __slots__ = ()

    primed = property(operator.itemgetter(0))
    shape_x = property(lambda self: _unchecked(self[1]))
    shape_y = property(lambda self: _unchecked(self[2]))
    delta = property(operator.itemgetter(3))
    group = property(operator.itemgetter(4))

    def __new__(
        cls, group: FriezeGroup, shape_x: Composition, shape_y: Composition = EMPTY,
        delta: int = 0, primed: bool = False,
    ) -> "BasisIndex":
        # a composition has order 0 exactly when it has no parts
        x, y, delta = shape_x.parts, shape_y.parts, operator.index(delta)
        if not (x or y):
            raise ValueError("basis labels require total order >= 1")
        if group.alphabet == ALPHABET_X:
            if y or delta != 0:
                raise ValueError(f"{group} labels carry a single shape")
        elif not (x and y) and delta != 0:
            raise ValueError("delta must be 0 when either shape has order 0")
        primed = as_flag(primed, "primed")
        if primed and not group.uses_glide:
            raise ValueError(f"{group} labels have no parity class")
        return tuple.__new__(cls, (primed, x, y, delta, group))

    def __reduce__(self) -> tuple:  # every protocol, not only 2 up as __getnewargs__
        return type(self), (self.group, self.shape_x, self.shape_y, self.delta, self.primed)

    @property
    def degree(self) -> int:
        return sum(self[1]) + sum(self[2])

    def sort_key(self) -> tuple:
        """The order on labels: the canonical label is the least, listings are sorted."""
        return self[:4]

    def __str__(self) -> str:
        return format_basis_label(self)


def make_index(
    group: FriezeGroup,
    shape_x: Composition,
    shape_y: Composition = EMPTY,
    delta: int = 0,
    primed: bool = False,
) -> BasisIndex:
    """Build a (possibly non-canonical) label, normalizing the degenerate
    offset: when either shape has order 0 all offsets name the same function,
    so delta collapses to 0."""
    two_blocks = shape_x.parts and shape_y.parts
    return BasisIndex(group, shape_x, shape_y, delta if two_blocks else 0, primed)


def representative_monomial(index: BasisIndex) -> Monomial:
    """The orbit member the label abbreviates: base 0, or base -1 when primed.
    A valid label's fields are a normal form, so it is built unchecked."""
    fields = (-1 if index[0] else 0, *index[1:4])
    one = index[4].alphabet == ALPHABET_X
    return tuple.__new__(MonomialX, fields[:2]) if one else tuple.__new__(MonomialXY, fields)


def index_of_monomial(group: FriezeGroup, monomial: Monomial) -> BasisIndex:
    """The basis label of the monomial's orbit, the least key over its coset images: a normal
    form is its own identity image (the first move), so ``_image`` runs for the others only."""
    (base, px, py, delta), glide = _fields(monomial), group.uses_glide
    if not (px or py):
        raise ValueError("the unit monomial has no basis label")
    least = (glide and base % 2 == 1, px, py, delta)
    for shift, reflect, swap in _coset_moves(group)[1:]:
        b, x, y, d = _image(base, px, py, delta, shift, reflect, swap)
        if (key := (glide and b % 2 == 1, x, y, d)) < least:
            least = key
    return tuple.__new__(BasisIndex, (*least, group))


def canonical_index(
    group: FriezeGroup,
    shape_x: Composition,
    shape_y: Composition = EMPTY,
    delta: int = 0,
    primed: bool = False,
) -> BasisIndex:
    """Canonical representative of the label's equivalence class."""
    raw = make_index(group, shape_x, shape_y, delta, primed)
    return index_of_monomial(group, representative_monomial(raw))


def enumerate_indices(
    group: FriezeGroup,
    degree: int,
    max_parts: int,
    max_abs_delta: int = 0,
) -> list[BasisIndex]:
    """All canonical labels of the given degree whose shapes have at most
    ``max_parts`` parts and whose offset satisfies |delta| <= max_abs_delta,
    in deterministic order.

    Each raw label inside the bounds is canonicalized once and kept when it is its own
    canonical form (orderly generation); that is idempotent and each canonical label
    inside the bounds is such a raw label, so each orbit is listed once, in plain tuple
    order (``sort_key`` order for distinct labels of one group).  The bounds apply to the
    canonical label, so an F4, F5 or F7 orbit with a raw label inside them can
    be missing: x[1] y[1] y[3] has delta 0 but is f7[(1),(1,0,1);Δ=-2]."""
    degree, max_parts = at_least(degree, 1, "degree"), at_least(max_parts, 1, "max_parts")
    max_abs_delta = at_least(max_abs_delta, 0, "max_abs_delta")
    # one alphabet is the case order_x == degree: empty y shape, no offset
    orders = range(degree + 1) if group.alphabet != ALPHABET_X else (degree,)
    parities = ((False, 0), (True, -1)) if group.uses_glide else ((False, 0),)
    size = 2 if group.alphabet == ALPHABET_X else 4
    labels: list[BasisIndex] = []
    for order_x in orders:
        deltas = range(-max_abs_delta, max_abs_delta + 1) if 0 < order_x < degree else (0,)
        shapes_x = [shape.parts for shape in compositions_of(order_x, max_parts)]
        shapes_y = [shape.parts for shape in compositions_of(degree - order_x, max_parts)]
        for px, py, delta, (primed, base) in product(shapes_x, shapes_y, deltas, parities):
            label = index_of_monomial(group, (base, px, py, delta)[:size])
            if label == (primed, px, py, delta, group):
                labels.append(label)
    labels.sort()
    return labels


def expand_basis_function(index: BasisIndex, window: int) -> TruncatedSeries:
    """Orbit sum of the label's representative, truncated to the window: the orbit members
    supported in [-window, window], the representative among them or not, each once with
    coefficient 1 and as ``_orbit_members`` yields them, so zero when there are none."""
    window = operator.index(window)
    members = _orbit_members(index.group, representative_monomial(index), window)
    return TruncatedSeries._trusted(
        index.group.alphabet, index.degree, window, dict.fromkeys(members, Fraction(1))
    )


def expand_in_basis(
    group: FriezeGroup, series: TruncatedSeries, margin: int
) -> dict[BasisIndex, Fraction]:
    """Coefficients of an invariant series on the orbit-sum basis.

    Coefficients are read off the series rather than solved for; an index is
    reported when its representative monomial is supported in the interior
    window [-window+margin, window-margin], and the labels come in ``sort_key``
    order.  Non-invariant input, and a margin that leaves no interior, are
    rejected by ``is_invariant``'s one walk, which gives the terms of each interior
    translate family in base order.  Each family is labelled by its first base.  For
    the glide groups that also covers the bases of the other parity: g sends the family
    (p_x, p_y, delta) at base b to (p_y, p_x, -delta) at base b + delta + 1 and moves
    the support by 1, so the image family has the interior base range moved by delta.
    When both parity classes of a family are nonzero, the first bases of the family and
    of its image lie in different orbits; otherwise one class is all there is.  The
    interior members of an orbit are joined by generator steps that stay in the
    interior, and the walk has compared coefficients across each one.
    """
    if series.degree < 1:
        raise ValueError("degree-0 series have no orbit-sum expansion")
    inside = _invariant_interior(group, series, margin)
    if inside is None:
        raise ValueError("series is not invariant on the interior window")
    interior, out = series.window - margin, {}
    for rest, (start, _, coeffs) in inside.items():
        index = index_of_monomial(group, (start, *rest))
        if fits_window(representative_monomial(index), interior):
            out[index] = coeffs[0]
    return {index: out[index] for index in sorted(out, key=BasisIndex.sort_key)}


_LABEL_RE = re.compile(r"f([1-7])(')?\[(.*)\]\s*$")


def format_basis_label(index: BasisIndex) -> str:
    name = f"f{index.group.value[1]}" + ("'" if index.primed else "")
    if index.group.alphabet == ALPHABET_X:
        return f"{name}[{index.shape_x}]"
    return f"{name}[{index.shape_x},{index.shape_y};Δ={index.delta}]"


def parse_basis_label(text: str) -> BasisIndex:
    """Parse a label such as ``f6[(1),(2);Δ=-3]`` or ``f2'[(1),(1);Δ=0]``.

    ``delta=`` is accepted as an ASCII alternative to ``Δ=``.  The returned
    label is validated but not canonicalized.
    """
    match = _LABEL_RE.match(text.strip())
    if match is None:
        raise ParseError(f"bad basis label {quote(text)}", 0)
    digit, prime, body = match.groups()
    start = len(text) - len(text.lstrip()) + match.start(3)  # leading spaces count
    group = FriezeGroup(f"F{digit}")
    if group.alphabet == ALPHABET_X:
        fields = (parse_composition(body, start),)
    else:
        shapes, sep, delta_text = body.partition(";")
        comma = re.search(r"\)\s*,\s*\(", shapes)
        if not sep or comma is None:
            raise ParseError(f"two shapes and an offset are required in {quote(text)}", 0)
        shape_x = parse_composition(shapes[: comma.start() + 1], start)
        shape_y = parse_composition(shapes[comma.end() - 1 :], start + comma.end() - 1)
        at = start + len(shapes) + 1 + len(delta_text) - len(delta_text.lstrip())
        delta_text = delta_text.strip()
        prefix = re.match("Δ=|delta=", delta_text)
        if prefix is None:
            raise ParseError(f"offset must be written Δ=<int> in {quote(text)}", at)
        at, delta_text = at + prefix.end(), delta_text[prefix.end() :]
        if not delta_text.removeprefix("-").isdecimal():
            raise ParseError(f"bad offset value {quote(delta_text)}", at)
        fields = shape_x, shape_y, read_int(delta_text, at)
    try:
        return make_index(group, *fields, primed=bool(prime))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
