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
translation-coset representatives, computed by the block kernel
``monomials._image`` on plain tuples; only the chosen label is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .actions import _coset_moves, orbit_in_window
from .compositions import EMPTY, Composition, _unchecked, compositions_of, parse_composition
from .errors import ParseError
from .groups import FriezeGroup
from .monomials import ALPHABET_X, Monomial, MonomialX, MonomialXY, _fields, _image, fits_window
from .series import TruncatedSeries, is_invariant


@dataclass(frozen=True, slots=True)
class BasisIndex:
    group: FriezeGroup
    shape_x: Composition
    shape_y: Composition = EMPTY
    delta: int = 0
    primed: bool = False

    def __post_init__(self) -> None:
        # a composition has order 0 exactly when it has no parts
        x, y = self.shape_x.parts, self.shape_y.parts
        if not (x or y):
            raise ValueError("basis labels require total order >= 1")
        if self.group.alphabet == ALPHABET_X:
            if y or self.delta != 0:
                raise ValueError(f"{self.group} labels carry a single shape")
        elif not (x and y) and self.delta != 0:
            raise ValueError("delta must be 0 when either shape has order 0")
        if self.primed and not self.group.uses_glide:
            raise ValueError(f"{self.group} labels have no parity class")

    @property
    def degree(self) -> int:
        return self.shape_x.order + self.shape_y.order

    def sort_key(self) -> tuple:
        """The order on labels: the canonical label is the least, listings are sorted."""
        return (self.primed, self.shape_x.parts, self.shape_y.parts, self.delta)

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
    if shape_x.order == 0 or shape_y.order == 0:
        delta = 0
    return BasisIndex(group, shape_x, shape_y, delta, primed)


def representative_monomial(index: BasisIndex) -> Monomial:
    """The orbit member the label abbreviates: base 0, or base -1 when primed.
    A valid label's fields are a normal form, so it is built unchecked."""
    fields = (-1 if index.primed else 0, index.shape_x.parts, index.shape_y.parts, index.delta)
    one = index.group.alphabet == ALPHABET_X
    return tuple.__new__(MonomialX, fields[:2]) if one else tuple.__new__(MonomialXY, fields)


def index_of_monomial(group: FriezeGroup, monomial: Monomial) -> BasisIndex:
    """The unique basis label whose orbit contains the monomial."""
    if monomial.is_unit:
        raise ValueError("the unit monomial has no basis label")
    fields, glide = _fields(monomial), group.uses_glide
    images = (_image(*fields, *move) for move in _coset_moves(group))
    # the sort_key of the image's label: (primed, parts_x, parts_y, delta)
    base, px, py, delta = min(images, key=lambda f: (glide and f[0] % 2 == 1, f[1:]))
    return BasisIndex(group, _unchecked(px), _unchecked(py), delta, glide and base % 2 == 1)


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

    Every raw label inside the bounds is kept when it is its own canonical
    form (the canonicity test of orderly generation); canonicalization is
    idempotent and every canonical label inside the bounds is such a raw
    label, so each orbit is listed exactly once.  ``index_of_monomial``
    compares the kernel images as plain tuples and builds only the label it
    returns."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    if max_abs_delta < 0:
        raise ValueError("max_abs_delta must be non-negative")
    # one alphabet is the case order_x == degree: empty y shape, no offset
    orders = range(degree + 1) if group.alphabet != ALPHABET_X else (degree,)
    parities = (False, True) if group.uses_glide else (False,)
    labels: list[BasisIndex] = []
    for order_x in orders:
        for shape_x in compositions_of(order_x, max_parts):
            for shape_y in compositions_of(degree - order_x, max_parts):
                degenerate = order_x == 0 or order_x == degree
                deltas = (0,) if degenerate else range(-max_abs_delta, max_abs_delta + 1)
                for delta in deltas:
                    for primed in parities:
                        raw = BasisIndex(group, shape_x, shape_y, delta, primed)
                        if index_of_monomial(group, representative_monomial(raw)) == raw:
                            labels.append(raw)
    return sorted(labels, key=BasisIndex.sort_key)


def expand_basis_function(index: BasisIndex, window: int) -> TruncatedSeries:
    """Orbit sum of the label's representative, truncated to the window.

    Every distinct orbit member supported in [-window, window] appears once
    with coefficient 1 (stabilized monomials are not repeated).
    """
    rep = representative_monomial(index)
    if not fits_window(rep, window):
        raise ValueError(
            f"window {window} is too small for the representative monomial {rep}"
        )
    orbit = orbit_in_window(index.group, rep, window)
    return TruncatedSeries._trusted(
        index.group.alphabet, index.degree, window, dict.fromkeys(orbit, Fraction(1))
    )


def expand_in_basis(
    group: FriezeGroup, series: TruncatedSeries, margin: int
) -> dict[BasisIndex, Fraction]:
    """Coefficients of an invariant series on the orbit-sum basis.

    Coefficients are read off the series rather than solved for; an index is
    reported when its representative monomial is supported in the interior
    window [-window+margin, window-margin].  Non-invariant input, and a
    margin that leaves no interior, are rejected by ``is_invariant``.  Each
    orbit met in the interior is then labelled once and cross-checked: every
    orbit member in the interior must carry the coefficient of the term that
    found it, so the reported combination reconstructs the series there.
    """
    if series.degree < 1:
        raise ValueError("degree-0 series have no orbit-sum expansion")
    if not is_invariant(group, series, margin):
        raise ValueError("series is not invariant on the interior window")
    interior = series.window - margin
    out: dict[BasisIndex, Fraction] = {}
    seen: set[Monomial] = set()
    for monomial, coeff in series.terms():
        if monomial in seen or not fits_window(monomial, interior):
            continue
        index = index_of_monomial(group, monomial)
        for member in orbit_in_window(group, monomial, interior):
            found = series.coefficient(member)
            if found is not coeff and found != coeff:
                raise ValueError(f"reconstruction mismatch at {member} for {index}")
            seen.add(member)
        if fits_window(representative_monomial(index), interior):
            out[index] = coeff
    return out


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
        raise ParseError(f"bad basis label {text!r}", 0)
    digit, prime, body = match.groups()
    start = len(text) - len(text.lstrip()) + match.start(3)  # leading spaces count
    group = FriezeGroup(f"F{digit}")
    if group.alphabet == ALPHABET_X:
        fields = (parse_composition(body, start),)
    else:
        shapes, sep, delta_text = body.partition(";")
        comma = re.search(r"\)\s*,\s*\(", shapes)
        if not sep or comma is None:
            raise ParseError(f"two shapes and an offset are required in {text!r}", 0)
        shape_x = parse_composition(shapes[: comma.start() + 1], start)
        shape_y = parse_composition(shapes[comma.end() - 1 :], start + comma.end() - 1)
        at = start + len(shapes) + 1 + len(delta_text) - len(delta_text.lstrip())
        delta_text = delta_text.strip()
        for prefix in ("Δ=", "delta="):
            if delta_text.startswith(prefix):
                delta_text = delta_text[len(prefix):]
                at += len(prefix)
                break
        else:
            raise ParseError(f"offset must be written Δ=<int> in {text!r}", at)
        if not delta_text.removeprefix("-").isdecimal():
            raise ParseError(f"bad offset value {delta_text!r}", at)
        fields = shape_x, shape_y, int(delta_text)
    try:
        return make_index(group, *fields, primed=bool(prime))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
