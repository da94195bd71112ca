"""Decomposition of the graded pieces into translation-module components.

The translations (t, or g^2 for the glide groups F2 and F5) split the orbit
of a label into |G/T| / |stabilizer| translate families, numbered in
coset-table order; family 0 holds the representative.  The members of a
family differ only in their base, which for F2 and F5 keeps its parity.
``embed`` puts the value of each key (family, base) on the member of that
family with that base, and ``coordinates`` reads the keys back; a translation
adds 1 (2 for g^2) to every base.  Under F1 every label has one family, a
LINE; under F6 so have the self-paired labels (equal shapes, offset 0), and
every other label has two, its own and its h-image, a DOUBLE.  The census
counts these per canonical label within enumeration bounds, by formula rather
than by listing the labels.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .actions import _families, _family_key
from .basis import BasisIndex, representative_monomial
from .errors import at_least
from .groups import FriezeGroup
from .series import Scalar, TruncatedSeries


class ComponentType(Enum):
    LINE = "LINE"
    DOUBLE = "DOUBLE"


def _classified(group: FriezeGroup) -> None:
    if group not in (FriezeGroup.F1, FriezeGroup.F6):
        raise ValueError(f"component classification is defined for F1 and F6, not {group}")


def component_type(group: FriezeGroup, index: BasisIndex) -> ComponentType:
    """LINE for a single coordinate line, DOUBLE for a doubled one."""
    _classified(group)
    if index.group is not group:
        raise ValueError("label group mismatch")
    if group is FriezeGroup.F1:
        return ComponentType.LINE
    if index.shape_x == index.shape_y and index.delta == 0:
        return ComponentType.LINE
    return ComponentType.DOUBLE


@dataclass(frozen=True, slots=True)
class CensusReport:
    group: FriezeGroup
    degree: int
    max_parts: int
    max_abs_delta: int
    line: int
    double: int

    def __post_init__(self) -> None:  # ints only: no float, and a bool reads as 0 or 1
        for name in ("degree", "max_parts", "max_abs_delta", "line", "double"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    @property
    def total(self) -> int:
        return self.line + self.double

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.value,
            "degree": self.degree,
            "bounds": {"max_parts": self.max_parts, "max_delta": self.max_abs_delta},
            "LINE": self.line,
            "DOUBLE": self.double,
        }


def decomposition_census(
    group: FriezeGroup, degree: int, max_parts: int, max_abs_delta: int = 0
) -> CensusReport:
    """Count component types over the canonical labels within bounds, by formula;
    ``enumerate_indices`` with ``component_type`` lists the same counts.  A shape of
    order n with at most m parts and positive ends is one of comb(n + m - 2, m - 1),
    or the empty one at n = 0.  An F1 label is a shape, a LINE.  F6 raw labels pair up
    under h, which swaps the shapes and negates delta, so by Burnside over {1, h} the
    DOUBLE labels are (raw - LINE)/2, with the fixed points, equal shapes and delta 0,
    the LINE labels."""
    degree, max_parts = at_least(degree, 1, "degree"), at_least(max_parts, 1, "max_parts")
    max_abs_delta = at_least(max_abs_delta, 0, "max_abs_delta")
    _classified(group)

    def shapes(order: int) -> int:
        return math.comb(order + max_parts - 2, max_parts - 1) if order else 1

    if group is FriezeGroup.F1:
        return CensusReport(group, degree, max_parts, max_abs_delta, shapes(degree), 0)
    # the sum over 0 < a < degree of shapes(a) * shapes(degree - a)
    two_blocks = math.comb(degree + 2 * max_parts - 3, 2 * max_parts - 1)
    raw = 2 * shapes(degree) + (2 * max_abs_delta + 1) * two_blocks
    line = 0 if degree % 2 else shapes(degree // 2)
    return CensusReport(group, degree, max_parts, max_abs_delta, line, (raw - line) // 2)


def embed(
    index: BasisIndex, values: Mapping[tuple[int, int], Scalar], window: int
) -> TruncatedSeries:
    """Series from a (family, base) -> value map: the term of a key is the
    member of that family whose base is ``base``.  A family number out of
    range, a base of the wrong parity for an F2 or F5 family, a member that
    leaves the window and a key that is not a pair of integers raise ValueError."""
    group, rep = index.group, representative_monomial(index)
    families = _families(group, rep)
    terms = []
    for key, value in values.items():
        try:
            family, base = map(operator.index, key)
        except (TypeError, ValueError):
            raise ValueError(f"key {key!r} is not a (family, base) pair of integers") from None
        if family not in range(len(families)):
            raise ValueError(f"{index} has families 0..{len(families) - 1}, not {family}")
        image = families[family]
        if group.uses_glide and (base - image[0]) % 2:
            raise ValueError(f"family {family} of {index} has bases of parity {image[0] % 2}")
        terms.append((tuple.__new__(type(rep), (base, *image[1:])), value))
    return TruncatedSeries(group.alphabet, index.degree, window, terms)


def coordinates(index: BasisIndex, series: TruncatedSeries) -> dict[tuple[int, int], Fraction]:
    """Inverse of ``embed``: the (family, base) key and value of each term."""
    glide = index.group.uses_glide
    families = _families(index.group, representative_monomial(index))
    # a monomial of the other alphabet has a key of another length, so no family
    numbers = {_family_key(image, glide): n for n, image in enumerate(families)}
    out: dict[tuple[int, int], Fraction] = {}
    for monomial, coeff in series.terms():
        family = numbers.get(_family_key(monomial, glide))
        if family is None:
            raise ValueError(f"{monomial} does not belong to the orbit of {index}")
        out[family, monomial.base] = coeff
    return out
