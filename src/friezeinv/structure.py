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
counts these per canonical label within enumeration bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .actions import _families, _family_key
from .basis import BasisIndex, enumerate_indices, representative_monomial
from .groups import FriezeGroup
from .series import Scalar, TruncatedSeries


class ComponentType(Enum):
    LINE = "LINE"
    DOUBLE = "DOUBLE"


def component_type(group: FriezeGroup, index: BasisIndex) -> ComponentType:
    """LINE for a single coordinate line, DOUBLE for a doubled one."""
    if group not in (FriezeGroup.F1, FriezeGroup.F6):
        raise ValueError(f"component classification is defined for F1 and F6, not {group}")
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
    """Count component types over the canonical labels within bounds."""
    indices = enumerate_indices(group, degree, max_parts, max_abs_delta)
    line = sum(1 for idx in indices if component_type(group, idx) is ComponentType.LINE)
    double = len(indices) - line
    if group is FriezeGroup.F6 and degree % 2 == 1 and line:
        raise RuntimeError("self-paired labels require an even degree")
    return CensusReport(group, degree, max_parts, max_abs_delta, line, double)


def embed(
    index: BasisIndex, values: Mapping[tuple[int, int], Scalar], window: int
) -> TruncatedSeries:
    """Series from a (family, base) -> value map: the term of a key is the
    member of that family whose base is ``base``.  A family number out of
    range, a base of the wrong parity for an F2 or F5 family and a member that
    leaves the window raise ValueError."""
    group, rep = index.group, representative_monomial(index)
    families = _families(group, rep)
    terms = []
    for (family, base), value in values.items():
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
