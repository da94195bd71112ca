"""Decomposition of the graded pieces into translation-module components.

Under F1, the span of each shape's translate family is a single bi-infinite
coordinate line (one basis sequence position per base index).  Under F6 the
same happens exactly for the self-paired labels (equal shapes, offset 0),
where the alphabet swap fixes every family member; every other label pairs
two distinct translate families and contributes a doubled line.  The census
counts components per canonical label within enumeration bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .basis import BasisIndex, enumerate_indices, representative_monomial
from .groups import FriezeGroup
from .monomials import Monomial, MonomialXY
from .series import Scalar, TruncatedSeries, as_fraction


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


def _line_monomial(index: BasisIndex, position: int) -> Monomial:
    rep = representative_monomial(index)
    return tuple.__new__(type(rep), (position,) + rep[1:])


def embed_line(
    index: BasisIndex, sequence: Mapping[int, Scalar], window: int
) -> TruncatedSeries:
    """Series carried by a LINE component from a base-position -> value map.

    Position i holds the translate of the representative with base i; the
    translation action corresponds to shifting positions.  Positions whose
    monomial leaves the window are rejected.
    """
    group = index.group
    if component_type(group, index) is not ComponentType.LINE:
        raise ValueError("embed_line requires a LINE component")
    terms = [(_line_monomial(index, position), value) for position, value in sequence.items()]
    return TruncatedSeries(group.alphabet, index.degree, window, terms)


def line_coordinates(index: BasisIndex, series: TruncatedSeries) -> dict[int, Fraction]:
    """Inverse of embed_line: base positions and values of a component series."""
    if component_type(index.group, index) is not ComponentType.LINE:
        raise ValueError("line_coordinates requires a LINE component")
    out: dict[int, Fraction] = {}
    for monomial, coeff in series.terms():
        if _line_monomial(index, monomial.base) != monomial:
            raise ValueError(f"{monomial} does not belong to the component of {index}")
        out[monomial.base] = coeff
    return out


def _double_monomials(index: BasisIndex, position: int) -> tuple[MonomialXY, MonomialXY]:
    first = MonomialXY(position, index.shape_x, index.shape_y, index.delta)
    second = MonomialXY(position, index.shape_y, index.shape_x, -index.delta)
    return first, second


def embed_double(
    index: BasisIndex, sequence: Mapping[int, tuple[Scalar, Scalar]], window: int
) -> TruncatedSeries:
    """Series carried by a DOUBLE component from position -> (value, value).

    The first slot rides the label's own translate family, the second the
    alphabet-swapped family at the same base.  Positions whose monomials
    leave the window are rejected.
    """
    if component_type(index.group, index) is not ComponentType.DOUBLE:
        raise ValueError("embed_double requires a DOUBLE component")
    terms: list[tuple[Monomial, Scalar]] = []
    for position, (first_value, second_value) in sequence.items():
        first, second = _double_monomials(index, position)
        terms += [(first, first_value), (second, second_value)]
    return TruncatedSeries(index.group.alphabet, index.degree, window, terms)


def double_coordinates(
    index: BasisIndex, series: TruncatedSeries
) -> dict[int, tuple[Fraction, Fraction]]:
    """Inverse of embed_double."""
    if component_type(index.group, index) is not ComponentType.DOUBLE:
        raise ValueError("double_coordinates requires a DOUBLE component")
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for monomial, coeff in series.terms():
        first, second = _double_monomials(index, monomial.base)
        if monomial == first:
            slot = 0
        elif monomial == second:
            slot = 1
        else:
            raise ValueError(f"{monomial} does not belong to the component of {index}")
        pair = list(out.get(monomial.base, (Fraction(0), Fraction(0))))
        pair[slot] += coeff
        out[monomial.base] = (pair[0], pair[1])
    return out


def is_constant_sequence(sequence: Mapping[int, Scalar], lo: int, hi: int) -> bool:
    """True when the sequence takes one common value on every position of
    [lo, hi] (missing positions count as 0).  The constant sequences span the
    one-dimensional translation-fixed line."""
    if lo > hi:
        raise ValueError("empty position range")
    values = {as_fraction(sequence.get(position, 0)) for position in range(lo, hi + 1)}
    return len(values) == 1


def has_finite_support(sequence: Mapping[int, Scalar], lo: int, hi: int) -> bool:
    """True when the nonzero entries stay strictly inside (lo, hi): the
    window-compatible reading of a globally finitely-supported sequence."""
    if lo > hi:
        raise ValueError("empty position range")
    for position in (lo, hi):
        if as_fraction(sequence.get(position, 0)) != 0:
            return False
    return True
