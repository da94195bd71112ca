"""Normal-form monomials in one alphabet (x) or two alphabets (x, y).

Every monomial is stored as a base index plus composition(s): the one-alphabet
monomial with base i and shape (s1, ..., sm) is x_{i+1}^{s1} ... x_{i+m}^{sm},
so the smallest variable present is always x_{base+1}.  Two-alphabet monomials
additionally carry the y-shape and an integer offset ``delta``: the y block is
y_{i+1+delta}^{s'1} ... y_{i+m'+delta}^{s'm'}.

Degenerate conventions making the form unique:
  * a pure-x or pure-y monomial has delta == 0 and anchors its only block at
    base + 1;
  * the unit monomial has base 0 and empty shapes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .compositions import EMPTY, Composition
from .errors import ParseError

ALPHABET_X = "X"
ALPHABET_XY = "XY"


@dataclass(frozen=True, slots=True)
class MonomialX:
    base: int
    shape: Composition

    def __post_init__(self) -> None:
        if self.shape.is_empty and self.base != 0:
            raise ValueError("unit monomial must have base 0")

    @property
    def degree(self) -> int:
        return self.shape.order

    @property
    def is_unit(self) -> bool:
        return self.shape.is_empty

    def exponents(self) -> dict[int, int]:
        return {self.base + j + 1: p for j, p in enumerate(self.shape.parts) if p}

    def support(self) -> tuple[int, int] | None:
        """(smallest, largest) variable index present, or None for the unit."""
        if self.is_unit:
            return None
        return (self.base + 1, self.base + self.shape.num_parts)

    @property
    def span(self) -> int:
        sup = self.support()
        return 0 if sup is None else sup[1] - sup[0] + 1

    def sort_key(self) -> tuple:
        return (self.base, self.shape.parts)

    def __str__(self) -> str:
        return format_monomial(self)


@dataclass(frozen=True, slots=True)
class MonomialXY:
    base: int
    shape_x: Composition
    shape_y: Composition
    delta: int

    def __post_init__(self) -> None:
        if (self.shape_x.order == 0 or self.shape_y.order == 0) and self.delta != 0:
            raise ValueError("delta must be 0 when either block is empty")
        if self.shape_x.is_empty and self.shape_y.is_empty and self.base != 0:
            raise ValueError("unit monomial must have base 0")

    @property
    def degree(self) -> int:
        return self.shape_x.order + self.shape_y.order

    @property
    def is_unit(self) -> bool:
        return self.shape_x.is_empty and self.shape_y.is_empty

    def exponents(self) -> tuple[dict[int, int], dict[int, int]]:
        xs = {self.base + j + 1: p for j, p in enumerate(self.shape_x.parts) if p}
        ys = {self.base + self.delta + j + 1: p for j, p in enumerate(self.shape_y.parts) if p}
        return xs, ys

    def support(self) -> tuple[int, int] | None:
        """(smallest, largest) variable index present, or None for the unit."""
        m, mp = self.shape_x.num_parts, self.shape_y.num_parts
        if not (m and mp):
            # a single block is anchored at base + 1, whichever alphabet it is
            return (self.base + 1, self.base + m + mp) if m or mp else None
        return (self.base + 1 + min(0, self.delta), self.base + max(m, self.delta + mp))

    @property
    def span(self) -> int:
        sup = self.support()
        return 0 if sup is None else sup[1] - sup[0] + 1

    def sort_key(self) -> tuple:
        return (self.base, self.shape_x.parts, self.delta, self.shape_y.parts)

    def __str__(self) -> str:
        return format_monomial(self)


Monomial = Union[MonomialX, MonomialXY]

UNIT_X = MonomialX(0, EMPTY)
UNIT_XY = MonomialXY(0, EMPTY, EMPTY, 0)


def fits_window(monomial: Monomial, window: int) -> bool:
    """True when the monomial is the unit or its support lies in [-window, window]."""
    sup = monomial.support()
    return sup is None or (-window <= sup[0] and sup[1] <= window)


def _clean_exponents(mapping: Mapping[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for index, exponent in mapping.items():
        exponent = operator.index(exponent)
        if exponent == 0:
            continue
        if exponent < 0:
            raise ValueError(f"exponents must be non-negative, got {exponent} at index {index}")
        out[operator.index(index)] = exponent
    return out


def _block(exps: dict[int, int]) -> tuple[int, Composition]:
    """Base and shape of one exponent block; the empty block is (0, EMPTY)."""
    if not exps:
        return 0, EMPTY
    lo, hi = min(exps), max(exps)
    return lo - 1, Composition(tuple(exps.get(i, 0) for i in range(lo, hi + 1)))


def _fields(monomial: Monomial) -> tuple[int, Composition, Composition, int]:
    """(base, shape_x, shape_y, delta); a one-alphabet monomial is an x block
    with an empty y block."""
    if isinstance(monomial, MonomialX):
        return monomial.base, monomial.shape, EMPTY, 0
    return monomial.base, monomial.shape_x, monomial.shape_y, monomial.delta


def _image(
    base: int, shape_x: Composition, shape_y: Composition, delta: int,
    shift: int = 0, reflect: bool = False, swap: bool = False,
) -> tuple[int, Composition, Composition, int]:
    """Normal-form fields of the image of the blocks (base, shape_x) and
    (base + delta, shape_y): shift both bases, then reflect each block
    (b, s) -> (-b-m-1, rev s), then exchange the blocks, then apply the
    conventions above.  With no move it is the normal form of two blocks."""
    if not (shape_x.parts or shape_y.parts):
        return 0, shape_x, shape_y, 0
    bx = base + shift
    by = bx + delta
    if reflect:
        bx, shape_x = -bx - len(shape_x.parts) - 1, shape_x.reverse()
        by, shape_y = -by - len(shape_y.parts) - 1, shape_y.reverse()
    if swap:
        bx, shape_x, by, shape_y = by, shape_y, bx, shape_x
    if not shape_y.parts:
        return bx, shape_x, shape_y, 0
    if not shape_x.parts:
        return by, shape_x, shape_y, 0
    return bx, shape_x, shape_y, by - bx


_new, _set = object.__new__, object.__setattr__


def _trusted(
    cls: type, base: int, shape_x: Composition, shape_y: Composition, delta: int
) -> Monomial:
    """A monomial from fields that are already a normal form, such as an
    ``_image`` of one or its translate, built without the checks of
    ``__post_init__``; a one-alphabet class keeps only the x block."""
    out = _new(cls)
    _set(out, "base", base)
    if cls is MonomialX:
        _set(out, "shape", shape_x)
        return out
    _set(out, "shape_x", shape_x)
    _set(out, "shape_y", shape_y)
    _set(out, "delta", delta)
    return out


def normal_form_x(exponents: Mapping[int, int]) -> MonomialX:
    """Normal form of a one-alphabet exponent map; the empty map gives the unit."""
    return MonomialX(*_block(_clean_exponents(exponents)))


def normal_form_xy(x_exponents: Mapping[int, int], y_exponents: Mapping[int, int]) -> MonomialXY:
    """Normal form of a two-alphabet exponent pair (see module docstring)."""
    bx, sx = _block(_clean_exponents(x_exponents))
    by, sy = _block(_clean_exponents(y_exponents))
    return MonomialXY(*_image(bx, sx, sy, by - bx))


def format_monomial(monomial: Monomial) -> str:
    """Text form, e.g. ``x[-1]^2 x[0] y[3]``; the unit monomial is ``1``."""
    if isinstance(monomial, MonomialX):
        blocks = [("x", monomial.exponents())]
    else:
        xs, ys = monomial.exponents()
        blocks = [("x", xs), ("y", ys)]
    factors = []
    for letter, exps in blocks:
        for index in sorted(exps):
            exponent = exps[index]
            factors.append(f"{letter}[{index}]" + (f"^{exponent}" if exponent != 1 else ""))
    return " ".join(factors) if factors else "1"


_FACTOR_RE = re.compile(r"([xy])\[(-?\d+)\](?:\^(-?\d+))?")


def parse_monomial(text: str, alphabet: str) -> Monomial:
    """Parse the monomial grammar for the given alphabet ("X" or "XY").

    The empty string and ``1`` denote the unit monomial.  Repeated factors
    multiply (their exponents add).
    """
    if alphabet not in (ALPHABET_X, ALPHABET_XY):
        raise ValueError(f"unknown alphabet {alphabet!r}")
    stripped = text.strip()
    if stripped in ("", "1"):
        return UNIT_X if alphabet == ALPHABET_X else UNIT_XY
    xs: dict[int, int] = {}
    ys: dict[int, int] = {}
    pos = 0
    for token in stripped.split():
        pos = text.index(token, pos)
        match = _FACTOR_RE.fullmatch(token)
        if match is None:
            raise ParseError(f"bad monomial factor {token!r}", pos)
        letter, index_text, exp_text = match.groups()
        if letter == "y" and alphabet == ALPHABET_X:
            raise ParseError("y-variables are not allowed in a one-alphabet monomial", pos)
        exponent = 1 if exp_text is None else int(exp_text)
        if exponent < 1:
            raise ParseError(f"exponent must be positive in {token!r}", pos)
        target = xs if letter == "x" else ys
        index = int(index_text)
        target[index] = target.get(index, 0) + exponent
        pos += len(token)
    if alphabet == ALPHABET_X:
        return normal_form_x(xs)
    return normal_form_xy(xs, ys)
