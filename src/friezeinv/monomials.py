"""Normal-form monomials in one alphabet (x) or two alphabets (x, y).

Every monomial is stored as a base index plus composition(s): the x block
with base i and shape (s1, ..., sm) is x_{i+1}^{s1} ... x_{i+m}^{sm}, so the
smallest variable of the block is always x_{base+1}.  Two-alphabet monomials
additionally carry the y-shape and an integer offset ``delta``: the y block is
y_{i+1+delta}^{s'1} ... y_{i+m'+delta}^{s'm'}.  A one-alphabet monomial is the
x block alone: it reads as an empty y block with offset 0, so one body over
(base, shape_x, shape_y, delta) serves both alphabets.

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

from .compositions import EMPTY, Composition, _unchecked
from .errors import ParseError

ALPHABET_X = "X"
ALPHABET_XY = "XY"


class _Blocks:
    """The members both alphabets share, over the x block (base, shape_x) and
    the y block (base + delta, shape_y)."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.delta and not (self.shape_x.parts and self.shape_y.parts):
            raise ValueError("delta must be 0 when either block is empty")
        if self.base and self.is_unit:
            raise ValueError("unit monomial must have base 0")

    @property
    def degree(self) -> int:
        return sum(self.shape_x.parts + self.shape_y.parts)

    @property
    def is_unit(self) -> bool:
        return not (self.shape_x.parts or self.shape_y.parts)

    def _exponent_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """(x exponents, y exponents), each keyed by variable index in
        increasing order; an empty y block gives an empty map."""
        xs = {i: p for i, p in enumerate(self.shape_x.parts, self.base + 1) if p}
        y = self.shape_y.parts
        return xs, ({i: p for i, p in enumerate(y, self.base + self.delta + 1) if p} if y else {})

    def support(self) -> tuple[int, int] | None:
        """(smallest, largest) variable index present, or None for the unit."""
        m, mp = len(self.shape_x.parts), len(self.shape_y.parts)
        if not (m and mp):
            # a single block is anchored at base + 1, whichever alphabet it is
            return (self.base + 1, self.base + m + mp) if m or mp else None
        return (self.base + 1 + min(0, self.delta), self.base + max(m, self.delta + mp))

    @property
    def span(self) -> int:
        sup = self.support()
        return 0 if sup is None else sup[1] - sup[0] + 1

    def __str__(self) -> str:
        return format_monomial(self)


@dataclass(frozen=True, slots=True)
class MonomialX(_Blocks):
    base: int
    shape: Composition

    shape_y = EMPTY
    delta = 0

    def exponents(self) -> dict[int, int]:
        return self._exponent_maps()[0]

    def sort_key(self) -> tuple:
        return (self.base, self.shape.parts)


# the x block is the shape slot itself; the alias reads it as fast as ``shape``,
# where a property would add a call to every one-alphabet path
MonomialX.shape_x = MonomialX.shape


@dataclass(frozen=True, slots=True)
class MonomialXY(_Blocks):
    base: int
    shape_x: Composition
    shape_y: Composition
    delta: int

    def exponents(self) -> tuple[dict[int, int], dict[int, int]]:
        return self._exponent_maps()

    def sort_key(self) -> tuple:
        return (self.base, self.shape_x.parts, self.delta, self.shape_y.parts)


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
    """Base and shape of one cleaned exponent block, (0, EMPTY) if empty; the
    least and the greatest index carry positive exponents, so no check is due."""
    if not exps:
        return 0, EMPTY
    lo, hi = min(exps), max(exps)
    return lo - 1, _unchecked(tuple(exps.get(i, 0) for i in range(lo, hi + 1)))


def _sum_blocks(b1: int, s1: Composition, b2: int, s2: Composition) -> tuple[int, Composition]:
    """Product of the blocks (b1, s1) and (b2, s2): from the smaller base, the
    parts summed over the union of both ranges; an empty block is the unit."""
    p1, p2 = s1.parts, s2.parts
    if not (p1 and p2):
        return (b1, s1) if p1 else (b2, s2)
    if b1 > b2:
        b1, p1, b2, p2 = b2, p2, b1, p1
    parts = list(p1) + [0] * (b2 - b1 + len(p2) - len(p1))
    for i, p in enumerate(p2, b2 - b1):
        parts[i] += p
    return b1, _unchecked(tuple(parts))


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


def _normal_form(cls: type, xs: dict[int, int], ys: dict[int, int]) -> Monomial:
    """The monomial of cleaned exponent maps (int indices, exponents >= 1),
    built unchecked; a one-alphabet class takes an empty ``ys``."""
    bx, sx = _block(xs)
    by, sy = _block(ys)
    return _trusted(cls, *_image(bx, sx, sy, by - bx))


def normal_form_x(exponents: Mapping[int, int]) -> MonomialX:
    """Normal form of a one-alphabet exponent map; the empty map gives the unit."""
    return _normal_form(MonomialX, _clean_exponents(exponents), {})


def normal_form_xy(x_exponents: Mapping[int, int], y_exponents: Mapping[int, int]) -> MonomialXY:
    """Normal form of a two-alphabet exponent pair (see module docstring)."""
    return _normal_form(MonomialXY, _clean_exponents(x_exponents), _clean_exponents(y_exponents))


def format_monomial(monomial: Monomial) -> str:
    """Text form, e.g. ``x[-1]^2 x[0] y[3]``; the unit monomial is ``1``."""
    factors = [
        f"{letter}[{index}]^{exponent}" if exponent != 1 else f"{letter}[{index}]"
        for letter, exps in zip("xy", monomial._exponent_maps())
        for index, exponent in exps.items()
    ]
    return " ".join(factors) or "1"


_FACTOR_RE = re.compile(r"([xy])\[(-?\d+)\](?:\^(-?\d+))?")


def parse_monomial(text: str, alphabet: str) -> Monomial:
    """Parse the monomial grammar for the given alphabet ("X" or "XY").

    The empty string and ``1`` denote the unit monomial.  Repeated factors
    multiply (their exponents add) in any order.  The grammar gives int indices
    and exponents >= 1, so the maps are clean as parsed and built unchecked.
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
    return _normal_form(MonomialX if alphabet == ALPHABET_X else MonomialXY, xs, ys)
