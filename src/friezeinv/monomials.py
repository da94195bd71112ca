"""Normal-form monomials in one alphabet (x) or two alphabets (x, y).

Every monomial is stored as a base index plus composition(s): the x block
with base i and shape (s1, ..., sm) is x_{i+1}^{s1} ... x_{i+m}^{sm}, so the
smallest variable of the block is always x_{base+1}.  Two-alphabet monomials
additionally carry the y-shape and an integer offset ``delta``: the y block is
y_{i+1+delta}^{s'1} ... y_{i+m'+delta}^{s'm'}.

A monomial is the tuple (base, parts_x) or (base, parts_x, parts_y, delta) of
plain part tuples, so it hashes and compares in C, equals and orders like the
plain tuple (the listing order is ``sort_key``), and never equals a monomial of
the other alphabet.  The constructors check the conventions below; the library
builds the normal forms it computes with a plain ``tuple.__new__``.  A
one-alphabet monomial reads as an empty y block with offset 0, so one body
serves both alphabets.

Degenerate conventions making the form unique:
  * a pure-x or pure-y monomial has delta == 0 and anchors its only block at
    base + 1;
  * the unit monomial has base 0 and empty shapes.
"""

from __future__ import annotations

import operator
import re
from typing import Mapping, Union

from .compositions import EMPTY, Composition, _unchecked
from .errors import ParseError, quote, read_int, write_int

ALPHABET_X = "X"
ALPHABET_XY = "XY"

_Parts = tuple[int, ...]


def _fields(monomial: tuple) -> tuple[int, _Parts, _Parts, int]:
    """(base, parts_x, parts_y, delta) of a monomial of either alphabet."""
    return monomial if len(monomial) == 4 else (*monomial, (), 0)


def _support(base: int, px: _Parts, py: _Parts = (), delta: int = 0) -> tuple[int, int] | None:
    """``support`` of the fields of a monomial of either alphabet."""
    m, mp = len(px), len(py)
    if not (m and mp):
        # a single block is anchored at base + 1, whichever alphabet it is
        return (base + 1, base + m + mp) if m or mp else None
    return (base + 1 + min(0, delta), base + max(m, delta + mp))


class _Blocks(tuple):
    """The members both alphabets share, over the x block (base, parts_x) and
    the y block (base + delta, parts_y)."""

    __slots__ = ()

    base = property(operator.itemgetter(0))
    shape_x = property(lambda self: _unchecked(self[1]))

    def __reduce__(self) -> tuple:
        # the checked constructor, for copy and pickle at every protocol
        return type(self), (self.base, self.shape_x, self.shape_y, self.delta)[: len(self)]

    # the part tuples are the fields at 1 and, in two alphabets, at 2
    @property
    def degree(self) -> int:
        return sum(map(sum, self[1:3]))

    @property
    def is_unit(self) -> bool:
        return not any(self[1:3])

    def _exponent_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """(x exponents, y exponents), each keyed by variable index in
        increasing order; an empty y block gives an empty map."""
        base, px, py, delta = _fields(self)
        xs = {i: p for i, p in enumerate(px, base + 1) if p}
        return xs, ({i: p for i, p in enumerate(py, base + delta + 1) if p} if py else {})

    def support(self) -> tuple[int, int] | None:
        """(smallest, largest) variable index present, or None for the unit."""
        return _support(*self)

    @property
    def span(self) -> int:
        sup = self.support()
        return 0 if sup is None else sup[1] - sup[0] + 1

    def exponents(self) -> dict[int, int] | tuple[dict[int, int], dict[int, int]]:
        """The exponent map, or the (x, y) pair of maps for two alphabets."""
        maps = self._exponent_maps()
        return maps[0] if len(self) == 2 else maps

    def sort_key(self) -> tuple:
        """The listing order: (base, parts_x), or (base, parts_x, delta, parts_y)."""
        return tuple(self) if len(self) == 2 else (self[0], self[1], self[3], self[2])

    def __str__(self) -> str:
        return format_monomial(self)


class MonomialX(_Blocks):
    __slots__ = ()

    shape = _Blocks.shape_x
    shape_y = EMPTY
    delta = 0

    def __new__(cls, base: int, shape: Composition) -> "MonomialX":
        base = operator.index(base)  # no float bases
        if base and not shape.parts:
            raise ValueError("unit monomial must have base 0")
        return tuple.__new__(cls, (base, shape.parts))


class MonomialXY(_Blocks):
    __slots__ = ()

    shape_y = property(lambda self: _unchecked(self[2]))
    delta = property(operator.itemgetter(3))

    def __new__(cls, base: int, shape_x: Composition, shape_y: Composition, delta: int):
        px, py = shape_x.parts, shape_y.parts
        base, delta = operator.index(base), operator.index(delta)  # no float bases or offsets
        if delta and not (px and py):
            raise ValueError("delta must be 0 when either block is empty")
        if base and not (px or py):
            raise ValueError("unit monomial must have base 0")
        return tuple.__new__(cls, (base, px, py, delta))


Monomial = Union[MonomialX, MonomialXY]

UNIT_X = MonomialX(0, EMPTY)
UNIT_XY = MonomialXY(0, EMPTY, EMPTY, 0)


def _bases_in(rest: tuple, window: int) -> range:
    """The bases at which the fields ``rest`` (all of a monomial's but its base) lie in
    [-window, window]: a support is the support at base 0 moved by the base.  The unit
    has no support and base 0."""
    support = _support(0, *rest)
    return range(1) if support is None else range(-window - support[0], window - support[1] + 1)


def fits_window(monomial: Monomial, window: int) -> bool:
    """True when the monomial is the unit or its support lies in [-window, window]."""
    return monomial[0] in _bases_in(monomial[1:], window)


def _clean_exponents(mapping: Mapping[int, int]) -> list[tuple[int, int]]:
    """The factors (index, exponent > 0) of an exponent map, sorted by index."""
    out: list[tuple[int, int]] = []
    for index, exponent in mapping.items():
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError(f"exponents must be non-negative, got {exponent} at index {index}")
        if exponent:
            out.append((operator.index(index), exponent))
    return sorted(out)


def _block(factors: list[tuple[int, int]]) -> tuple[int, _Parts]:
    """Base and parts of one block from its factors (index, exponent >= 1)
    sorted by index, a repeated index adding; (0, ()) if there are none.  The
    least and the greatest index carry positive exponents, so no check is due."""
    if not factors:
        return 0, ()
    lo, hi = factors[0][0], factors[-1][0]
    try:
        parts = [0] * (hi - lo + 1)
    except (MemoryError, OverflowError):
        ends = f"from index {write_int(lo)} to {write_int(hi)}"  # str fails past the digit limit
        raise ValueError(f"a block {ends} is too wide to store") from None
    for index, exponent in factors:
        parts[index - lo] += exponent
    return lo - 1, tuple(parts)


def _sum_blocks(b1: int, p1: _Parts, b2: int, p2: _Parts) -> tuple[int, _Parts]:
    """Product of the blocks (b1, p1) and (b2, p2): from the smaller base, the
    parts summed over the union of both ranges; an empty block is the unit."""
    if not (p1 and p2):
        return (b1, p1) if p1 else (b2, p2)
    if b1 > b2:
        b1, p1, b2, p2 = b2, p2, b1, p1
    parts = list(p1) + [0] * (b2 - b1 + len(p2) - len(p1))
    for i, p in enumerate(p2, b2 - b1):
        parts[i] += p
    return b1, tuple(parts)


def _image(
    base: int, px: _Parts, py: _Parts, delta: int,
    shift: int = 0, reflect: bool = False, swap: bool = False,
) -> tuple[int, _Parts, _Parts, int]:
    """Normal-form fields of the image of the blocks (base, px) and
    (base + delta, py): shift both bases, then reflect each block
    (b, p) -> (-b-m-1, rev p), then exchange the blocks, then apply the
    conventions above.  With no move it is the normal form of two blocks."""
    if not (px or py):
        return 0, px, py, 0
    bx = base + shift
    by = bx + delta
    if reflect:
        bx, px = -bx - len(px) - 1, px[::-1]
        by, py = -by - len(py) - 1, py[::-1]
    if swap:
        bx, px, by, py = by, py, bx, px
    if not py:
        return bx, px, py, 0
    if not px:
        return by, px, py, 0
    return bx, px, py, by - bx


def _normal_form_xy(xs: list[tuple[int, int]], ys: list[tuple[int, int]]) -> MonomialXY:
    """The monomial of the sorted factors of each alphabet, built unchecked."""
    bx, px = _block(xs)
    by, py = _block(ys)
    return tuple.__new__(MonomialXY, _image(bx, px, py, by - bx))


def normal_form_x(exponents: Mapping[int, int]) -> MonomialX:
    """Normal form of a one-alphabet exponent map; the empty map gives the unit."""
    return tuple.__new__(MonomialX, _block(_clean_exponents(exponents)))


def normal_form_xy(x_exponents: Mapping[int, int], y_exponents: Mapping[int, int]) -> MonomialXY:
    """Normal form of a two-alphabet exponent pair (see module docstring)."""
    return _normal_form_xy(_clean_exponents(x_exponents), _clean_exponents(y_exponents))


def format_monomial(monomial: Monomial) -> str:
    """Text form, e.g. ``x[-1]^2 x[0] y[3]``; the unit monomial is ``1``."""
    factors = [
        f"{letter}[{write_int(index)}]" + (f"^{write_int(exponent)}" if exponent != 1 else "")
        for letter, exps in zip("xy", monomial._exponent_maps())
        for index, exponent in exps.items()
    ]
    return " ".join(factors) or "1"


_FACTOR_RE = re.compile(r"([xy])\[(-?\d+)\](?:\^(-?\d+))?")


def parse_monomial(text: str, alphabet: str) -> Monomial:
    """Parse the monomial grammar for the given alphabet ("X" or "XY").

    The empty string and ``1`` denote the unit monomial.  Repeated factors
    multiply (their exponents add) in any order.  The grammar gives int indices
    and exponents >= 1, so the blocks are built from the sorted factors unchecked.
    """
    return _parse_monomial(text, alphabet, {})


def _parse_monomial(text: str, alphabet: str, factors_read: dict) -> Monomial:
    """``parse_monomial`` reading only the tokens not in ``factors_read``, one alphabet's memo."""
    if alphabet not in (ALPHABET_X, ALPHABET_XY):
        raise ValueError(f"unknown alphabet {quote(alphabet)}")
    stripped = text.strip()
    if stripped in ("", "1"):
        return UNIT_X if alphabet == ALPHABET_X else UNIT_XY
    factors: tuple[list, list] = ([], [])
    for token in stripped.split():
        factor = factors_read.get(token)
        if factor is None:
            match = _FACTOR_RE.fullmatch(token)
            try:
                if match is None:
                    fault = f"bad monomial factor {quote(token)}"
                elif match[1] == "y" and alphabet == ALPHABET_X:
                    fault = "y-variables are not allowed in a one-alphabet monomial"
                elif (exponent := 1 if match[3] is None else read_int(match[3])) < 1:
                    fault = f"exponent must be positive in {quote(token)}"
                else:
                    factor = factors_read[token] = (match[1] == "y", (read_int(match[2]), exponent))
            except ParseError as exc:  # an integer too long to read, placed at its token below
                fault = str(exc)
            if factor is None:  # not kept, so its first whole-token match is this token
                where = re.search(rf"(?<!\S){re.escape(token)}(?!\S)", text)
                raise ParseError(fault, where.start())
        factors[factor[0]].append(factor[1])
    xs, ys = factors
    xs.sort()
    if alphabet == ALPHABET_X:
        return tuple.__new__(MonomialX, _block(xs))
    ys.sort()
    return _normal_form_xy(xs, ys)
