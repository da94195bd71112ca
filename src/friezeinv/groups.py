"""The seven frieze groups and their normal-form elements.

Each group element is stored in normal form: an optional word of commuting
involution flags followed by a power of the group's cyclic shift generator
(the translation t, or the glide reflection g for the two glide groups):

    F1: t^z          F2: g^z          F3: v^a t^z      F4: r^a t^z
    F5: v^a g^z      F6: h^a t^z      F7: v^a h^b t^z

with a, b in {0, 1}.  Normal forms are unique, so equality of elements is
field equality.  Multiplication only needs one fact per group: conjugating
the shift generator by v (or r) inverts it, while h commutes with everything.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from .errors import ParseError, as_flag, quote, read_int
from .monomials import ALPHABET_X, ALPHABET_XY


class FriezeGroup(Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    F6 = "F6"
    F7 = "F7"

    __hash__ = object.__hash__  # members are singletons: hashed in C, not by name

    @cached_property
    def alphabet(self) -> str:
        return ALPHABET_X if self in (FriezeGroup.F1, FriezeGroup.F3) else ALPHABET_XY

    @cached_property
    def uses_glide(self) -> bool:
        """True for the two groups whose shift generator is a glide reflection."""
        return self in (FriezeGroup.F2, FriezeGroup.F5)

    @property
    def shift_letter(self) -> str:
        return "g" if self.uses_glide else "t"

    @property
    def flag_letters(self) -> frozenset[str]:
        return _FLAGS[self]

    def __str__(self) -> str:
        return self.value


_FLAGS = {
    FriezeGroup.F1: frozenset(),
    FriezeGroup.F2: frozenset(),
    FriezeGroup.F3: frozenset("v"),
    FriezeGroup.F4: frozenset("r"),
    FriezeGroup.F5: frozenset("v"),
    FriezeGroup.F6: frozenset("h"),
    FriezeGroup.F7: frozenset("vh"),
}


@dataclass(frozen=True, slots=True)
class GroupElement:
    group: FriezeGroup
    v: bool = False
    h: bool = False
    r: bool = False
    power: int = 0

    def __post_init__(self) -> None:
        for letter in "vhr":  # each flag stored as a bool: v=2 would not square to 1
            value = as_flag(getattr(self, letter), letter)
            if value and letter not in self.group.flag_letters:
                raise ValueError(f"{self.group} has no generator {letter!r}")
            object.__setattr__(self, letter, value)
        object.__setattr__(self, "power", operator.index(self.power))  # no float shifts

    def __reduce__(self) -> tuple:  # the checked constructor, for copy and pickle
        return type(self), (self.group, self.v, self.h, self.r, self.power)

    @property
    def reverses_shift(self) -> bool:
        """True when conjugating the shift generator by this element inverts it."""
        return self.v or self.r

    @property
    def is_identity(self) -> bool:
        return not (self.v or self.h or self.r) and self.power == 0

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group is not self.group:
            raise ValueError(f"cannot multiply elements of {self.group} and {other.group}")
        power = (-self.power if other.reverses_shift else self.power) + other.power
        return GroupElement(
            self.group,
            v=self.v ^ other.v,
            h=self.h ^ other.h,
            r=self.r ^ other.r,
            power=power,
        )

    def inverse(self) -> "GroupElement":
        # any element with a shift-reversing flag is an involution
        if self.reverses_shift:
            return self
        return replace(self, power=-self.power)

    def __pow__(self, exponent: int) -> "GroupElement":
        exponent = operator.index(exponent)  # no float or Fraction exponents
        odd = exponent % 2 == 1
        if self.reverses_shift:
            # an involution
            return self if odd else identity(self.group)
        # h commutes with the shift generator, and h^2 = 1
        return GroupElement(self.group, h=self.h and odd, power=self.power * exponent)

    def sort_key(self) -> tuple:
        return (self.v, self.h, self.r, self.power)

    def __str__(self) -> str:
        return format_word(self)


def identity(group: FriezeGroup) -> GroupElement:
    return GroupElement(group)


def shift(group: FriezeGroup, power: int = 1) -> GroupElement:
    """Power of the group's shift generator (t, or g for the glide groups)."""
    return GroupElement(group, power=power)


def generator(group: FriezeGroup, letter: str) -> GroupElement:
    """Single generator by letter; also accepts the derived rotations:
    r = v*h in F7 and r = v*g in F5."""
    if letter == group.shift_letter:
        return shift(group)
    if letter in group.flag_letters:
        return GroupElement(group, v=letter == "v", h=letter == "h", r=letter == "r")
    if letter == "r" and group is FriezeGroup.F7:
        return GroupElement(group, v=True, h=True)
    if letter == "r" and group is FriezeGroup.F5:
        return GroupElement(group, v=True, power=1)
    raise ValueError(f"{group} has no generator {letter!r}")


def generators(group: FriezeGroup) -> tuple[GroupElement, ...]:
    """The defining generators, shift generator first."""
    letters = [group.shift_letter]
    letters += [letter for letter in "vhr" if letter in group.flag_letters]
    return tuple(generator(group, letter) for letter in letters)


def format_word(element: GroupElement) -> str:
    parts = []
    if element.v:
        parts.append("v")
    if element.h:
        parts.append("h")
    if element.r:
        parts.append("r")
    if element.power:
        letter = element.group.shift_letter
        parts.append(letter if element.power == 1 else f"{letter}^{element.power}")
    return "*".join(parts) if parts else "1"


_WORD_TOKEN_RE = re.compile(r"([tgvhr])(?:\^(-?\d+))?")


def parse_word(group: FriezeGroup, text: str) -> GroupElement:
    """Parse a generator word such as ``v*t^-2`` into its normal form.

    Tokens are separated by ``*`` or whitespace and multiplied left to right,
    so arbitrary words normalize via the group relations.  ``1`` is the
    identity.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty group word")
    if stripped == "1":
        return identity(group)
    result = identity(group)
    pos = 0
    for token in re.split(r"[*\s]+", stripped):
        if not token:
            continue
        pos = text.index(token, pos)
        match = _WORD_TOKEN_RE.fullmatch(token)
        if match is None:
            raise ParseError(f"bad generator token {quote(token)}", pos)
        letter, exp_text = match.groups()
        try:
            gen = generator(group, letter)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from exc
        exponent = 1 if exp_text is None else read_int(exp_text, pos)
        result = result * gen**exponent
        pos += len(token)
    return result
