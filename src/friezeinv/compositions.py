"""Non-negative compositions: the finite integer sequences indexing orbit shapes.

A composition is a finite (possibly empty) sequence of non-negative integers
whose first and last entries are positive.  Its *order* is the sum of the
entries and its *number of parts* the length; interior zeros are allowed, so
for any order >= 2 there are infinitely many compositions and enumeration is
always bounded by a maximal number of parts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

from .errors import ParseError, at_least, quote, read_int, write_int


@dataclass(frozen=True, slots=True)
class Composition:
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(operator.index(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"composition entries must be non-negative, got {parts}")
        if parts and (parts[0] == 0 or parts[-1] == 0):
            raise ValueError(f"first and last composition entries must be positive, got {parts}")

    @property
    def order(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_palindrome(self) -> bool:
        return self.parts == self.parts[::-1]

    def reverse(self) -> "Composition":
        """Reversed composition; valid because first and last entries swap
        roles, so it is built without checking the parts again."""
        return _unchecked(self.parts[::-1])

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(write_int, self.parts)) + ")"

    def __reduce__(self) -> tuple:  # copy and pickle check the parts again
        return Composition, (self.parts,)


EMPTY = Composition(())


def _unchecked(parts: tuple[int, ...]) -> Composition:
    """A composition from parts already known to be valid, built unchecked."""
    out = object.__new__(Composition)
    object.__setattr__(out, "parts", parts)
    return out


def composition(*parts: int) -> Composition:
    """Convenience constructor: composition(2, 0, 1) == Composition((2, 0, 1))."""
    return Composition(tuple(parts))


def compositions_of(order: int, max_parts: int) -> Iterator[Composition]:
    """All compositions of the given order with at most ``max_parts`` parts.

    Yielded in deterministic order: by number of parts, then lexicographically.
    Order 0 yields only the empty composition.  By stars and bars, a composition
    of m >= 2 parts is fixed by its sums of the first 1, ..., m - 1 parts: m - 1
    numbers from 1 to order - 1 in non-decreasing order, since the first and last
    parts are positive.  Those choices, in lexicographic order, give the
    compositions in lexicographic order, with no recursion.
    """
    order, max_parts = at_least(order, 0, "order"), operator.index(max_parts)
    if order == 0:
        yield EMPTY
        return
    if max_parts >= 1:
        yield _unchecked((order,))
    for num in range(2, max_parts + 1 if order > 1 else 2):  # order 1 has one part
        for sums in combinations_with_replacement(range(1, order), num - 1):
            yield _unchecked(tuple(map(operator.sub, (*sums, order), (0, *sums))))


def parse_composition(text: str, offset: int = 0) -> Composition:
    """Parse the text form ``(2,0,1)`` (empty: ``()``)."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError(f"composition must be parenthesized, got {quote(text)}", offset)
    inner = stripped[1:-1].strip()
    if not inner:
        return EMPTY
    entries = []
    for chunk in inner.split(","):
        chunk = chunk.strip()
        if not chunk.removeprefix("-").isdecimal():
            raise ParseError(f"bad composition entry {quote(chunk)} in {quote(text)}", offset)
        entries.append(read_int(chunk, offset))
    try:
        return Composition(tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc), offset) from exc
