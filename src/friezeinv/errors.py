"""Shared exception types."""

from __future__ import annotations

import operator
from decimal import Decimal


class ParseError(ValueError):
    """Raised when a text form (monomial, word, label, ...) cannot be parsed.

    ``position`` is the 0-based offset into the input where the problem was
    detected, or None when no single offset makes sense.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"at position {position}: {message}"
        super().__init__(message)
        self.position = position


def quote(value: object) -> str:
    """``repr`` of a piece of the input, cut to 40 characters and ``...`` if longer."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def read_int(text: str, position: int | None = None) -> int:
    """``int`` of a decimal literal; one past the interpreter's digit limit is a ParseError."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ParseError(f"an integer of {digits} digits is too long to read", position) from None


def write_int(value: int) -> str:
    """``read_int``'s inverse at any size: ``decimal`` writes past the digit limit of ``str``."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def at_least(value: object, least: int, name: str) -> int:
    """The integer argument ``name``, read once: ``operator.index`` (a float is a
    TypeError, a bool its int), then a ValueError below ``least``."""
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be {f'at least {least}' if least else 'non-negative'}")
    return value


def as_flag(value: object, name: str) -> bool:
    """The flag ``name`` as a bool: ``operator.index``, then 0 or 1 only."""
    value = operator.index(value)
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1")
    return value == 1
