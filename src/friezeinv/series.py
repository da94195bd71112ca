"""Window-truncated homogeneous formal series with exact rational coefficients.

A TruncatedSeries is the restriction of a degree-homogeneous formal infinite
linear combination to the monomials supported in [-window, window].  All
coefficients are exact Fractions; zero coefficients are never stored, so
series equality is plain map equality.  Truncation makes literal invariance
false near the boundary, which is why the invariance test takes an explicit
interior margin.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import accumulate, chain, combinations, combinations_with_replacement, repeat
from operator import sub
from typing import Union

from .actions import _moves
from .errors import ParseError, at_least, quote, write_int
from .groups import FriezeGroup, generators
from .monomials import (
    ALPHABET_X,
    ALPHABET_XY,
    Monomial,
    MonomialX,
    MonomialXY,
    UNIT_X,
    _bases_in,
    _block,
    _fields,
    _image,
    _parse_monomial,
    _sum_blocks,
)

Scalar = Union[int, str, Fraction]

_ZERO = Fraction(0)


def as_fraction(value: Scalar) -> Fraction:
    """The one coefficient reader: a float is a TypeError; exponent notation, a zero
    denominator, a malformed string and a number past the digit limit are ValueErrors."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed; use Fraction or str")
    if isinstance(value, str) and "e" in value.lower():  # Fraction would expand 10**e in full
        raise ValueError(f"exponent notation is not allowed, got {quote(value)}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if not limit or max(map(len, re.findall(r"\d+", str(value))), default=0) <= limit:
            raise ValueError(f"bad coefficient {quote(value)}") from exc
        raise ValueError(
            f"coefficient {quote(value)} has a number of more than {limit} digits, too long to read"
        ) from None


class TruncatedSeries:
    """Immutable sparse map monomial -> Fraction at a fixed degree and window.  The
    constructor reads every key and coefficient into its translate family, checks degree and
    window once per family, cancelled terms too, and stores the terms family by family, each
    in the order given; a fault names the first faulty term given."""

    __slots__ = ("alphabet", "degree", "window", "_coeffs")

    def __init__(
        self,
        alphabet: str,
        degree: int,
        window: int,
        coeffs: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = (),
    ) -> None:
        if alphabet not in (ALPHABET_X, ALPHABET_XY):
            raise ValueError(f"unknown alphabet {quote(alphabet)}")
        degree, window = at_least(degree, 0, "degree"), at_least(window, 0, "window")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "window", window)
        expected, families, faulty = MonomialX if alphabet == ALPHABET_X else MonomialXY, {}, []
        for monomial, value in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            if not isinstance(monomial, expected):
                raise TypeError(f"expected {expected.__name__} keys for alphabet {alphabet}")
            key = monomial[1:]
            family = families.get(key)
            if family is None:  # one degree sum and one base range per translate family
                degree_ok = sum(map(sum, key[:2])) == degree
                family = families[key] = (_bases_in(key, window) if degree_ok else range(0)), [], []
            if monomial[0] not in family[0]:
                faulty.append(monomial)
            family[1].append(monomial)
            family[2].append(as_fraction(value))
        if faulty:  # after every key and coefficient is read: the first faulty term in the input
            raise ValueError(_term_fault(faulty[0], degree, window))
        store = _accumulate(chain.from_iterable(zip(ms, vs) for _, ms, vs in families.values()))
        object.__setattr__(self, "_coeffs", store)

    def __setattr__(self, name, value):  # noqa: ANN001
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def _trusted(
        cls, alphabet: str, degree: int, window: int, store: dict[Monomial, Fraction]
    ) -> "TruncatedSeries":
        """Series over a store the library built itself from valid series: its
        keys already have the alphabet, degree and window, and no value is zero."""
        out = object.__new__(cls)
        object.__setattr__(out, "alphabet", alphabet)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "window", window)
        object.__setattr__(out, "_coeffs", store)
        return out

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self._coeffs.get(monomial, _ZERO)

    def monomials(self) -> set[Monomial]:
        return set(self._coeffs)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in deterministic order (by base, then shapes, then offset)."""
        return sorted(self._coeffs.items(), key=lambda item: item[0].sort_key())

    @property
    def num_terms(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check_compatible(self, other: "TruncatedSeries", same_degree: bool = True) -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.window != other.window:
            raise ValueError("window mismatch")
        if same_degree and self.degree != other.degree:
            raise ValueError("degree mismatch")

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = _accumulate(other._coeffs.items(), dict(self._coeffs))
        return TruncatedSeries._trusted(self.alphabet, self.degree, self.window, out)

    def scale(self, value: Scalar) -> "TruncatedSeries":
        factor, out = as_fraction(value), {}
        if factor:  # one product per coefficient object: terms that shared one share it
            distinct = {id(coeff): coeff for coeff in self._coeffs.values()}
            products = {key: coeff * factor for key, coeff in distinct.items()}
            out = {m: products[id(coeff)] for m, coeff in self._coeffs.items()}
        return TruncatedSeries._trusted(self.alphabet, self.degree, self.window, out)

    def multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Ring product by block sums (``_merge``); the degree adds and the window stays the same.

        A product moves with both factors' bases, so each pair of translate families
        (``_by_family``) is merged once per base difference, into the product's family,
        whose sums are kept by base: no monomial is built or hashed per pair.  Each pair of
        coefficient objects is multiplied once (products of shared objects share one, as in
        ``scale``).  Each product family is stored in base order, cancelled sums dropped.
        Products of window-supported monomials are window-supported, so no truncation loss
        happens here (loss only enters via the factors).
        """
        self._check_compatible(other, same_degree=False)
        products, out, store, right = {}, {}, {}, _by_family(other).items()
        for rest_a, members_a in _by_family(self).items():
            at_zero = (0, *rest_a)
            for rest_b, members_b in right:
                merged = {}
                for ba, ca in members_a.items():
                    by_coeff = products.setdefault(id(ca), {})
                    for bb, cb in members_b.items():
                        moved = merged.get(bb - ba)
                        if moved is None:  # the product's base less ba, and its family's sums
                            product = _merge(at_zero, (bb - ba, *rest_b))
                            moved = merged[bb - ba] = product[0], out.setdefault(product[1:], {})
                        value = by_coeff.get(id(cb))
                        if value is None:  # not by truth: a Fraction's truth test runs in Python
                            value = by_coeff[id(cb)] = ca * cb
                        base, sums = ba + moved[0], moved[1]
                        sums[base] = sums[base] + value if base in sums else value
        cls, new = MonomialX if self.alphabet == ALPHABET_X else MonomialXY, tuple.__new__
        for rest, sums in out.items():  # each family in base order, cancelled sums dropped
            store.update((new(cls, (b,) + rest), sums[b]) for b in sorted(sums) if sums[b])
        return TruncatedSeries._trusted(
            self.alphabet, self.degree + other.degree, self.window, store
        )

    def project(self, window: int) -> "TruncatedSeries":
        """Restrict to a smaller window, dropping the monomials that escape it.

        The bases that fit the window form one range per translate family
        (``monomial[1:]``), read from ``_bases_in`` once per run of the family's terms."""
        window = at_least(window, 0, "window")
        if window > self.window:
            raise ValueError(f"cannot project from window {self.window} up to {window}")
        rest, kept = None, {}
        for monomial, coeff in self._coeffs.items():
            if (key := monomial[1:]) != rest:
                rest, bases = key, _bases_in(key, window)
            if monomial[0] in bases:
                kept[monomial] = coeff
        return TruncatedSeries._trusted(self.alphabet, self.degree, window, kept)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other.scale(-1))

    def __mul__(self, other):  # noqa: ANN001
        if isinstance(other, TruncatedSeries):
            return self.multiply(other)
        return self.scale(other)

    def __rmul__(self, other):  # noqa: ANN001
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.degree == other.degree
            and self.window == other.window
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        terms = " + ".join(f"{_text(coeff)}*{monomial}" for monomial, coeff in self.terms()[:6])
        if self.num_terms > 6:
            terms += " + ..."
        return (
            f"TruncatedSeries({self.alphabet}, degree={write_int(self.degree)}, "
            f"window={write_int(self.window)}, {terms or '0'})"
        )

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet,
            "degree": self.degree,
            "window": self.window,
            "terms": [
                {"monomial": str(monomial), "coeff": _text(coeff)}
                for monomial, coeff in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        """Inverse of ``to_json_dict``; any malformed input raises ValueError.

        ``degree`` and ``window`` must be JSON integers, each term an object with a
        monomial string and a coefficient that is a JSON integer or a string, read by
        ``as_fraction`` once per distinct coefficient, with ``malformed term n: `` before
        its message.  Terms that name one monomial, in any spelling, add (zero sums are
        dropped), and each distinct factor token is read once per call.  The terms read
        go to the validating constructor, which checks degree and window, so a fault
        names the first faulty term in the file.
        """
        if not isinstance(data, Mapping):
            raise ValueError("malformed series object: expected a JSON object")
        try:
            alphabet = data["alphabet"]
            degree = _json_int(data, "degree")
            window = _json_int(data, "window")
            raw_terms = data["terms"]
        except KeyError as exc:
            raise ValueError(f"malformed series object: missing {exc}") from exc
        if not isinstance(raw_terms, list):
            raise ValueError("malformed series object: terms must be a list")
        values, factors_read, pairs = {}, {}, []
        for n, entry in enumerate(raw_terms):
            # dict first: the check against the Mapping ABC costs more than the rest of it
            if not isinstance(entry, (dict, Mapping)) or not isinstance(entry.get("monomial"), str):
                raise ValueError(f"malformed term {n}: expected a string \"monomial\"")
            coeff = entry.get("coeff")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, str)):
                raise ValueError(
                    f"malformed term {n}: coefficient must be an integer or a string, "
                    f"got {quote(coeff)}"
                )
            # after the type check, so that true never reads a stored 1
            value = values.get(coeff)
            if value is None:
                try:
                    value = values[coeff] = as_fraction(coeff)
                except ValueError as exc:
                    raise ValueError(f"malformed term {n}: {exc}") from exc
            try:
                pairs.append((_parse_monomial(entry["monomial"], alphabet, factors_read), value))
            except ParseError as exc:  # its message keeps the position inside the monomial
                raise ParseError(f"malformed term {n}: {exc}") from None
        return cls(alphabet, degree, window, pairs)


def _text(value: Fraction) -> str:
    """``str(value)`` at any size: its integers are written by ``write_int``."""
    n, d = value.as_integer_ratio()
    return write_int(n) if d == 1 else f"{write_int(n)}/{write_int(d)}"


def _term_fault(monomial: Monomial, degree: int, window: int) -> str:
    """Why a monomial found at fault cannot be a term: its degree, or else its support."""
    if monomial.degree != degree:
        return f"monomial {monomial} has degree {monomial.degree}, series has degree {degree}"
    return f"monomial {monomial} is not supported in [-{window}, {window}]"


def _accumulate(
    pairs: Iterable[tuple[Monomial, Fraction]], store: dict[Monomial, Fraction] | None = None
) -> dict[Monomial, Fraction]:
    """Add each value into ``store`` (a new dict by default) under its
    monomial, dropping the monomials whose sum is zero; a value is added only
    to one already stored, and a zero value for a new monomial is not stored."""
    out = {} if store is None else store
    for monomial, value in pairs:
        if monomial in out:
            value += out[monomial]
        if value:
            out[monomial] = value
        else:
            out.pop(monomial, None)
    return out


def _json_int(data: Mapping, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"malformed series object: {key} must be an integer, got {quote(value)}")
    return value


def _merge(a: Monomial, b: Monomial) -> Monomial:
    """Product of two normal forms: x blocks add, and y blocks at base + delta;
    ``_image`` with no move puts the sum in normal form, built unchecked."""
    (ba, xa, ya, da), (bb, xb, yb, db) = _fields(a), _fields(b)
    bx, px = _sum_blocks(ba, xa, bb, xb)
    by, py = _sum_blocks(ba + da, ya, bb + db, yb)
    return tuple.__new__(type(a), _image(bx, px, py, by - bx)[: len(a)])


def _by_family(series: TruncatedSeries) -> dict[tuple, dict[int, Fraction]]:
    """The terms by translate family, {fields without the base: {base: coeff}}.  A family is
    looked up only where a term's fields differ from the previous term's, so a run of one
    family, whose part tuples are shared objects and compare by identity, hashes no shape."""
    families, rest = {}, None
    for monomial, coeff in series._coeffs.items():
        if (key := monomial[1:]) != rest:
            rest, members = key, families.setdefault(key, {})
        members[monomial[0]] = coeff
    return families


def _family_images(series: TruncatedSeries, moves: Iterable, bound: int):
    """Yield, per ``_moves`` triple, the images in [-bound, bound] of the terms of a series of
    positive degree, as {fields without the base: (first base, gaps, coeffs)} in base order.
    Each ``_by_family`` family's bases are sorted once, in linear time when stored ascending.
    Base b's image is inside when b + z is in its family's ``_bases_in`` range, so bisecting the
    sorted bases cuts each slice, at a cost of terms, not window; ``_image`` at base 0 gives b0."""
    families = _by_family(series)
    for rest, members in families.items():
        bases = sorted(members)
        gaps, coeffs = [*map(sub, bases[1:], bases)], [*map(members.get, bases)]
        families[rest] = _bases_in(rest, bound), _fields((0, *rest)), bases, gaps, coeffs
    for z, reflect, swap in moves:
        out = {}
        for rest, (fit, fields, bases, gaps, coeffs) in families.items():
            i, j = bisect_left(bases, fit.start - z), bisect_left(bases, fit.stop - z)
            if i < j:  # b goes to image[0] ± b: a reflection reverses the order
                image = _image(*fields, z, reflect, swap)
                out[image[1 : len(rest) + 1]] = (
                    (image[0] - bases[j - 1], gaps[i : j - 1][::-1], coeffs[i:j][::-1]) if reflect
                    else (image[0] + bases[i], gaps[i : j - 1], coeffs[i:j])
                )
        yield out


def act_series(element, series: TruncatedSeries) -> TruncatedSeries:
    """Relabel every monomial by the group action, dropping images that leave
    the window; linear in the series.  Only the images that stay in the window
    are built, each once, from ``_family_images``'s lists: the action is a bijection."""
    if element.group.alphabet != series.alphabet:
        raise ValueError(f"{element.group} does not act on alphabet {series.alphabet}")
    if series.degree == 0:  # the unit: fixed by every element, in every window
        return series
    cls, out = MonomialX if series.alphabet == ALPHABET_X else MonomialXY, {}
    walk = _family_images(series, [_moves(element)], series.window)
    for rest, (b0, gaps, cs) in next(walk).items():
        out.update(zip((tuple.__new__(cls, (b, *rest)) for b in accumulate(gaps, initial=b0)), cs))
    return TruncatedSeries._trusted(series.alphabet, series.degree, series.window, out)


def _invariant_interior(group: FriezeGroup, series: TruncatedSeries, margin: int) -> dict | None:
    """``is_invariant``'s one walk: the interior family slices by key if invariant, else None."""
    margin = at_least(margin, 1, "margin")
    if margin > series.window:
        raise ValueError(
            f"margin {margin} exceeds window {series.window}: the interior is empty, "
            "so there is nothing to check"
        )
    if group.alphabet != series.alphabet:
        raise ValueError(f"{group} does not act on alphabet {series.alphabet}")
    if series.degree == 0:  # the unit: fixed by every element, in every window, unlabelled
        return {}
    interior, moves = series.window - margin, map(_moves, generators(group))
    walk = _family_images(series, [(0, False, False), *moves], interior)  # identity first
    inside = next(walk)
    if any(images != inside for images in walk):
        return None
    if series._coeffs and not inside:
        raise ValueError(
            f"no term of the series and none of its generator images lies in the "
            f"interior [{-interior}, {interior}], so there is nothing to check"
        )
    return inside


def is_invariant(group: FriezeGroup, series: TruncatedSeries, margin: int) -> bool:
    """Coefficient constancy on orbits, tested away from the window boundary.

    The interior is [-window+margin, window-margin].  Each generator must map
    the interior terms onto themselves: the images of the terms that land in the
    interior, each with its term's coefficient, must be exactly the interior
    terms, the images under the identity; one walk of ``_family_images`` builds
    them all, by slices of each family's sorted terms.  margin >= 1 keeps the
    preimages of interior monomials inside the window (the shift generators move
    indices by one), and margin <= window keeps at least one index in the
    interior.  A nonzero series with no interior or image term is rejected too."""
    return _invariant_interior(group, series, margin) is not None


def _symmetric(r: int, window: int, choose, start: int) -> TruncatedSeries:
    """Sum over the index tuples ``choose(range(-window, window + 1), r)`` of the
    monomial with those indices; r = 0 gives the unit.  The tuples that differ by
    a shift form one translate family, so only those whose least index is 0 are
    enumerated, ``(0, *choose(range(start, 2 * window + 1), r - 1))``, each giving
    one shape, and the shape is emitted at every base that keeps it in the window."""
    r, window = at_least(r, 0, "r"), at_least(window, 0, "window")
    if r == 0:
        return TruncatedSeries._trusted(ALPHABET_X, 0, window, {UNIT_X: Fraction(1)})
    bases = range(-window - 1, window + 1)  # a shape of m parts takes all but the last m
    shapes = (
        _block([(0, 1), *((i, 1) for i in indices)])[1]
        for indices in choose(range(start, 2 * window + 1), r - 1)
    )
    families = (
        map(tuple.__new__, repeat(MonomialX), zip(bases[: -len(parts)], repeat(parts)))
        for parts in shapes
    )
    store = dict.fromkeys(chain.from_iterable(families), Fraction(1))
    return TruncatedSeries._trusted(ALPHABET_X, r, window, store)


def elementary_sym(r: int, window: int) -> TruncatedSeries:
    """Sum of all products of r distinct variables inside the window."""
    return _symmetric(r, window, combinations, 1)


def complete_sym(r: int, window: int) -> TruncatedSeries:
    """Sum of all monomials of total degree r inside the window."""
    return _symmetric(r, window, combinations_with_replacement, 0)
