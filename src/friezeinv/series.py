"""Window-truncated homogeneous formal series with exact rational coefficients.

A TruncatedSeries is the restriction of a degree-homogeneous formal infinite
linear combination to the monomials supported in [-window, window].  All
coefficients are exact Fractions; zero coefficients are never stored, so
series equality is plain map equality.  Truncation makes literal invariance
false near the boundary, which is why the invariance test takes an explicit
interior margin.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, starmap
from typing import Union

from .actions import _moves
from .errors import ParseError
from .groups import FriezeGroup, generators
from .monomials import (
    ALPHABET_X,
    ALPHABET_XY,
    Monomial,
    MonomialX,
    MonomialXY,
    _block,
    _fields,
    _image,
    _parse_monomial,
    _sum_blocks,
    _support,
    fits_window,
)

Scalar = Union[int, str, Fraction]

_ZERO = Fraction(0)


def as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed; use Fraction or str")
    return value if type(value) is Fraction else Fraction(value)


class TruncatedSeries:
    """Immutable sparse map monomial -> Fraction at a fixed degree and window."""

    __slots__ = ("alphabet", "degree", "window", "_coeffs")

    def __init__(
        self,
        alphabet: str,
        degree: int,
        window: int,
        coeffs: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = (),
    ) -> None:
        if alphabet not in (ALPHABET_X, ALPHABET_XY):
            raise ValueError(f"unknown alphabet {alphabet!r}")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if window < 0:
            raise ValueError("window must be non-negative")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "window", window)
        expected, store = MonomialX if alphabet == ALPHABET_X else MonomialXY, {}
        for monomial, value in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            if not isinstance(monomial, expected):
                raise TypeError(f"expected {expected.__name__} keys for alphabet {alphabet}")
            fault = _term_fault(monomial, degree, window)
            if fault:
                raise ValueError(fault)
            _accumulate(((monomial, as_fraction(value)),), store)
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

    @classmethod
    def zero(cls, alphabet: str, degree: int, window: int) -> "TruncatedSeries":
        return cls(alphabet, degree, window)

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

        A product moves with both factors' bases, so each pair of shapes is
        merged once per base difference, and each pair of coefficient objects is
        multiplied once (products of shared objects share one, as in ``scale``).
        Products of window-supported monomials are window-supported, so no
        truncation loss happens here (loss only enters via the factors).
        """
        self._check_compatible(other, same_degree=False)
        shapes, merged, products, out = {}, {}, {}, {}
        right = [
            (mb[0], shapes.setdefault(mb[1:], len(shapes)), mb, id(cb), cb)
            for mb, cb in other._coeffs.items()
        ]
        for ma, ca in self._coeffs.items():
            ba, cls = ma[0], type(ma)
            by_shape, by_coeff = merged.setdefault(ma[1:], {}), products.setdefault(id(ca), {})
            for bb, shape, mb, key, cb in right:
                moved = by_shape.get((shape, bb - ba))
                if moved is None:  # the product's base less ba, and its other fields
                    product = _merge(ma, mb)
                    moved = by_shape[shape, bb - ba] = product[0] - ba, product[1:]
                monomial = tuple.__new__(cls, (ba + moved[0],) + moved[1])
                value = by_coeff.get(key) or by_coeff.setdefault(key, ca * cb)
                out[monomial] = out[monomial] + value if monomial in out else value
        out = {monomial: value for monomial, value in out.items() if value}  # drop cancelled sums
        return TruncatedSeries._trusted(
            self.alphabet, self.degree + other.degree, self.window, out
        )

    def project(self, window: int) -> "TruncatedSeries":
        """Restrict to a smaller window, dropping the monomials that escape it."""
        if window < 0:
            raise ValueError("window must be non-negative")
        if window > self.window:
            raise ValueError(f"cannot project from window {self.window} up to {window}")
        kept = {m: coeff for m, coeff in self._coeffs.items() if fits_window(m, window)}
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
        terms = " + ".join(f"{coeff}*{monomial}" for monomial, coeff in self.terms()[:6])
        if self.num_terms > 6:
            terms += " + ..."
        return (
            f"TruncatedSeries({self.alphabet}, degree={self.degree}, "
            f"window={self.window}, {terms or '0'})"
        )

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet,
            "degree": self.degree,
            "window": self.window,
            "terms": [
                {"monomial": str(monomial), "coeff": str(coeff)}
                for monomial, coeff in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        """Inverse of ``to_json_dict``; any malformed input raises ValueError.

        ``degree`` and ``window`` must be JSON integers, each term an object
        with a monomial string and a coefficient that is a JSON integer or
        an exact rational string such as ``"-3/2"``; exponent notation such
        as ``"1e9"`` is rejected.  Terms that name one monomial, in any spelling,
        add (zero sums are dropped).  Each distinct coefficient and each distinct
        factor token is read once per call, and each term is checked once, as it
        is read; the errors are the validating constructor's, in its order.
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
        values, factors_read, store, fault = {}, {}, {}, None
        for n, entry in enumerate(raw_terms):
            # dict first: the check against the Mapping ABC costs more than the rest of it
            if not isinstance(entry, (dict, Mapping)) or not isinstance(entry.get("monomial"), str):
                raise ValueError(f"malformed term {n}: expected a string \"monomial\"")
            coeff = entry.get("coeff")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, str)):
                raise ValueError(
                    f"malformed term {n}: coefficient must be an integer or a string, "
                    f"got {coeff!r}"
                )
            # after the type check, so that true never reads a stored 1
            value = values.get(coeff)
            if value is None:
                if isinstance(coeff, str) and "e" in coeff.lower():
                    # Fraction would expand the power of ten in full
                    raise ValueError(
                        f"malformed term {n}: exponent notation is not allowed, got {coeff!r}"
                    )
                try:
                    value = values[coeff] = Fraction(coeff)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"malformed term {n}: bad coefficient {coeff!r}") from exc
            try:
                monomial = _parse_monomial(entry["monomial"], alphabet, factors_read)
            except ParseError as exc:  # its message keeps the position inside the monomial
                raise ParseError(f"malformed term {n}: {exc}") from None
            fault = fault or _term_fault(monomial, degree, window)
            _accumulate(((monomial, value),), store)
        cls(alphabet, degree, window)  # its checks precede a term's fault, as in the constructor
        if fault:
            raise ValueError(fault)
        return cls._trusted(alphabet, degree, window, store)


def _term_fault(monomial: Monomial, degree: int, window: int) -> str | None:
    """Why the monomial cannot be a term of a series of this degree and window, or None."""
    if monomial.degree != degree:
        return f"monomial {monomial} has degree {monomial.degree}, series has degree {degree}"
    if not fits_window(monomial, window):
        return f"monomial {monomial} is not supported in [-{window}, {window}]"
    return None


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
        raise ValueError(f"malformed series object: {key} must be an integer, got {value!r}")
    return value


def _merge(a: Monomial, b: Monomial) -> Monomial:
    """Product of two normal forms: x blocks add, and y blocks at base + delta;
    ``_image`` with no move puts the sum in normal form, built unchecked."""
    (ba, xa, ya, da), (bb, xb, yb, db) = _fields(a), _fields(b)
    bx, px = _sum_blocks(ba, xa, bb, xb)
    by, py = _sum_blocks(ba + da, ya, bb + db, yb)
    return tuple.__new__(type(a), _image(bx, px, py, by - bx)[: len(a)])


def act_series(element, series: TruncatedSeries) -> TruncatedSeries:
    """Relabel every monomial by the group action, dropping images that leave
    the window; linear in the series.  A support [lo, hi] lies in the window
    after the element exactly when [lo+z, hi+z] does for its shift z (as in
    ``is_invariant``), so only those images are built, each once: the action
    is a bijection."""
    if element.group.alphabet != series.alphabet:
        raise ValueError(f"{element.group} does not act on alphabet {series.alphabet}")
    window, (z, reflect, swap), out = series.window, _moves(element), {}
    for monomial, coeff in series._coeffs.items():
        support = _support(*monomial)
        if support is None or -window - z <= support[0] and support[1] <= window - z:
            image = _image(*_fields(monomial), z, reflect, swap)[: len(monomial)]
            out[tuple.__new__(type(monomial), image)] = coeff
    return TruncatedSeries._trusted(series.alphabet, series.degree, window, out)


def is_invariant(group: FriezeGroup, series: TruncatedSeries, margin: int) -> bool:
    """Coefficient constancy on orbits, tested away from the window boundary.

    The interior is [-window+margin, window-margin].  Each generator acts once
    on each term: every term whose image lies in the interior must give the
    image its own coefficient, and these images must be as many as the
    interior terms.  A generator is a bijection, so the count falls short
    exactly when some interior term has a preimage that is not a term.  margin >= 1
    keeps the preimages of interior monomials inside the window (the shift
    generators move indices by one), and margin <= window keeps at least one
    index in the interior.  A nonzero series with no interior term and no
    interior image is rejected too: nothing would be checked.  Each term's
    support [lo, hi] is read once: a shift by z moves it to [lo+z, hi+z], a
    reflection then to [-hi-z, -lo-z] and a block swap keeps it, so on the
    symmetric interior the shift alone decides which images to build.
    """
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if margin > series.window:
        raise ValueError(
            f"margin {margin} exceeds window {series.window}: the interior is empty, "
            "so there is nothing to check"
        )
    if group.alphabet != series.alphabet:
        raise ValueError(f"{group} does not act on alphabet {series.alphabet}")
    if series.degree == 0:  # the unit: fixed by every element, in every window
        return True
    interior, coeffs = series.window - margin, series._coeffs
    supports = list(starmap(_support, coeffs))
    inside = sum(-interior <= lo and hi <= interior for lo, hi in supports)
    for z, reflect, swap in map(_moves, generators(group)):
        hits, low, high = 0, -interior - z, interior - z
        for (monomial, coeff), (lo, hi) in zip(coeffs.items(), supports):
            if low <= lo and hi <= high:
                if reflect or swap:  # a plain tuple finds the monomial it equals
                    image = _image(*_fields(monomial), z, reflect, swap)[: len(monomial)]
                else:
                    image = (monomial[0] + z, *monomial[1:])
                found = coeffs.get(image)
                if found is not coeff and found != coeff:  # shared objects skip Fraction.__eq__
                    return False
                hits += 1
        if hits != inside:
            return False
    if coeffs and not inside:
        raise ValueError(
            f"no term of the series and none of its generator images lies in the "
            f"interior [{-interior}, {interior}], so there is nothing to check"
        )
    return True


def _symmetric(r: int, window: int, choose) -> TruncatedSeries:
    """Sum over the index tuples ``choose(range(-window, window + 1), r)``
    of the monomial with those indices; r = 0 gives the unit."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if window < 0:
        raise ValueError("window must be non-negative")
    monomials = (
        tuple.__new__(MonomialX, _block([(i, 1) for i in indices]))
        for indices in choose(range(-window, window + 1), r)
    )
    return TruncatedSeries._trusted(ALPHABET_X, r, window, dict.fromkeys(monomials, Fraction(1)))


def elementary_sym(r: int, window: int) -> TruncatedSeries:
    """Sum of all products of r distinct variables inside the window."""
    return _symmetric(r, window, combinations)


def complete_sym(r: int, window: int) -> TruncatedSeries:
    """Sum of all monomials of total degree r inside the window."""
    return _symmetric(r, window, combinations_with_replacement)
