"""Exact rational arithmetic helpers.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator) and vectors are plain tuples of Fractions.  A rational
vector is kept as integer numerators over one denominator
(``clear_denominators``).  No general matrix inverse lives here: the only
matrix the package inverts is the Gram matrix on a Dynkin diagram, a
tree (``dynkin.gram_tree``), and ``polytope.tree_adjugate`` reads its
adjugate off that tree's continuants.

The module also provides :class:`PiSqrtValue`, the value type ``pi *
sqrt(q)`` for a nonnegative rational ``q``.  Every geometric quantity
produced by this package (injectivity radius, diameter) has that shape,
so a single radicand is all the symbolic algebra we need.

Like every value type of the package, it is a named tuple: immutable,
hashable, and equal to a plain tuple of its fields.
"""

from __future__ import annotations

import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class NegativeFactor(ValueError):
    """Raised when a nonnegative radicand is required but not given."""


def clear_denominators(xs) -> tuple[list[int], int]:
    """Return (D*x as integers, D) for D the lcm of the denominators of xs.
    Each element is read once, through its ``as_integer_ratio()``; only
    an element without one (a str, say) goes through Fraction() first.
    An infinite element or a zero denominator raises ValueError, as NaN
    and an unreadable str do."""
    pairs = []
    for x in xs:
        try:
            try:
                pairs.append(x.as_integer_ratio())
            except AttributeError:
                pairs.append(Fraction(x).as_integer_ratio())
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"coordinate {x!r} is not a finite rational") from None
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def format_rational(x: Fraction) -> str:
    """Canonical rendering: "p/q", or "p" when the denominator is 1.

    Past Python's int-to-str limit (``sys.get_int_max_str_digits()``) the
    ValueError names that limit and the inputs that can bring a value under it.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"a printed value exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits; the metric "
                         f"value (or point) needs fewer digits") from None


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


# The working and the rounding context of ``_pi_sqrt_decimal``, for 12
# significant figures; every other setting is ``decimal.DefaultContext``'s.
_WIDE = Context(prec=22)
_ROUNDING = Context(prec=12, rounding=ROUND_HALF_EVEN)


@lru_cache(maxsize=1024)
def _pi_sqrt_decimal(num: int, den: int) -> str:
    """pi * sqrt(num / den) for num > 0: the quotient, its root and the
    product at 22 figures, then rounded half even to 12."""
    val = _WIDE.multiply(_PI, _WIDE.sqrt(_WIDE.divide(Decimal(num), Decimal(den))))
    return str(_ROUNDING.plus(val))


class _PiSqrtFields(NamedTuple):
    radicand: Fraction


class PiSqrtValue(_PiSqrtFields):
    """The exact value pi * sqrt(radicand) for a nonnegative rational radicand.

    Equality and ordering compare radicands exactly (as one-field tuples).
    The type deliberately cannot express sums of distinct radicals; no
    quantity in this package needs them.
    """

    __slots__ = ()

    def __new__(cls, radicand):
        if type(radicand) is not Fraction:
            radicand = Fraction(radicand)
        if radicand.numerator < 0:
            raise NegativeFactor(f"radicand must be >= 0, got {radicand}")
        return super().__new__(cls, radicand)

    @classmethod
    def _make(cls, iterable) -> "PiSqrtValue":
        return cls(*iterable)         # so that _replace validates too

    def exact_str(self) -> str:
        return f"pi*sqrt({format_rational(self.radicand)})"

    def decimal_str(self) -> str:
        """Decimal rendering at 12 significant figures, round half even."""
        r = self.radicand
        return _pi_sqrt_decimal(r.numerator, r.denominator) if r else "0"

    def to_json(self) -> dict:
        return {
            "radicand": format_rational(self.radicand),
            "exact": self.exact_str(),
            "decimal": self.decimal_str(),
        }

    def __str__(self) -> str:
        return f"{self.exact_str()} = {self.decimal_str()}"
