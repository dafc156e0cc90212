"""Exact rational arithmetic helpers.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator) and vectors are plain tuples of Fractions.  A rational
vector is kept as integer numerators over one denominator
(``clear_denominators``).  No general matrix inverse lives here: the only
matrix the package inverts is the Gram matrix on a Dynkin diagram, a
tree, and ``polytope.tree_adjugate`` reads its adjugate off continuants.

The module also provides :class:`PiSqrtValue`, the value type ``pi *
sqrt(q)`` for a nonnegative rational ``q``.  Every geometric quantity
produced by this package (injectivity radius, diameter) has that shape,
so a single radicand is all the symbolic algebra we need.

Like every value type of the package, it is a named tuple: immutable,
hashable, and equal to a plain tuple of its fields.
"""

from __future__ import annotations

import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import lcm
from typing import NamedTuple

Rational = Fraction
Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class NegativeFactor(ValueError):
    """Raised when a nonnegative scale factor is required but not given."""


def clear_denominators(xs) -> tuple[list[int], int]:
    """Return (D*x as integers, D) for D the lcm of the denominators of xs.
    Each element is read once, through ``as_integer_ratio()``; only
    elements that are neither int nor Fraction go through Fraction() first."""
    pairs = [x.as_integer_ratio() if isinstance(x, (int, Fraction))
             else Fraction(x).as_integer_ratio() for x in xs]
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def format_rational(x: Fraction) -> str:
    """Canonical rendering: "p/q", or "p" when the denominator is 1.

    Past Python's int-to-str limit (``sys.get_int_max_str_digits()``) the
    ValueError names that limit and the inputs that can bring a value under it.
    """
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"a printed value exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits; the metric "
                         f"value (or point) needs fewer digits") from None


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


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
        radicand = Fraction(radicand)
        if radicand < 0:
            raise NegativeFactor(f"radicand must be >= 0, got {radicand}")
        return super().__new__(cls, radicand)

    @classmethod
    def _make(cls, iterable) -> "PiSqrtValue":
        return cls(*iterable)         # so that _replace validates too

    def scaled(self, factor) -> "PiSqrtValue":
        """Multiply the radicand by ``factor`` (i.e. scale the value by sqrt(factor))."""
        factor = Fraction(factor)
        if factor < 0:
            raise NegativeFactor(f"scale factor must be >= 0, got {factor}")
        return PiSqrtValue(self.radicand * factor)

    def __float__(self) -> float:
        return float(_PI) * float(self.radicand) ** 0.5

    def exact_str(self) -> str:
        return f"pi*sqrt({format_rational(self.radicand)})"

    def decimal_str(self, digits: int = 12) -> str:
        """Decimal rendering at ``digits`` significant figures, round half even."""
        if self.radicand == 0:
            return "0"
        with localcontext() as ctx:
            ctx.prec = digits + 10
            val = _PI * (Decimal(self.radicand.numerator)
                         / Decimal(self.radicand.denominator)).sqrt()
            ctx.prec = digits
            ctx.rounding = ROUND_HALF_EVEN
            return str(+val)

    def to_json(self) -> dict:
        return {
            "radicand": format_rational(self.radicand),
            "exact": self.exact_str(),
            "decimal": self.decimal_str(),
        }

    def __str__(self) -> str:
        return f"{self.exact_str()} = {self.decimal_str()}"
