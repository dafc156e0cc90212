"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator) and vectors are plain tuples of Fractions.  A rational
matrix is kept as integer rows over one denominator, and ``int_inverse``
inverts the integer part by fraction-free Bareiss elimination, so every
intermediate quantity is an exact integer minor: it returns delta *
N^{-1} with delta for an integer matrix N.  The Cartan polytope's
vertices read it directly off the integer Gram matrix; reports need only
its diagonal, which ``polytope`` takes from the Dynkin tree instead.

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


class SingularMatrix(ValueError):
    """Raised when inverting a singular matrix."""


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


def int_inverse(rows) -> tuple[list[list[int]], int]:
    """(y, delta) with y = delta * N^{-1} integral, for a square integer N.

    After the forward phase on [N | I] the last pivot is delta = +-det(N),
    so y is integral (Cramer's rule) and the back phase solves for it with
    exact integer division.  Raises SingularMatrix when det(N) = 0.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("inverse needs a square matrix")
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    delta = _bareiss_forward(aug, n)
    if delta is None:
        raise SingularMatrix("matrix is singular")
    y = [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = [delta * x for x in row[n:]]
        for k in range(i + 1, n):
            c = row[k]
            if c:
                acc = [a - c * b for a, b in zip(acc, y[k])]
        piv = row[i]
        y[i] = [a // piv for a in acc]
    return y, delta


def _bareiss_forward(m: list[list[int]], n: int) -> int | None:
    """Fraction-free forward elimination in place on integer rows.

    Eliminates below the first n pivot columns of the (possibly augmented)
    integer row list ``m``.  Returns the last pivot, or None when the
    matrix is singular.  Divisions are exact by Sylvester's identity, so
    no rational arithmetic is needed.
    """
    prev = 1
    width = len(m[0]) if m else 0
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return None
        piv = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, width):
                row_i[j] = (piv * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return m[n - 1][n - 1] if n else 1


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
