"""Closed-form table values for cross-checking the computed geometry.

For every classification row these give, at eps = 1, the squared Killing
length of the highest restricted root and the radicands of i(M) and d(M)
(both of the shape pi * sqrt(radicand)).  They are per-row formulas in
the row parameters, independent of the Gram-matrix machinery that the
geometry module uses, so agreement between the two is a real check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .catalog import SpaceLabel

F = Fraction


class RowValues(NamedTuple):
    psi_sq: Fraction
    i_radicand: Fraction
    d_radicand: Fraction


def expected(label: SpaceLabel) -> RowValues:
    """Closed-form (psi_sq, i^2/pi^2, d^2/pi^2) at eps = 1 for a table row."""
    s = label.series
    if s == "GROUP":
        return _group_expected(label)
    n, p, q = label.n, label.p, label.q
    if s == "AI":
        d = F(n * n, 2) if n % 2 == 0 else F(n * n - 1, 2)
        return RowValues(F(1, n), F(n), d)
    if s == "AII":
        d = F(2 * n * n) if n % 2 == 0 else F(2 * (n * n - 1))
        return RowValues(F(1, 4 * n), F(4 * n), d)
    if s == "AIII":
        return RowValues(F(1, p + q), F(p + q), F((p + q) * p))
    if s == "CI":
        return RowValues(F(1, n + 1), F(n + 1), F((n + 1) * n))
    if s == "CII":
        return RowValues(F(1, 2 * (p + q + 1)), F(2 * (p + q + 1)),
                         F(2 * (p + q + 1) * p))
    if s == "BDI":
        if p == 1:
            return RowValues(F(1, 2 * q - 2), F(2 * (q - 1)), F(2 * (q - 1)))
        if p < q:
            d = F(2 * (p + q - 2)) if p <= 3 else F((p + q - 2) * p, 2)
            return RowValues(F(1, p + q - 2), F(p + q - 2), d)
        return RowValues(F(1, 2 * p - 2), F(2 * (p - 1)), F(p * (p - 1)))
    if s == "DIII":
        d = F(n * (n - 1)) if n % 2 == 0 else F((n - 1) ** 2)
        return RowValues(F(1, 2 * n - 2), F(2 * (n - 1)), d)
    fixed = {
        "EI":    (F(1, 12), F(12), F(32)),
        "EII":   (F(1, 12), F(12), F(24)),
        "EIII":  (F(1, 12), F(12), F(24)),
        "EIV":   (F(1, 24), F(24), F(32)),
        "EV":    (F(1, 18), F(18), F(54)),
        "EVI":   (F(1, 18), F(18), F(36)),
        "EVII":  (F(1, 18), F(18), F(54)),
        "EVIII": (F(1, 30), F(30), F(60)),
        "EIX":   (F(1, 30), F(30), F(60)),
        "FI":    (F(1, 9), F(9), F(18)),
        "FII":   (F(1, 18), F(18), F(18)),
        "G":     (F(1, 4), F(4), F(16, 3)),
    }
    if s in fixed:
        return RowValues(*fixed[s])
    raise ValueError(f"no closed form for {label}")


def _group_expected(label: SpaceLabel) -> RowValues:
    kind = label.kind
    fam, l = kind.family, kind.rank
    if fam == "a":
        n = l + 1                       # SU(n)
        d = F(n * n) if n % 2 == 0 else F(n * n - 1)
        return RowValues(F(1, 2 * n), F(2 * n), d)
    if fam == "b":                      # Spin(2l+1)
        d = F(4 * (2 * l - 1)) if l <= 3 else F(l * (2 * l - 1))
        return RowValues(F(1, 2 * (2 * l - 1)), F(2 * (2 * l - 1)), d)
    if fam == "c":                      # Sp(l)
        return RowValues(F(1, 2 * (l + 1)), F(2 * (l + 1)), F(2 * (l + 1) * l))
    if fam == "d":                      # Spin(2l)
        return RowValues(F(1, 4 * (l - 1)), F(4 * (l - 1)), F(2 * l * (l - 1)))
    fixed = {
        ("e", 6): (F(1, 24), F(24), F(64)),
        ("e", 7): (F(1, 36), F(36), F(108)),
        ("e", 8): (F(1, 60), F(60), F(120)),
        ("f", 4): (F(1, 18), F(18), F(36)),
        ("g", 2): (F(1, 8), F(8), F(32, 3)),
    }
    return RowValues(*fixed[(fam, l)])


def grassmannian_canonical(p: int, q: int) -> tuple[Fraction, Fraction]:
    """(i^2/pi^2, d^2/pi^2) of the real Grassmannian under its canonical metric."""
    i_rad = F(1) if p == 1 else F(1, 2)
    if p == 1 or (2 <= p <= 3 and q > p):
        d_rad = F(1)
    else:
        d_rad = F(p, 4)
    return i_rad, d_rad


# Highest-root-normalized squared polytope maxima per family (closed forms).
def d_sq_closed_form(family: str, rank: int) -> Fraction:
    l = rank
    if family == "a":
        return F(l + 1, 2) if l % 2 == 1 else F(l * (l + 2), 2 * (l + 1))
    if family == "b":
        return F(2) if l <= 3 else F(l, 2)
    if family in ("c", "bc"):
        return F(l)
    if family == "d":
        return F(l, 2)
    return {("e", 6): F(8, 3), ("e", 7): F(3), ("e", 8): F(2),
            ("f", 4): F(2), ("g", 2): F(4, 3)}[(family, l)]


# Killing-normalized squared highest-root lengths per family (closed forms).
def delta_sq_closed_form(family: str, rank: int) -> Fraction:
    l = rank
    if family in ("a", "c"):
        return F(1, l + 1)
    if family == "b":
        return F(1, 2 * l - 1)
    if family == "d":
        return F(1, 2 * l - 2)
    if family == "e":
        return {6: F(1, 12), 7: F(1, 18), 8: F(1, 30)}[l]
    return F(1, 9) if family == "f" else F(1, 4)
