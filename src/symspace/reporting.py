"""The report path: a space's injectivity radius, diameter and curvature.

The metric is a positive multiple of the negated Killing form,
<,> = -eps (,); the space is then Einstein with Ricci constant 1/(2 eps).
With psi the highest restricted root in Killing units:

    i(M)^2 = pi^2 * eps / (psi, psi)
    d(M)^2 = pi^2 * eps * dmax^2 / (psi, psi)
    kappa  = (psi, psi) / eps          (max sectional curvature)

where dmax^2 is the squared farthest-vertex norm of the restricted
system's Cartan polytope under highest-root normalization, so that
i(M) * sqrt(kappa) = pi exactly.  A report needs one catalog entry,
which it takes as given when passed one, and dmax^2, which
``dynkin.farthest_vertex`` reads off the Dynkin diagram's Gram tree in
O(l) integer products and which is cached per restricted kind.

This module holds everything ``space``, ``table`` and ``product`` run
past the catalog, so a process that only reports compiles neither the
slice predicates (``geometry``, which re-exports the names it shares with
it) nor the polytope (``polytope``).  ``MetricSpec`` and
``GeometryReport`` are named tuples: immutable, and equal to plain tuples
of their fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .catalog import HALF, SpaceEntry, SpaceLabel, resolve, to_json_dict as entry_json
from .dynkin import RootKind, farthest_vertex
from .linalg import PiSqrtValue, format_rational


class NoCanonicalMetric(LookupError):
    """Raised when a canonical metric preset is requested but not defined."""


class EmptyProduct(ValueError):
    """Raised when combining an empty list of factors."""


class MetricSpec(NamedTuple):
    """Metric scale: explicit eps, a Ricci constant, or a catalog preset."""

    mode: str                      # "epsilon" | "ricci" | "canonical"
    value: Fraction | None = None

    @classmethod
    def epsilon(cls, value) -> "MetricSpec":
        v = Fraction(value)
        if v <= 0:
            raise ValueError(f"epsilon must be positive, got {v}")
        return cls("epsilon", v)

    @classmethod
    def ricci(cls, value) -> "MetricSpec":
        v = Fraction(value)
        if v <= 0:
            raise ValueError(f"Ricci constant must be positive, got {v}")
        return cls("ricci", v)

    @classmethod
    def canonical(cls) -> "MetricSpec":
        return cls("canonical")


DEFAULT_METRIC = MetricSpec.epsilon(1)


class GeometryReport(NamedTuple):
    space: SpaceEntry
    epsilon: Fraction
    psi_sq: Fraction
    d_sq_sigma: Fraction           # polytope max of the restricted system
    injectivity_radius: PiSqrtValue
    diameter: PiSqrtValue
    kappa: Fraction
    ricci: Fraction


@lru_cache(maxsize=None)
def _d_sq(kind: RootKind) -> Fraction:
    """d_sq of a kind's polytope, all a report reads of it."""
    return farthest_vertex(kind)[0]


def _epsilon_for(entry: SpaceEntry, metric: MetricSpec) -> Fraction:
    if metric.mode == "epsilon":
        return metric.value
    if metric.mode == "ricci":
        return HALF / metric.value
    if metric.mode == "canonical":
        if entry.canonical_epsilon is None:
            raise NoCanonicalMetric(f"no canonical metric preset for {entry.label}")
        return entry.canonical_epsilon
    raise ValueError(f"unknown metric mode {metric.mode!r}")  # pragma: no cover


def report(label: SpaceEntry | SpaceLabel | str,
           metric: MetricSpec = DEFAULT_METRIC) -> GeometryReport:
    """Compute the geometric quantities of a catalog space under a metric;
    a catalog entry (as ``enumerate_table`` yields) is used as it is."""
    entry = label if isinstance(label, SpaceEntry) else resolve(label)
    eps = _epsilon_for(entry, metric)
    psi_sq = entry.psi_sq_killing
    d_sq = _d_sq(entry.restricted)
    e, f = eps.numerator, eps.denominator
    a, b = psi_sq.numerator, psi_sq.denominator
    inj, kappa, ricci = _scaled(e, f, a, b)
    diameter = PiSqrtValue(Fraction(e * b * d_sq.numerator, f * a * d_sq.denominator))
    return GeometryReport(entry, eps, psi_sq, d_sq, inj, diameter, kappa, ricci)


# The rows of a table share a metric and a few dozen psi_sq values.
@lru_cache(maxsize=1024)
def _scaled(e: int, f: int, a: int, b: int) -> tuple[PiSqrtValue, Fraction, Fraction]:
    """(injectivity radius, kappa, ricci) for eps = e/f and psi_sq = a/b.
    Each value here and the diameter in ``report`` is one Fraction() of
    integer products, which reduces with one gcd, where Fraction's operators
    take two and a dispatch."""
    return PiSqrtValue(Fraction(e * b, f * a)), Fraction(f * a, e * b), Fraction(f, 2 * e)


def kappa_relation_check(rep: GeometryReport) -> Fraction:
    """i(M)^2 * kappa / pi^2 - 1; identically zero when the two formulas agree."""
    return rep.injectivity_radius.radicand * rep.kappa - 1


def product(reports: list[GeometryReport] | tuple[GeometryReport, ...]) -> tuple[PiSqrtValue, PiSqrtValue]:
    """Injectivity radius and diameter of a product of factors.

    The injectivity radius is the minimum over factors; the squared
    diameter is the sum of squared factor diameters.
    """
    if not reports:
        raise EmptyProduct("product of no factors")
    inj = min(r.injectivity_radius for r in reports)
    diam_sq = sum((r.diameter.radicand for r in reports), Fraction(0))
    return inj, PiSqrtValue(diam_sq)


def report_json_dict(rep: GeometryReport) -> dict:
    out = {"space": entry_json(rep.space)}
    out.update({
        "epsilon": format_rational(rep.epsilon),
        "ricci": format_rational(rep.ricci),
        "kappa": format_rational(rep.kappa),
        "psi_sq": format_rational(rep.psi_sq),
        "d_sq_sigma": format_rational(rep.d_sq_sigma),
        "injectivity_radius": rep.injectivity_radius.to_json(),
        "diameter": rep.diameter.to_json(),
    })
    return out
