"""Physical geometry of a symmetric space from its catalog entry.

The metric is a positive multiple of the negated Killing form,
<,> = -eps (,); the space is then Einstein with Ricci constant 1/(2 eps).
With psi the highest restricted root in Killing units:

    i(M)^2 = pi^2 * eps / (psi, psi)
    d(M)^2 = pi^2 * eps * dmax^2 / (psi, psi)
    kappa  = (psi, psi) / eps          (max sectional curvature)

where dmax^2 is the squared farthest-vertex norm of the restricted
system's Cartan polytope under highest-root normalization, so that
i(M) * sqrt(kappa) = pi exactly.  A report needs one catalog entry,
which it takes as given when passed one, and dmax^2, which is cached
per restricted kind.

Conjugate-point and cut predicates operate on the Cartan slice in Killing
units, with inputs pre-divided by pi: a slice vector h is conjugate when
some restricted root has nonzero integer inner product with it, and the
cut face is the unit level of the highest root on the dominant chamber.
Mapping a general tangent vector to its slice representative is outside
this module; callers supply slice coordinates.

A point's denominators are cleared once, h = n/D, and the predicates
then run on integers from one pairing vector p = nA (A the Cartan
matrix), with psi_sq_killing = a/b and the Gram matrix M/g.  The
Killing pairing of h with a root r is a v_r / (2 b g D) for
v_r = sum_k r_k M_kk p_k, so h is conjugate iff some positive root has
v_r != 0 and a v_r = 0 (mod 2 b g D).  Every positive root past the
simple ones is a root of height one less plus a simple root a_j
(Humphreys, Introduction to Lie Algebras and Representation Theory,
10.2), so the chain of (parent, j) in height order that
``RootSystem.positive_roots`` records as it enumerates the roots gives
each v_r as v_parent + M_jj p_j: one addition per positive root.  A root
and its negative pair to opposite values, so the positive roots decide
conjugacy alone.  Conjugacy is refused past MAX_ROOTS, where the roots
are not enumerated; the cut face needs only p (see ``polytope``).
Fractions are built only for the dominant representative ``cut_details``
returns.  The predicates take a label, or a catalog entry, used as it is.

``MetricSpec``, ``GeometryReport`` and ``CutDetails`` are named tuples:
immutable, and equal to plain tuples of their fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .catalog import SpaceEntry, SpaceLabel, resolve, to_json_dict as entry_json
from .linalg import PiSqrtValue, format_rational
from .polytope import (SliceClass, _classify_cleared, _cleared_point, _pairings,
                       _reduce_dominant, build_polytope)
from .roots import RootKind, RootSystem, build


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
def _system(kind: RootKind) -> RootSystem:
    return build(kind)


@lru_cache(maxsize=None)
def _d_sq(kind: RootKind) -> Fraction:
    """d_sq of a kind's polytope, all a report reads of it: neither the
    polytope (l^2 Fraction vertices) nor the root system is kept."""
    return build_polytope(build(kind)).d_sq


def _epsilon_for(entry: SpaceEntry, metric: MetricSpec) -> Fraction:
    if metric.mode == "epsilon":
        return metric.value
    if metric.mode == "ricci":
        return Fraction(1, 2) / metric.value
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
    return GeometryReport(
        space=entry,
        epsilon=eps,
        psi_sq=psi_sq,
        d_sq_sigma=d_sq,
        injectivity_radius=PiSqrtValue(eps / psi_sq),
        diameter=PiSqrtValue(eps * d_sq / psi_sq),
        kappa=psi_sq / eps,
        ricci=Fraction(1, 2) / eps,
    )


def kappa_relation_check(rep: GeometryReport) -> Fraction:
    """i(M)^2 * kappa / pi^2 - 1; identically zero when the two formulas agree."""
    return rep.injectivity_radius.radicand * rep.kappa - 1


_SLICE_CACHE_SIZE = 256      # labels kept by the slice label cache


@lru_cache(maxsize=_SLICE_CACHE_SIZE)
def _slice_data(label: SpaceLabel | str) -> tuple[RootSystem, Fraction]:
    """The restricted system and psi_sq_killing of a label: all the slice
    predicates read of its entry, which (with its black-node set) is dropped."""
    entry = resolve(label)
    return _system(entry.restricted), entry.psi_sq_killing


class CutDetails(NamedTuple):
    classification: SliceClass
    dominant_representative: tuple[Fraction, ...]
    reflections: int
    conjugate: bool


def _slice_point(label: SpaceEntry | SpaceLabel | str,
                 h) -> tuple[RootSystem, Fraction, list[int], int]:
    """(rs, psi_sq_killing, n, D) with h == n / D; a catalog entry is used
    as it is."""
    if isinstance(label, SpaceEntry):
        rs, psi_sq = _system(label.restricted), label.psi_sq_killing
    else:
        rs, psi_sq = _slice_data(label)
    return (rs, psi_sq, *_cleared_point(rs, h))


def _conjugate(rs: RootSystem, psi_sq: Fraction, p: list[int], d: int) -> bool:
    """is_conjugate for h = n / d, given p = nA.

    With gram = M/g and psi_sq = a/b, the Killing pairing of h with a
    root r is a v_r / (2 b g d), v_r = sum_k r_k M_kk p_k; each v_r is the
    v of the root's chain parent plus one v of a simple root."""
    _, chain = rs.positive_roots
    v = list(map(mul, rs.gram_diagonal, p))
    a = psi_sq.numerator
    q = 2 * psi_sq.denominator * rs.int_gram[1] * d
    q //= gcd(a, q)                   # a v_r = 0 (mod 2bgd) iff v_r = 0 (mod q)
    for x in v:
        if x and x % q == 0:
            return True
    for parent, j in chain:
        x = v[parent] + v[j]
        if x and x % q == 0:
            return True
        v.append(x)
    return False


def _classify(rs: RootSystem, psi_sq: Fraction, n: list[int], d: int,
              p: list[int]) -> tuple[SliceClass, int]:
    """Reduce n and its pairing vector p in place to the dominant
    representative and classify it in Gram units, where it is
    psi_sq * n / d = (a n) / (b d) for psi_sq = a/b."""
    nrefl = _reduce_dominant(rs, n, p)
    return _classify_cleared(rs, p, psi_sq.numerator, psi_sq.denominator * d), nrefl


def is_conjugate(label: SpaceEntry | SpaceLabel | str, h) -> bool:
    """True when some restricted root pairs to a nonzero integer with h.

    h is a rational vector in simple-root coordinates of the restricted
    system, Killing units, divided by pi.
    """
    rs, psi_sq, n, d = _slice_point(label, h)
    return _conjugate(rs, psi_sq, _pairings(rs, n), d)


def cut_classify(label: SpaceEntry | SpaceLabel | str, h) -> SliceClass:
    """Classify a Killing-unit slice vector against the cut face.

    The vector is first reduced to its dominant representative, so the
    result is invariant under the restricted Weyl group; Interior means
    the ray is still minimizing past this point, the cut face marks cut
    points, Outside lies beyond them.
    """
    rs, psi_sq, n, d = _slice_point(label, h)
    return _classify(rs, psi_sq, n, d, _pairings(rs, n))[0]


def cut_details(label: SpaceEntry | SpaceLabel | str, h) -> CutDetails:
    """cut_classify's answer with the dominant representative, the number
    of reflections that reached it, and is_conjugate's answer."""
    rs, psi_sq, n, d = _slice_point(label, h)
    p = _pairings(rs, n)
    # Conjugacy first: it needs the roots, so a system past MAX_ROOTS is
    # refused before any work on the point, whatever the point is.
    conjugate = _conjugate(rs, psi_sq, p, d)
    cls, nrefl = _classify(rs, psi_sq, n, d, p)
    return CutDetails(classification=cls,
                      dominant_representative=tuple(Fraction(v, d) for v in n),
                      reflections=nrefl, conjugate=conjugate)


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
