"""Conjugate-point and cut predicates on the Cartan slice of a space.

The report path (``report``, ``MetricSpec``, ``GeometryReport``,
``product``, ``report_json_dict`` and ``kappa_relation_check``) lives in
``reporting``, so a process that only reports compiles none of this
module; it is re-exported here, and ``geometry.report`` is the same
function.

The predicates work in Killing units, with inputs pre-divided by pi: a
slice vector h is conjugate when some restricted root has nonzero
integer inner product with it, and the cut face is the unit level of
the highest root on the dominant chamber.
Mapping a general tangent vector to its slice representative is outside
this module; callers supply slice coordinates.

A point's denominators are cleared once, h = n/D, and the predicates
then call the integer slice kernel of ``roots`` on one pairing vector
p = nA (A the Cartan matrix): ``reduce_dominant``, then ``level_class``
for the cut face and ``conjugate`` for conjugacy.  What this module
adds is the Killing-unit glue: a label gives the restricted system and
psi_sq_killing = a/b, and h in Killing units is the point a n / (b D)
in the kernel's Gram units, which the kernel reads as (a, b D).  A root
and its negative pair to opposite values, so the positive roots decide
conjugacy alone; the classical kinds answer with no root listed, at
every rank.  Fractions are built only for the dominant representative
``cut_details`` returns.  The predicates take a label, or a catalog
entry, used as it is.

``CutDetails`` is a named tuple: immutable, and equal to a plain tuple
of its fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .catalog import SpaceEntry, SpaceLabel, resolve
from .reporting import (DEFAULT_METRIC, EmptyProduct, GeometryReport,  # re-exported
                        MetricSpec, NoCanonicalMetric, kappa_relation_check,
                        product, report, report_json_dict)
from .roots import (RootKind, RootSystem, SliceClass, build, cleared_point, conjugate,
                    level_class, pairings, reduce_dominant)


@lru_cache(maxsize=None)
def _system(kind: RootKind) -> RootSystem:
    return build(kind)


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
    return (rs, psi_sq, *cleared_point(rs, h))


def is_conjugate(label: SpaceEntry | SpaceLabel | str, h) -> bool:
    """True when some restricted root pairs to a nonzero integer with h.

    h is a rational vector in simple-root coordinates of the restricted
    system, Killing units, divided by pi.
    """
    rs, psi_sq, n, d = _slice_point(label, h)
    return conjugate(rs, pairings(rs, n), psi_sq.numerator, psi_sq.denominator * d)


def cut_classify(label: SpaceEntry | SpaceLabel | str, h) -> SliceClass:
    """Classify a Killing-unit slice vector against the cut face.

    The vector is first reduced to its dominant representative, so the
    result is invariant under the restricted Weyl group; Interior means
    the ray is still minimizing past this point, the cut face marks cut
    points, Outside lies beyond them.
    """
    rs, psi_sq, n, d = _slice_point(label, h)
    p = pairings(rs, n)
    reduce_dominant(rs, n, p)
    return level_class(rs, p, psi_sq.numerator, psi_sq.denominator * d)


def cut_details(label: SpaceEntry | SpaceLabel | str, h) -> CutDetails:
    """cut_classify's answer with the dominant representative, the number
    of reflections that reached it, and is_conjugate's answer."""
    rs, psi_sq, n, d = _slice_point(label, h)
    a, den = psi_sq.numerator, psi_sq.denominator * d
    p = pairings(rs, n)
    conj = conjugate(rs, p, a, den)
    nrefl = reduce_dominant(rs, n, p)
    return CutDetails(classification=level_class(rs, p, a, den),
                      dominant_representative=tuple(Fraction(v, d) for v in n),
                      reflections=nrefl, conjugate=conj)
