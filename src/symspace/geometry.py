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

Each predicate makes one call of the integer slice kernel of ``roots``,
``dominant_slice``, which reduces h to its dominant representative and
reads both the class and conjugacy off the level (h, psi) there: the
cut face is the first conjugate locus (Crittenden, Canad. J. Math. 14,
1962; Sakai, Hokkaido Math. J. 6, 1977), so a point inside the
polytope is not conjugate, one at an integer level is, and the root
test runs only past the face at a non-integer level.  What this module
adds is the Killing-unit glue: a label gives the restricted system and
psi_sq_killing = a/b, and h in Killing units is the point a h / b in
the kernel's Gram units.  Conjugacy is Weyl-invariant, and the classical
kinds answer with no root listed, at every rank.  Fractions are built
only for the dominant representative ``cut_details`` returns.  The
predicates take a label, or a catalog entry, used as it is.

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
from .roots import RootKind, RootSystem, SliceClass, build, dominant_slice


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


def _slice(label: SpaceEntry | SpaceLabel | str,
           h) -> tuple[list[int], int, int, SliceClass, bool]:
    """``roots.dominant_slice`` of h, in Killing units, on the label's
    restricted system; a catalog entry is used as it is."""
    if isinstance(label, SpaceEntry):
        rs, psi_sq = _system(label.restricted), label.psi_sq_killing
    else:
        rs, psi_sq = _slice_data(label)
    return dominant_slice(rs, h, psi_sq.numerator, psi_sq.denominator)


def is_conjugate(label: SpaceEntry | SpaceLabel | str, h) -> bool:
    """True when some restricted root pairs to a nonzero integer with h.

    h is a rational vector in simple-root coordinates of the restricted
    system, Killing units, divided by pi.
    """
    return _slice(label, h)[4]


def cut_classify(label: SpaceEntry | SpaceLabel | str, h) -> SliceClass:
    """Classify a Killing-unit slice vector against the cut face.

    The vector is first reduced to its dominant representative, so the
    result is invariant under the restricted Weyl group; Interior means
    the ray is still minimizing past this point, the cut face marks cut
    points, Outside lies beyond them.
    """
    return _slice(label, h)[3]


def cut_details(label: SpaceEntry | SpaceLabel | str, h) -> CutDetails:
    """cut_classify's answer with the dominant representative, the number
    of reflections that reached it, and is_conjugate's answer."""
    n, d, nrefl, cls, conj = _slice(label, h)
    return CutDetails(classification=cls,
                      dominant_representative=tuple(Fraction(v, d) for v in n),
                      reflections=nrefl, conjugate=conj)
