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

``CutDetails`` is a named tuple: immutable, and equal to a plain tuple
of its fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .catalog import SpaceEntry, SpaceLabel, resolve
from .polytope import (SliceClass, _classify_cleared, _cleared_point, _pairings,
                       _reduce_dominant)
from .reporting import (DEFAULT_METRIC, EmptyProduct, GeometryReport,  # re-exported
                        MetricSpec, NoCanonicalMetric, kappa_relation_check,
                        product, report, report_json_dict)
from .roots import RootKind, RootSystem, build


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
