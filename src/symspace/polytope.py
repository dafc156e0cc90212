"""The Cartan polytope of a root system and its metric extremes.

For an irreducible system with simple roots a_1..a_l and highest root
psi = sum d_i a_i, the polytope is the simplex cut out by (x, a_i) >= 0
and (x, psi) <= 1.  Its nonzero vertices e_1..e_l satisfy
(e_j, a_i) = delta_ij / d_j, so their coefficient vectors are scaled
columns of the inverse Gram matrix and (e_j, e_j) = (inv(Gram))_jj / d_j^2.
``build_polytope`` makes one fraction-free solve of the integer Gram
matrix of ``RootSystem.int_gram`` and builds each vertex coefficient and
each norm as a single Fraction of integers.
The squared norm is convex, so its maximum over the far face is attained
at a vertex; the minimum over the far face is attained at psi/(psi,psi).

For non-reduced (bc) systems the chamber walls come from the indivisible
simple roots and the far face from psi = 2 * sum a_i; nothing else changes.

The slice predicates run in integer coordinates, with the same answers
as rational arithmetic.  Their kernels take a point x = n/D as (n, D):
the reduction to the dominant chamber pairs n with the simple roots
through the integer Cartan matrix, and the cut-face level reads the
integer Gram matrix M/g of ``RootSystem.int_gram``.  ``geometry`` calls
the kernels directly; ``dominant_representative`` and ``classify_point``
wrap them for Fraction points.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .linalg import DimensionMismatch, Vector, clear_denominators, int_inverse
from .roots import RootSystem


class SliceClass(enum.Enum):
    """Where a dominant slice point sits relative to the polytope."""

    INTERIOR = "interior"
    ON_CUT_FACE = "on-cut-face"
    OUTSIDE = "outside"
    NOT_DOMINANT = "not-dominant"

    def __str__(self) -> str:
        return self.value


class CartanPolytope(NamedTuple):
    system: RootSystem
    vertices: tuple[Vector, ...]          # e_1..e_l in simple-root coordinates
    vertex_norms_sq: tuple[Fraction, ...]
    i_sq: Fraction                        # squared distance of the nearest far-face point
    d_sq: Fraction                        # squared distance of the farthest vertex
    argmax_vertex: int                    # 0-based index into vertices


def build_polytope(rs: RootSystem) -> CartanPolytope:
    """The polytope from one integer solve: with gram = M/g and
    y = delta * M^{-1}, inv(Gram) = g * y / delta."""
    m, g = rs.int_gram
    y, delta = int_inverse(m)
    d = rs.highest_root
    l = rs.rank
    verts = tuple(tuple(Fraction(g * y[k][j], delta * d[j]) for k in range(l))
                  for j in range(l))
    norms = [Fraction(g * y[j][j], delta * d[j] * d[j]) for j in range(l)]
    d_sq = max(norms)
    return CartanPolytope(
        system=rs,
        vertices=verts,
        vertex_norms_sq=tuple(norms),
        i_sq=1 / rs.psi_sq,
        d_sq=d_sq,
        argmax_vertex=norms.index(d_sq),
    )


def _cleared_point(rs: RootSystem, x) -> tuple[list[int], int]:
    """(n, D) with x == n / D, for a point in simple-root coordinates of rs."""
    n, den = clear_denominators(x)
    if len(n) != rs.rank:
        raise DimensionMismatch(f"point length {len(n)} != rank {rs.rank}")
    return n, den


def _classify_cleared(rs: RootSystem, n: list[int], den: int) -> SliceClass:
    """classify_point for the point n/den, on integers: with gram = M/g the
    pairings (a_i, x) are (Mn)_i / (g den) and the cut face is level g den."""
    m, g = rs.int_gram
    w = [sum(map(mul, row, n)) for row in m]
    if any(wi < 0 for wi in w):
        return SliceClass.NOT_DOMINANT
    level, one = sum(map(mul, rs.highest_root, w)), g * den
    if level > one:
        return SliceClass.OUTSIDE
    if level == one:
        return SliceClass.ON_CUT_FACE
    return SliceClass.INTERIOR


def _reduce_dominant(rs: RootSystem, n: list[int]) -> int:
    """dominant_representative on the numerators n of a point over any
    common denominator: reduces n in place, returns the reflection count.

    p_k = sum_j n_j A[j][k] has the sign of (a_k, x), and s_i sends n_i to
    n_i - p_i; that changes only the p_k with A[i][k] != 0, and no wall
    below the first such k can have become violated.
    """
    rows = rs.cartan_rows
    p = [0] * rs.rank
    for nj, row in zip(n, rows):
        if nj:
            for k, a in row:
                p[k] += nj * a
    count = 0
    i = 0
    while i < rs.rank:
        c = p[i]
        if c >= 0:
            i += 1
            continue
        n[i] -= c
        for k, a in rows[i]:
            p[k] -= c * a
        count += 1
        i = rows[i][0][0]
    return count


def classify_point(p: CartanPolytope, x) -> SliceClass:
    """Classify a point given in simple-root coordinates of the stored system.

    Units: the Gram matrix of the system, under which the cut face is the
    exact level set (x, psi) = 1.
    """
    return _classify_cleared(p.system, *_cleared_point(p.system, x))


def dominant_representative(rs: RootSystem, x) -> tuple[Vector, int]:
    """Reduce x into the closed dominant chamber by simple reflections.

    Reflects at the lowest-index violated wall until none remains; the
    result is the unique dominant point in the Weyl orbit of x.  Returns
    (representative, number of reflections applied).
    """
    n, den = _cleared_point(rs, x)
    count = _reduce_dominant(rs, n)
    return tuple(Fraction(v, den) for v in n), count


def reflect_simple(rs: RootSystem, x, i: int) -> Vector:
    """Apply the simple reflection s_i to a coefficient vector."""
    n, den = _cleared_point(rs, x)
    n[i] -= sum(nj * row[i] for nj, row in zip(n, rs.cartan))
    return tuple(Fraction(v, den) for v in n)


def to_json_dict(p: CartanPolytope) -> dict:
    from .linalg import format_rational
    return {
        "vertices": [[format_rational(c) for c in v] for v in p.vertices],
        "vertex_norms_sq": [format_rational(n) for n in p.vertex_norms_sq],
        "i_sq": format_rational(p.i_sq),
        "d_sq": format_rational(p.d_sq),
        "argmax_vertex": p.argmax_vertex,
    }
