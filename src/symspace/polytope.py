"""The Cartan polytope of a root system and its metric extremes.

For an irreducible system with simple roots a_1..a_l and highest root
psi = sum d_i a_i, the polytope is the simplex cut out by (x, a_i) >= 0
and (x, psi) <= 1.  Its nonzero vertices e_1..e_l satisfy
(e_j, a_i) = delta_ij / d_j, so their coefficient vectors are scaled
columns of the inverse Gram matrix and (e_j, e_j) = (inv(Gram))_jj / d_j^2.
The squared norm is convex, so its maximum over the far face is attained
at a vertex; the minimum over the far face is attained at psi/(psi,psi).

For non-reduced (bc) systems the chamber walls come from the indivisible
simple roots and the far face from psi = 2 * sum a_i; nothing else changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .linalg import DimensionMismatch, Vector
from .roots import RootSystem, dot_gram


class SliceClass(enum.Enum):
    """Where a dominant slice point sits relative to the polytope."""

    INTERIOR = "interior"
    ON_CUT_FACE = "on-cut-face"
    OUTSIDE = "outside"
    NOT_DOMINANT = "not-dominant"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CartanPolytope:
    system: RootSystem
    vertices: tuple[Vector, ...]          # e_1..e_l in simple-root coordinates
    vertex_norms_sq: tuple[Fraction, ...]
    i_sq: Fraction                        # squared distance of the nearest far-face point
    d_sq: Fraction                        # squared distance of the farthest vertex
    argmax_vertex: int                    # 0-based index into vertices


def build_polytope(rs: RootSystem) -> CartanPolytope:
    inv = rs.gram.invert()
    d = rs.highest_root
    l = rs.rank
    verts = []
    norms = []
    for j in range(l):
        coeffs = tuple(inv[k, j] / d[j] for k in range(l))
        verts.append(coeffs)
        norms.append(inv[j, j] / (d[j] * d[j]))
    psi_sq = dot_gram(rs.gram, d, d)
    d_sq = max(norms)
    return CartanPolytope(
        system=rs,
        vertices=tuple(verts),
        vertex_norms_sq=tuple(norms),
        i_sq=Fraction(1) / psi_sq,
        d_sq=d_sq,
        argmax_vertex=norms.index(d_sq),
    )


def classify_point(p: CartanPolytope, x) -> SliceClass:
    """Classify a point given in simple-root coordinates of the stored system.

    Units: the Gram matrix of the system, under which the cut face is the
    exact level set (x, psi) = 1.
    """
    rs = p.system
    x = tuple(Fraction(c) for c in x)
    if len(x) != rs.rank:
        raise DimensionMismatch(f"point length {len(x)} != rank {rs.rank}")
    w = rs.gram.mul_vec(x)
    if any(wi < 0 for wi in w):
        return SliceClass.NOT_DOMINANT
    level = sum((Fraction(di) * wi for di, wi in zip(rs.highest_root, w)), Fraction(0))
    if level > 1:
        return SliceClass.OUTSIDE
    if level == 1:
        return SliceClass.ON_CUT_FACE
    return SliceClass.INTERIOR


def dominant_representative(rs: RootSystem, x) -> tuple[Vector, int]:
    """Reduce x into the closed dominant chamber by simple reflections.

    Reflects at the lowest-index violated wall until none remains; the
    result is the unique dominant point in the Weyl orbit of x.  Returns
    (representative, number of reflections applied).
    """
    cur = list(Fraction(c) for c in x)
    if len(cur) != rs.rank:
        raise DimensionMismatch(f"point length {len(cur)} != rank {rs.rank}")
    gram = rs.gram
    count = 0
    while True:
        w = gram.mul_vec(tuple(cur))
        for i, wi in enumerate(w):
            if wi < 0:
                cur[i] -= 2 * wi / gram[i, i]
                count += 1
                break
        else:
            return tuple(cur), count


def reflect_simple(rs: RootSystem, x, i: int) -> Vector:
    """Apply the simple reflection s_i to a coefficient vector."""
    cur = list(Fraction(c) for c in x)
    w = rs.gram.mul_vec(tuple(cur))[i]
    cur[i] -= 2 * w / rs.gram[i, i]
    return tuple(cur)


def to_json_dict(p: CartanPolytope) -> dict:
    from .linalg import format_rational
    return {
        "vertices": [[format_rational(c) for c in v] for v in p.vertices],
        "vertex_norms_sq": [format_rational(n) for n in p.vertex_norms_sq],
        "i_sq": format_rational(p.i_sq),
        "d_sq": format_rational(p.d_sq),
        "argmax_vertex": p.argmax_vertex,
    }
