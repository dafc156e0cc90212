"""The Cartan polytope of a root system and its metric extremes.

For an irreducible system with simple roots a_1..a_l and highest root
psi = sum d_i a_i, the polytope is the simplex cut out by (x, a_i) >= 0
and (x, psi) <= 1.  Its nonzero vertices e_1..e_l satisfy
(e_j, a_i) = delta_ij / d_j, so their coefficient vectors are scaled
columns of the inverse Gram matrix and (e_j, e_j) = (inv(Gram))_jj / d_j^2.
With the integer Gram matrix M/g of ``RootSystem.int_gram``,
(inv(Gram))_jj = g det(M minus node j) / det M.  A Dynkin diagram is a
tree, and elimination on a tree makes no fill-in (Parter, SIAM Rev. 3,
1961), so ``tree_minors`` reads det M and every det(M minus node j) from
prefix and suffix continuants along the chain, in O(l) integer products.
``farthest_vertex`` picks d_sq from them by cross-multiplication and
builds one Fraction; it is all a report needs.  ``build_polytope`` also
forms the vertices, from ``tree_adjugate``: off the diagonal, a cofactor
on a tree is a path product times the same continuants (Usmani, Linear
Algebra Appl. 212/213, 1994, for the chain), so det M and adj M come
from one fold of the tree and no general solve.
The squared norm is convex, so its maximum over the far face is attained
at a vertex; the minimum over the far face is attained at psi/(psi,psi).

For non-reduced (bc) systems the chamber walls come from the indivisible
simple roots and the far face from psi = 2 * sum a_i; nothing else changes.

The slice predicates run in integer coordinates, with the same answers
as rational arithmetic.  Their kernels take a point x = n/D as (n, D)
and its pairing vector p = nA, A the Cartan matrix (``_pairings``): p_k
has the sign of (a_k, x).  The reduction to the dominant chamber keeps
p current as it reflects, and the cut-face level reads it in O(l): with
the integer Gram matrix M/g of ``RootSystem.int_gram``, (M n)_k =
M_kk p_k / 2, so (x, psi) = sum_k psi_k M_kk p_k / (2 g D).  ``geometry``
calls the kernels directly; ``dominant_representative`` and
``classify_point`` wrap them for Fraction points.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .linalg import DimensionMismatch, Vector, clear_denominators
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


def _continuants(a: list[int], b: list[int]) -> list[int]:
    """p_k, the determinant of the tridiagonal matrix on nodes 0..k-1 with
    diagonal a and off-diagonal products b_k = T[k][k+1] T[k+1][k], for
    k = 0..len(a)."""
    p = [1, a[0]]
    for k in range(1, len(a)):
        p.append(a[k] * p[k] - b[k - 1] * p[k - 1])
    return p


def _folded(m) -> tuple[list[int], list[int], tuple[int, int, int] | None]:
    """(pre, suf, fork) for a square integer matrix M on a Dynkin diagram
    in this package's numbering: a chain, or for d and e a chain 0..l-2
    and the leaf l-1 on the chain node c with M[c][l-1] != 0.

    pre[k] and suf[k] are the continuants of the chain nodes before k and
    from k on.  For d and e the leaf (diagonal f != 0, coupling product
    w = M[c][leaf] M[leaf][c]) is first eliminated into node c: with row c
    scaled by f, the leaf's Schur complement is a chain whose a_c is
    f a_c - w and whose two products at c are f times as large, and a
    continuant over a block holding c is the determinant of that block
    with the leaf.  fork is (c, f, the bare chain's determinant), or None
    on a chain.
    """
    l = len(m)
    a = [m[k][k] for k in range(l)]
    b = [m[k][k + 1] * m[k + 1][k] for k in range(l - 1)]
    fork = None
    if l > 2 and not b[-1]:              # d, e: node l-1 hangs off the chain
        c = next(k for k in range(l - 2) if m[k][l - 1])
        f = a.pop()
        b.pop()
        fork = c, f, _continuants(a, b)[-1]
        a[c] = f * a[c] - m[c][l - 1] * m[l - 1][c]
        if c:
            b[c - 1] *= f
        b[c] *= f
    return _continuants(a, b), _continuants(a[::-1], b[::-1])[::-1], fork


def tree_minors(m) -> tuple[int, list[int]]:
    """(det M, [det(M minus node j) for each j]) for M as in ``_folded``.

    Removing chain node j leaves the blocks before and after it, so its
    minor is pre[j] * suf[j + 1]; M minus c is f times the blocks beside
    c, and M minus the leaf is the bare chain.
    """
    pre, suf, fork = _folded(m)
    minors = [pre[j] * suf[j + 1] for j in range(len(pre) - 1)]
    if fork:
        c, f, chain_det = fork
        minors[c] *= f
        minors.append(chain_det)
    return pre[-1], minors


def tree_adjugate(m) -> tuple[int, list[list[int]]]:
    """(det M, adj M) = (det M, det M * M^{-1}) for a symmetric M as in
    ``_folded``, from the same continuants as ``tree_minors``.

    On a tree, the cofactor of (k, j) is the product of -M along the path
    from k to j times the determinant of M minus the path's nodes.  For
    chain nodes k <= j that is the path product times pre[k] suf[j + 1],
    and times f when the path passes c (the leaf is then cut off alone).
    The leaf's path runs through c, so its row is -M[leaf][c] times row c
    divided by f, and its diagonal entry is the bare chain's determinant.
    """
    l = len(m)
    pre, suf, fork = _folded(m)
    n = len(pre) - 1                     # chain nodes
    c, f, chain_det = fork or (-1, 1, 0)
    adj = [[0] * l for _ in range(l)]
    for k in range(n):
        run = pre[k]
        for j in range(k, n):
            if j > k:
                run *= -m[j - 1][j]
            if j == c:
                run *= f
            adj[k][j] = adj[j][k] = run * suf[j + 1]
    if fork:
        w = -m[l - 1][c]
        adj[l - 1] = [w * x // f for x in adj[c][:n]] + [chain_det]
        for j in range(n):
            adj[j][l - 1] = adj[l - 1][j]
    return pre[-1], adj


def _norm_sq(g: int, det: int, minor: int, d: int) -> Fraction:
    """(e_j, e_j) = (inv(Gram))_jj / d_j^2 = g det(M minus j) / (det M d_j^2)."""
    return Fraction(g * minor, det * d * d)


def farthest_vertex(rs: RootSystem) -> tuple[Fraction, int]:
    """(d_sq, argmax_vertex) of the polytope from ``tree_minors``, without
    the vertices: the first largest norm, found by cross-multiplying the
    candidates (det M and g are positive), then one Fraction."""
    m, g = rs.int_gram
    det, minors = tree_minors(m)
    d = rs.highest_root
    best = 0
    for j in range(1, rs.rank):
        if minors[j] * d[best] * d[best] > minors[best] * d[j] * d[j]:
            best = j
    return _norm_sq(g, det, minors[best], d[best]), best


def build_polytope(rs: RootSystem) -> CartanPolytope:
    """The polytope: with gram = M/g and (det M, adj M) from
    ``tree_adjugate``, inv(Gram) = g adj M / det M gives the vertices and,
    on its diagonal, the norms."""
    m, g = rs.int_gram
    det, adj = tree_adjugate(m)
    d = rs.highest_root
    l = rs.rank
    verts = tuple(tuple(Fraction(g * adj[k][j], det * d[j]) for k in range(l))
                  for j in range(l))
    norms = tuple(_norm_sq(g, det, adj[j][j], dj) for j, dj in enumerate(d))
    d_sq = max(norms)
    return CartanPolytope(
        system=rs,
        vertices=verts,
        vertex_norms_sq=norms,
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


def _pairings(rs: RootSystem, n: list[int]) -> list[int]:
    """p = nA for the numerators n of a point x over any common denominator:
    p_k = sum_j n_j A[j][k] has the sign of (a_k, x)."""
    p = [0] * rs.rank
    for nj, row in zip(n, rs.cartan_rows):
        if nj:
            for k, a in row:
                p[k] += nj * a
    return p


def _classify_cleared(rs: RootSystem, p: list[int], a: int, den: int) -> SliceClass:
    """classify_point for the point a n / den, given p = nA (a > 0).

    With gram = M/g, (M n)_k = p_k M_kk / 2, so (a_k, x) has the sign of
    p_k and the level (x, psi) is a sum_k psi_k M_kk p_k / (2 g den).
    """
    if min(p) < 0:
        return SliceClass.NOT_DOMINANT
    level = a * sum(map(mul, rs.highest_root, map(mul, rs.gram_diagonal, p)))
    one = 2 * rs.int_gram[1] * den
    if level > one:
        return SliceClass.OUTSIDE
    if level == one:
        return SliceClass.ON_CUT_FACE
    return SliceClass.INTERIOR


def _reduce_dominant(rs: RootSystem, n: list[int], p: list[int]) -> int:
    """dominant_representative on the numerators n of a point over any
    common denominator, with p = nA: reduces n in place and keeps p its
    pairing vector, returns the reflection count.

    s_i sends n_i to n_i - p_i; that changes only the p_k with
    A[i][k] != 0, and no wall below the first such k can have become
    violated.
    """
    rows = rs.cartan_rows
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
    n, den = _cleared_point(p.system, x)
    return _classify_cleared(p.system, _pairings(p.system, n), 1, den)


def dominant_representative(rs: RootSystem, x) -> tuple[Vector, int]:
    """Reduce x into the closed dominant chamber by simple reflections.

    Reflects at the lowest-index violated wall until none remains; the
    result is the unique dominant point in the Weyl orbit of x.  Returns
    (representative, number of reflections applied).
    """
    n, den = _cleared_point(rs, x)
    count = _reduce_dominant(rs, n, _pairings(rs, n))
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
