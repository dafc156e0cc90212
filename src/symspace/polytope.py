"""The Cartan polytope of a root system and its metric extremes.

For an irreducible system with simple roots a_1..a_l and highest root
psi = sum d_i a_i, the polytope is the simplex cut out by (x, a_i) >= 0
and (x, psi) <= 1.  Its nonzero vertices e_1..e_l satisfy
(e_j, a_i) = delta_ij / d_j, so their coefficient vectors are scaled
columns of the inverse Gram matrix.  With the integer Gram matrix M/g of
``dynkin.gram_tree``, inv(Gram) = g adj M / det M, and
``build_polytope`` reads det M and adj M from ``tree_adjugate``: a
Dynkin diagram is a tree, and off the diagonal a cofactor on a tree is a
path product times the prefix and suffix continuants along its chain
(Usmani, Linear Algebra Appl. 212/213, 1994, for the chain), so both
come from one fold of the tree (``dynkin.fold_tree``) and no general
solve.  The farthest vertex and its norm come from the minors of the
same fold (``dynkin.farthest_vertex``).
The squared norm is convex, so its maximum over the far face is attained
at a vertex; the minimum over the far face is attained at psi/(psi,psi).

For non-reduced (bc) systems the chamber walls come from the indivisible
simple roots and the far face from psi = 2 * sum a_i; nothing else changes.

The slice predicates do not pass through this module: ``geometry``
calls the integer kernel of ``roots`` directly.  ``reflect_simple``
applies one reflection by its own rule, from the dense Cartan columns,
so that the benchmark's Weyl-invariance check does not lean on the
kernel it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dynkin import RootKind, farthest_vertex, fold_tree, gram_tree
from .linalg import Vector, format_rational
from .roots import RootSystem, cleared_point


class CartanPolytope(NamedTuple):
    system: RootSystem
    vertices: tuple[Vector, ...]          # e_1..e_l in simple-root coordinates
    vertex_norms_sq: tuple[Fraction, ...]
    i_sq: Fraction                        # squared distance of the nearest far-face point
    d_sq: Fraction                        # squared distance of the farthest vertex
    argmax_vertex: int                    # 0-based index into vertices


def tree_adjugate(kind: RootKind) -> tuple[int, list[list[int]]]:
    """(det M, adj M) = (det M, det M * M^{-1}) for the Gram tree M/g of
    ``dynkin.gram_tree``, from the continuants of ``dynkin.fold_tree``.

    On a tree, the cofactor of (k, j) is the product of -M along the path
    from k to j times the determinant of M minus the path's nodes.  For
    chain nodes k <= j that is the path product times pre[k] suf[j + 1],
    and times f when the path passes c (the leaf is then cut off alone).
    The leaf's path runs through c, so its row is -w times row c divided
    by f, and its diagonal entry is the bare chain's determinant.
    """
    a, b, leaf, _, _ = gram_tree(kind)
    pre, suf, bare = fold_tree(a, b, leaf)
    n = len(a)                           # chain nodes
    c, f, w = leaf or (-1, 1, 0)
    adj = [[0] * kind.rank for _ in range(kind.rank)]
    for k in range(n):
        run = pre[k]
        for j in range(k, n):
            if j > k:
                run *= -b[j - 1]
            if j == c:
                run *= f
            adj[k][j] = adj[j][k] = run * suf[j + 1]
    if leaf:
        adj[n] = [-w * x // f for x in adj[c][:n]] + [bare]
        for j in range(n):
            adj[j][n] = adj[n][j]
    return pre[-1], adj


def build_polytope(rs: RootSystem) -> CartanPolytope:
    """The polytope: with gram = M/g and (det M, adj M) from
    ``tree_adjugate``, inv(Gram) = g adj M / det M gives the vertices and,
    on its diagonal, the norms; ``farthest_vertex`` picks the largest."""
    g = rs.int_gram[1]
    det, adj = tree_adjugate(rs.kind)
    d = rs.highest_root
    l = rs.rank
    verts = tuple(tuple(Fraction(g * adj[k][j], det * d[j]) for k in range(l))
                  for j in range(l))
    norms = tuple(Fraction(g * adj[j][j], det * dj * dj) for j, dj in enumerate(d))
    d_sq, argmax = farthest_vertex(rs.kind)
    return CartanPolytope(
        system=rs,
        vertices=verts,
        vertex_norms_sq=norms,
        i_sq=Fraction(1),                # gram_tree scales (psi, psi) to 1
        d_sq=d_sq,
        argmax_vertex=argmax,
    )


def reflect_simple(rs: RootSystem, x, i: int) -> Vector:
    """Apply the simple reflection s_i to a coefficient vector, from the
    dense Cartan column i rather than the kernel's sparse rows."""
    n, den = cleared_point(rs, x)
    n[i] -= sum(nj * row[i] for nj, row in zip(n, rs.cartan))
    return tuple(Fraction(v, den) for v in n)


def to_json_dict(p: CartanPolytope) -> dict:
    return {
        "vertices": [[format_rational(c) for c in v] for v in p.vertices],
        "vertex_norms_sq": [format_rational(n) for n in p.vertex_norms_sq],
        "i_sq": format_rational(p.i_sq),
        "d_sq": format_rational(p.d_sq),
        "argmax_vertex": p.argmax_vertex,
    }
