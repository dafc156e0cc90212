"""Rational-arithmetic reference helpers, used only by the tests.

The package computes inner products on integers (``RootSystem.int_gram``,
the pair (M, g) with gram = M/g); these are the plain Fraction products of
vectors and matrices (tuples of Fraction rows), the Fraction Gram matrix
and the Fraction formulas through it, and a Gauss-Jordan inverse, that the
tests compare it against.  ``reflection_closure`` is the root enumeration
that the height-ordered one of ``RootSystem.positive_roots`` replaced, and
``dot_product_conjugate`` is the conjugacy test
that the root chain of ``geometry`` replaced: one integer dot product of
the point with a Killing-Gram row per positive root.
``bareiss_vertex_norms`` is the vertex-norm route that the Dynkin-tree
minors of ``polytope.tree_minors`` replaced: the diagonal of one Bareiss
inverse.  ``three_pass_clear_denominators`` is the definition that the
one-pass ``linalg.clear_denominators`` replaced.  ``realized_gram`` and
``realized_cartan`` read the Dynkin diagram off the Euclidean realization
of the simple roots in ``oracle.float_simple_roots``, independently of the
diagram that ``roots`` derives its Cartan matrix and Gram pair from.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

import numpy as np

from symspace.linalg import DimensionMismatch, int_inverse
from symspace.oracle import float_simple_roots
from symspace.roots import RootKind

# Every kind whose roots are enumerated: at most MAX_ROOTS roots.
IN_CAP_KINDS = (
    [RootKind("a", l) for l in range(1, 22)]
    + [RootKind("b", l) for l in range(2, 16)]
    + [RootKind("c", l) for l in range(3, 16)]
    + [RootKind("d", l) for l in range(4, 17)]
    + [RootKind("bc", l) for l in range(1, 16)]
    + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
       RootKind("f", 4), RootKind("g", 2)]
)


@lru_cache(maxsize=8)
def gram(rs) -> tuple[tuple[Fraction, ...], ...]:
    """The Gram matrix M/g of ``rs.int_gram`` as Fraction rows (the last
    few are cached, as the tests call this inside loops)."""
    m, g = rs.int_gram
    return tuple(tuple(Fraction(x, g) for x in row) for row in m)


def matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Fraction rows of a matrix given by rows of rationals."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def cleared(m) -> tuple[list[list[int]], int]:
    """(D*m as integer rows, D) for D = lcm of the denominators of m."""
    m = matrix(m)
    d = lcm(*(x.denominator for r in m for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in m], d


def inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """The exact inverse through ``int_inverse``: m = N/d, so
    m^{-1} = d * y / delta with (y, delta) = int_inverse(N)."""
    ints, d = cleared(m)
    y, delta = int_inverse(ints)
    return tuple(tuple(Fraction(d * v, delta) for v in r) for r in y)


def gauss_jordan_inverse(rows):
    """Fraction Gauss-Jordan on [A | I]; None when A is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def dot(u, v) -> Fraction:
    """Plain coordinate dot product (no Gram matrix)."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mul_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(dot(r, v) for r in m)


def mul_mat(a, b) -> tuple[tuple[Fraction, ...], ...]:
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"{len(a[0])} != {len(b)}")
    cols = tuple(zip(*b))
    return tuple(tuple(dot(r, c) for c in cols) for r in a)


def scaled(m, c) -> tuple[tuple[Fraction, ...], ...]:
    c = Fraction(c)
    return tuple(tuple(c * x for x in r) for r in m)


def dot_gram(gram, u, v) -> Fraction:
    """u^T gram v for coefficient vectors u, v."""
    u = tuple(Fraction(x) for x in u)
    v = tuple(Fraction(x) for x in v)
    if len(u) != len(gram) or len(v) != len(gram):
        raise DimensionMismatch("vector length does not match Gram rank")
    return dot(u, mul_vec(gram, v))


def inner(rs, u, v) -> Fraction:
    """Inner product of coefficient vectors through the Fraction Gram matrix."""
    return dot_gram(gram(rs), u, v)


def root_norm_sq(rs, r) -> Fraction:
    """Squared length of a root given by its simple-root coefficients."""
    return dot_gram(gram(rs), r, r)


def perp_simple_indices_by_roots(rs) -> tuple[int, ...]:
    """0-based indices i with delta - a_i not a root, by root-list membership."""
    delta = rs.highest_root
    out = []
    for i in range(rs.rank):
        cand = list(delta)
        cand[i] -= 1
        t = tuple(cand)
        if t not in rs.roots and any(t):
            out.append(i)
    return tuple(out)


def killing_weights(rs, psi_sq) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Killing-Gram row action of each positive root of ``rs``, as integer
    rows W over one denominator den: the Killing pairing of h with the
    root is h . W_r / den, for psi_sq the highest root's Killing length."""
    m, g = rs.int_gram
    rows = tuple(tuple(psi_sq.numerator * sum(map(mul, row, r)) for row in m)
                 for r in sorted(rs.roots) if sum(r) > 0)
    return rows, psi_sq.denominator * g


def dot_product_conjugate(rs, psi_sq, n, d) -> bool:
    """Whether h = n / d pairs to a nonzero integer with some positive root,
    by |R+| dot products of n with ``killing_weights`` rows."""
    rows, den = killing_weights(rs, psi_sq)
    q = den * d
    for w in rows:
        v = sum(map(mul, n, w))
        if v and v % q == 0:
            return True
    return False


def reflection_closure(cartan) -> frozenset[tuple[int, ...]]:
    """All roots, by closing the simple roots under the simple reflections.

    s_j sends a coefficient vector b to b - (sum_i b_i A[i][j]) e_j;
    negatives arise since s_i(a_i) = -a_i.  For a non-reduced system this
    gives the indivisible roots of the Cartan matrix.
    """
    l = len(cartan)
    seen = {tuple(int(i == j) for j in range(l)) for i in range(l)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for r in frontier:
            for j in range(l):
                c = sum(r[i] * cartan[i][j] for i in range(l))
                img = r[:j] + (r[j] - c,) + r[j + 1:]
                if c and img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def realized_gram(kind) -> np.ndarray:
    """4 (a_i, a_j) of the realized simple roots, an integer array: their
    coordinates are 0, +-1/2, +-1 or 2, so every float product is an exact
    multiple of 1/4."""
    r = np.array(float_simple_roots(kind))
    g = 4 * (r @ r.T)
    assert (g == np.round(g)).all(), kind
    return g.astype(np.int64)


def realized_cartan(kind) -> tuple[tuple[int, ...], ...]:
    """A[i][j] = 2 (a_i, a_j) / (a_j, a_j) of the realized simple roots."""
    g = realized_gram(kind)
    two_g, diagonal = 2 * g, np.diag(g)
    assert not (two_g % diagonal).any(), kind
    return tuple(map(tuple, (two_g // diagonal).tolist()))


def bareiss_vertex_norms(rs) -> tuple[Fraction, ...]:
    """(e_j, e_j) = g y_jj / (delta d_j^2) from y = delta * M^{-1} of one
    Bareiss inverse of the integer Gram matrix M/g."""
    m, g = rs.int_gram
    y, delta = int_inverse(m)
    d = rs.highest_root
    return tuple(Fraction(g * y[j][j], delta * d[j] * d[j]) for j in range(rs.rank))


def three_pass_clear_denominators(xs) -> tuple[list[int], int]:
    """(D*x as integers, D) for D the lcm of the denominators of xs: convert,
    take the lcm, then scale, reading each denominator twice."""
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d
