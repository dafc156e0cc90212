"""Rational-arithmetic reference helpers, used only by the tests.

The package computes inner products on integers (``RootSystem.int_gram``);
these are the plain Fraction products of vectors and ``Matrix`` values,
and the Fraction formulas through the stored Gram matrix, that the tests
compare it against.
"""

from fractions import Fraction

from symspace.linalg import DimensionMismatch, Matrix


def dot(u, v) -> Fraction:
    """Plain coordinate dot product (no Gram matrix)."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mul_vec(m: Matrix, v) -> tuple[Fraction, ...]:
    if len(v) != m.cols:
        raise DimensionMismatch(f"matrix cols {m.cols} != vector length {len(v)}")
    return tuple(dot(r, v) for r in m.entries)


def mul_mat(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.cols} != {b.rows}")
    cols = tuple(zip(*b.entries))
    return Matrix(tuple(tuple(dot(r, c) for c in cols) for r in a.entries))


def scaled(m: Matrix, c) -> Matrix:
    c = Fraction(c)
    return Matrix(tuple(tuple(c * x for x in r) for r in m.entries))


def dot_gram(gram, u, v) -> Fraction:
    """u^T gram v for coefficient vectors u, v."""
    u = tuple(Fraction(x) for x in u)
    v = tuple(Fraction(x) for x in v)
    if len(u) != gram.rows or len(v) != gram.cols:
        raise DimensionMismatch("vector length does not match Gram rank")
    return dot(u, mul_vec(gram, v))


def inner(rs, u, v) -> Fraction:
    """Inner product of coefficient vectors through the stored Gram matrix."""
    return dot_gram(rs.gram, u, v)


def root_norm_sq(rs, r) -> Fraction:
    """Squared length of a root given by its simple-root coefficients."""
    return dot_gram(rs.gram, r, r)


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
