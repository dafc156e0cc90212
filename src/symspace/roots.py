"""Irreducible root systems in simple-root coordinates, and the integer
slice kernel that runs on their Cartan data.

Each family is described once, by its Dynkin diagram (``dynkin``, whose
public names this module re-exports).  ``build`` lays out the diagram's
integer Gram tree (``dynkin.gram_tree``) as dense rows M over one positive
denominator g, gram = M/g with the highest root of squared length 1, and
reads the Cartan matrix off them; that is all the Cartan polytope needs.
The roots themselves (integer coefficient vectors over the simple roots)
are enumerated on first access, and only for systems of at most
MAX_ROOTS roots.  One pass builds the positive roots level by level in
height from simple-root strings, and records how each is reached from a
root one level below: the chain that ``chain_walk`` follows.  The root
counts that ``to_json_dict`` reports are the closed forms of
``dynkin.root_count``.

The slice kernel works in integers, with the same answers as rational
arithmetic.  It takes a point as (n, D) (``cleared_point``) and its
pairing vector p = nA, A the Cartan matrix (``pairings``).
``reduce_dominant`` keeps p current as it reflects into the dominant
chamber.  ``level_class`` and ``chain_walk`` read the point as
x = a n / den in Gram units (``geometry`` passes psi_sq_killing = a/b as
a and b D), and only they read g: as (M n)_k = M_kk p_k / 2, a root r
pairs with x to a v_r / (2 g den), v_r = sum_k r_k M_kk p_k.
``level_class`` reads the cut-face level (x, psi) in O(l); ``chain_walk``
asks whether some positive root pairs to a nonzero integer.  Every
positive root past the simple ones is a root one level below plus a
simple root a_j (Humphreys, Introduction to Lie Algebras and
Representation Theory, 10.2), so each v_r is v_parent + M_jj p_j: one
addition per positive root.  ``level_class`` takes the pairing vector of
a dominant point, so ``reduce_dominant`` runs first; the predicates of
``geometry`` are the kernel's callers.

``RootSystem`` is a named tuple, immutable and equal to a plain tuple of
its fields; it also keeps its lazily built members (the roots, their
chain, the sparse Cartan rows and the Gram diagonal) in an instance dict.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, mul
from typing import NamedTuple

from .dynkin import (MAX_RANK, InvalidRank, RootKind, check_rank,  # re-exported
                     gram_tree, highest_root_coeffs, parse_kind, root_count)
from .linalg import DimensionMismatch, clear_denominators, format_rational

MAX_ROOTS = 500     # largest root system whose roots are enumerated


def cartan_matrix(kind: RootKind) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A[i][j] = 2(a_i, a_j)/(a_j, a_j); for bc, of the indivisible set."""
    return build(kind).cartan


class _RootSystemFields(NamedTuple):
    kind: RootKind
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    int_gram: tuple[tuple[tuple[int, ...], ...], int]
    highest_root: tuple[int, ...]


class RootSystem(_RootSystemFields):
    """A root system with highest-root-normalized Gram matrix.

    ``int_gram`` is the pair (M, g) with gram = M/g: integer rows over
    one positive denominator, in lowest terms.  ``positive_roots``, and
    from it ``roots``, are enumerated on first access; they raise
    InvalidRank for systems of more than MAX_ROOTS roots, and
    RuntimeError on corrupt Cartan data.  ``cartan_rows``, the sparse
    Cartan rows, and ``gram_diagonal``, the diagonal of M, are also
    built once, on first access.  No ``__slots__``: the cached
    properties store their values in the instance dict, which
    ``cached_property`` writes directly, so refusing attribute assignment
    keeps the system immutable.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def positive_roots(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
        """(roots, chain): the positive roots in order of height, the simple
        roots first, and for each later root roots[l + i] a pair
        chain[i] = (parent, j) with roots[l + i] = roots[parent] + a_j.

        Built level by level from a_j-strings: for a positive root b not
        proportional to a_j, b + a_j is a root iff p > <b, a_j^vee>, p the
        length of the a_j-string below b (Humphreys, Introduction to Lie
        Algebras and Representation Theory, 10.2).  A root is reached from
        every root one a_j below it, which records its string lengths for the
        next level.  On bc's non-reduced set the rule fails only for the one
        proportional pair a_l, 2a_l, so 2a_l is seeded at height 2.
        """
        kind, l, cartan = self.kind, self.rank, self.cartan
        count = root_count(kind)
        if count > MAX_ROOTS:
            raise InvalidRank(f"{kind} has {count} roots; "
                              f"enumeration is limited to {MAX_ROOTS}")
        roots = [tuple(int(i == j) for i in range(l)) for j in range(l)]
        index = {r: i for i, r in enumerate(roots)}
        pairings = list(cartan)               # <r, a_k^vee> = sum_i r_i A[i][k]
        below = [[0] * l for _ in range(l)]   # a_k-string length below each root
        chain = []

        def reach(b: int, j: int) -> None:
            r = roots[b]
            new = r[:j] + (r[j] + 1,) + r[j + 1:]
            i = index.get(new)
            if i is None:
                if len(roots) == count // 2:  # corrupt Cartan data
                    raise RuntimeError(f"{kind}: more than {count // 2} positive roots")
                i = index[new] = len(roots)
                roots.append(new)
                chain.append((b, j))
                pairings.append(tuple(map(add, pairings[b], cartan[j])))
                below.append([0] * l)
            below[i][j] = below[b][j] + 1

        if kind.family == "bc":
            reach(l - 1, l - 1)               # 2 a_l
        start, end = 0, l
        for _ in range(sum(self.highest_root) - 1):
            for b in range(start, end):
                for j, (p, q) in enumerate(zip(below[b], pairings[b])):
                    if p > q:
                        reach(b, j)
            start, end = end, len(roots)

        if len(roots) != count // 2:
            raise RuntimeError(f"{kind}: generated {2 * len(roots)} roots, expected {count}")
        if roots[-1] != self.highest_root:
            raise RuntimeError(f"{kind}: highest root {roots[-1]} != expected {self.highest_root}")
        return tuple(roots), tuple(chain)

    @cached_property
    def roots(self) -> frozenset[tuple[int, ...]]:
        positive, _ = self.positive_roots
        return frozenset(positive).union(tuple(-x for x in r) for r in positive)

    @cached_property
    def cartan_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries (k, A[i][k]) of each Cartan row i, by increasing k."""
        return tuple(tuple((k, a) for k, a in enumerate(row) if a) for row in self.cartan)

    @cached_property
    def gram_diagonal(self) -> tuple[int, ...]:
        """M_kk of ``int_gram``."""
        m, _ = self.int_gram
        return tuple(m[k][k] for k in range(self.rank))


def build(kind: RootKind | str) -> RootSystem:
    """Construct the Cartan data of the given kind; roots come on demand."""
    if isinstance(kind, str):
        kind = parse_kind(kind)
    l = check_rank(kind).rank
    a, b, leaf, psi, g = gram_tree(kind)
    m = [[0] * l for _ in range(l)]
    for k, x in enumerate(a):
        m[k][k] = x
    for k, x in enumerate(b):
        m[k][k + 1] = m[k + 1][k] = x
    if leaf:
        c, f, w = leaf
        m[l - 1][l - 1] = f
        m[c][l - 1] = m[l - 1][c] = w
    # A[i][j] = 2 M[i][j] / M[j][j], an exact quotient.
    cartan = tuple(tuple(2 * x // m[j][j] for j, x in enumerate(row)) for row in m)
    return RootSystem(kind=kind, rank=l, cartan=cartan,
                      int_gram=(tuple(map(tuple, m)), g), highest_root=psi)


def to_json_dict(rs: RootSystem) -> dict:
    m, g = rs.int_gram
    count = root_count(rs.kind)
    return {
        "kind": str(rs.kind),
        "family": rs.kind.family,
        "rank": rs.rank,
        "cartan_matrix": [list(row) for row in rs.cartan],
        "gram": [[format_rational(Fraction(x, g)) for x in row] for row in m],
        "root_count": count,
        # bc's 2l doubled roots +-2 eps_i are its only divisible ones.
        "indivisible_count": count - (0 if rs.kind.is_reduced else 2 * rs.rank),
        "highest_root": list(rs.highest_root),
        "psi_sq": "1",                   # gram_tree scales (psi, psi) to 1
    }


class SliceClass(enum.Enum):
    """Where a dominant slice point sits relative to the polytope."""

    INTERIOR = "interior"
    ON_CUT_FACE = "on-cut-face"
    OUTSIDE = "outside"

    def __str__(self) -> str:
        return self.value


def cleared_point(rs: RootSystem, x) -> tuple[list[int], int]:
    """(n, D) with x == n / D, for a point in simple-root coordinates of rs."""
    n, den = clear_denominators(x)
    if len(n) != rs.rank:
        raise DimensionMismatch(f"point length {len(n)} != rank {rs.rank}")
    return n, den


def pairings(rs: RootSystem, n: list[int]) -> list[int]:
    """p = nA for the numerators n of a point x over any common denominator:
    p_k = sum_j n_j A[j][k] has the sign of (a_k, x)."""
    p = [0] * rs.rank
    for nj, row in zip(n, rs.cartan_rows):
        if nj:
            for k, a in row:
                p[k] += nj * a
    return p


def level_class(rs: RootSystem, p: list[int], a: int, den: int) -> SliceClass:
    """Where the point a n / den sits, given p = nA (a > 0) for a dominant
    point: no p_k is negative, as after ``reduce_dominant``.

    With gram = M/g, (M n)_k = p_k M_kk / 2, so (a_k, x) has the sign of
    p_k and the level (x, psi) is a sum_k psi_k M_kk p_k / (2 g den).
    """
    level = a * sum(map(mul, rs.highest_root, map(mul, rs.gram_diagonal, p)))
    one = 2 * rs.int_gram[1] * den
    if level > one:
        return SliceClass.OUTSIDE
    if level == one:
        return SliceClass.ON_CUT_FACE
    return SliceClass.INTERIOR


def reduce_dominant(rs: RootSystem, n: list[int], p: list[int]) -> int:
    """Reduce the numerators n of a point over any common denominator, with
    p = nA, in place into the closed dominant chamber, keeping p its
    pairing vector; returns the reflection count.

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


def chain_walk(rs: RootSystem, p: list[int], a: int, den: int) -> bool:
    """True when some positive root pairs to a nonzero integer with the
    point a n / den, given p = nA: when some v_r is nonzero and divisible
    by q = 2 g den / gcd(a, 2 g den).  Each v_r past the simple roots is
    the v of its chain parent plus one v of a simple root.  InvalidRank
    past MAX_ROOTS, where the roots are not enumerated."""
    _, chain = rs.positive_roots
    q = 2 * rs.int_gram[1] * den
    q //= gcd(a, q)
    v = list(map(mul, rs.gram_diagonal, p))
    for x in v:
        if x and x % q == 0:
            return True
    for parent, j in chain:
        x = v[parent] + v[j]
        if x and x % q == 0:
            return True
        v.append(x)
    return False
