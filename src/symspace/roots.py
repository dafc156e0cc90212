"""Irreducible root systems in simple-root coordinates, and the integer
slice kernel that runs on their Cartan data.

Each family is described once, by its Dynkin diagram (``dynkin``, whose
public names this module re-exports).  ``build`` lays out the diagram's
integer Gram tree (``dynkin.gram_tree``) as dense rows M over one positive
denominator g, gram = M/g with the highest root of squared length 1, and
reads the Cartan matrix off them; that is all the Cartan polytope needs.
The roots themselves (integer coefficient vectors over the simple roots)
are enumerated on first access, at any rank; only ``oracle`` and the
exceptional kinds' conjugacy test read them.  One pass builds the
positive roots level by level in height from simple-root strings, and
records how each is reached from a root one level below: the chain that
``conjugate`` follows for the exceptional kinds.  The root counts that
``to_json_dict`` reports are the closed forms of ``dynkin.root_count``.

The slice kernel works in integers, with the same answers as rational
arithmetic.  ``dominant_slice`` takes a point x, reads it as a x / b in
Gram units (``geometry`` passes psi_sq_killing = a/b), and in one pass
clears it to n / D, forms its pairing vector p = nA (A the Cartan
matrix), reflects it into the dominant chamber keeping p current, and
reads the level (x, psi) there.  Only the kernel reads g: as
(M n)_k = M_kk p_k / 2, a root r pairs with x to a v_r / (2 g b D),
v_r = sum_k r_k M_kk p_k.  On the dominant chamber every positive root
pairs into [0, (x, psi)], and the cut face, the level 1, is the first
conjugate locus (Crittenden, Canad. J. Math. 14, 1962; Sakai, Hokkaido
Math. J. 6, 1977): a point below it is not conjugate and one at an
integer level is, through psi.  Only a point past the face at a
non-integer level runs ``conjugate``, which asks whether some positive
root pairs to a nonzero integer: in O(l) from epsilon-coordinates for
the classical families (Bourbaki, Lie Groups and Lie Algebras, Ch. VI,
Plates I-IV), and along the chain for the exceptional ones (at most 120
positive roots): every positive root past the simple ones is a root one
level below plus a simple root (Humphreys, Introduction to Lie Algebras
and Representation Theory, 10.2), one addition per root.
``geometry``'s predicates call the kernel.

``RootSystem`` is a named tuple, immutable and equal to a plain tuple of
its fields; it also keeps its lazily built members (the roots, their
chain, the sparse Cartan rows, the Gram diagonal and the kernel's
per-system data) in an instance dict.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, mul
from typing import NamedTuple

from .dynkin import (MAX_RANK, InvalidRank, RootKind,  # re-exported
                     gram_tree, highest_root_coeffs, parse_kind, root_count)
from .linalg import DimensionMismatch, clear_denominators, format_rational


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
    RuntimeError on corrupt Cartan data.  ``cartan_rows``, the sparse
    Cartan rows, and ``gram_diagonal``, the diagonal of M, are also
    built once, on first access, as is ``kernel_data``, all that
    ``dominant_slice`` reads of the system.  No ``__slots__``: the cached
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

    @cached_property
    def kernel_data(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...], int]:
        """(``cartan_rows``, psi_k M_kk, 2g): what ``dominant_slice`` reads."""
        return (self.cartan_rows, tuple(map(mul, self.highest_root, self.gram_diagonal)),
                2 * self.int_gram[1])


def build(kind: RootKind | str) -> RootSystem:
    """Construct the Cartan data of the given kind; roots come on demand."""
    if isinstance(kind, str):
        kind = parse_kind(kind)
    a, b, leaf, psi, g = gram_tree(kind)
    l = kind.rank
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


def dominant_slice(rs: RootSystem, x, a: int, b: int
                   ) -> tuple[list[int], int, int, SliceClass, bool]:
    """(n, D, reflections, class, conjugate) for a point x in simple-root
    coordinates of rs, read as the point a x / b in Gram units (a, b > 0):
    n / D is x's dominant representative, reached by that many simple
    reflections, and the class and conjugacy are the representative's.

    One pass: clear x to n / D, form p = nA, and reflect at the lowest
    violated wall (s_i sends n_i to n_i - p_i and changes only the p_k with
    A[i][k] != 0, so no wall below the first such k can have become
    violated).  On the dominant chamber the level (x, psi) is
    a sum_k psi_k M_kk p_k / (2 g b D), and every positive root pairs into
    [0, (x, psi)], psi - alpha being a sum of simple roots.  So a level
    below 1 is not conjugate and an integer level is, through psi; only a
    point past the face at a non-integer level runs ``conjugate``.
    """
    n, den = clear_denominators(x)
    rows, weights, two_g = rs.kernel_data
    l = len(rows)
    if len(n) != l:
        raise DimensionMismatch(f"point length {len(n)} != rank {l}")
    p = [0] * l
    for nj, row in zip(n, rows):
        if nj:
            for k, c in row:
                p[k] += nj * c
    count = i = 0
    while i < l:
        c = p[i]
        if c >= 0:
            i += 1
            continue
        n[i] -= c
        for k, e in rows[i]:
            p[k] -= c * e
        count += 1
        i = rows[i][0][0]
    level = a * sum(map(mul, weights, p))
    one = two_g * b * den
    if level < one:
        return n, den, count, SliceClass.INTERIOR, False
    cls = SliceClass.ON_CUT_FACE if level == one else SliceClass.OUTSIDE
    return n, den, count, cls, level % one == 0 or conjugate(rs, p, a, b * den)


def conjugate(rs: RootSystem, p: list[int], a: int, den: int) -> bool:
    """True when some positive root pairs to a nonzero integer with the
    point a n / den, given p = nA: when some v_r is nonzero and divisible
    by q = 2 g den / gcd(a, 2 g den).  The exceptional kinds walk the
    chain.  For the classical ones T is twice the epsilon-coordinates of
    the v, and roots take (T_i -+ T_j)/2, T_i/2 (b, bc) and T_i (c, bc).
    Past a, each T takes the sign that puts its residue r mod 2q at most q;
    two T in one class then make a root iff they differ, or are equal,
    nonzero and r is 0 or q.  One T is kept per class."""
    q = 2 * rs.int_gram[1] * den
    q //= gcd(a, q)
    v = list(map(mul, rs.gram_diagonal, p))
    family, l = rs.kind.family, rs.rank
    if family in ("e", "f", "g"):
        _, chain = rs.positive_roots
        for x in v:
            if x and x % q == 0:
                return True
        for parent, j in chain:
            x = v[parent] + v[j]
            if x and x % q == 0:
                return True
            v.append(x)
        return False
    # T_l = 0 (a) or T_{l-1} (d's leaf is last), then T_i = T_{i+1} + 2 v_i.
    x = (0 if family == "a" else v[l - 1] - v[l - 2] if family == "d"
         else v[l - 1] if family == "c" else 2 * v[l - 1])
    t = [x]
    for y in reversed(v[:l - (family != "a")]):
        x += 2 * y
        t.append(x)
    m, seen = 2 * q, {}
    signed = family != "a"
    short = m if family == "b" else q if family in ("c", "bc") else 0
    for x in t:
        r = x % m
        if signed and r > q:
            x, r = -x, m - r
        y = seen.get(r)
        if y is None:
            if x and short and r % short == 0:            # e_i, 2 e_i
                return True
            seen[r] = x
        elif y != x or signed and x and r % q == 0:       # e_i - e_j, e_i + e_j
            return True
    return False
