"""Root-system kinds and their Dynkin diagrams, without the systems.

Each family (a, b, c, d, e6, e7, e8, f4, g2 and the non-reduced bc) is
described once, by its Dynkin diagram (Bourbaki, Lie Groups and Lie
Algebras, Ch. VI, Plates I-IX): the relative squared lengths L of its
simple roots and its edges, with (a_i, a_j) = -max(L_i, L_j)/2 on an edge
and 0 off the edges, and the coefficients of its highest root.
``gram_tree`` reads that diagram, once, into the integer Gram matrix M/g
in the shape of its tree, and every consumer reads the tree: ``roots``
builds the dense Gram and Cartan matrices from it, and
``polytope.tree_adjugate`` and ``farthest_vertex`` fold it.  ``kinds``
lists the kinds of every family up to a rank, in the order of the tables,
and ``parse_kind`` reads one kind from its name.

A Dynkin diagram is a tree, and elimination on a tree makes no fill-in
(Parter, SIAM Rev. 3, 1961): ``fold_tree`` reads the determinants of its
chain blocks as prefix and suffix continuants, in O(l) integer products,
and ``principal_minors`` det M and every det(M minus node j) from them.
The polytope's vertices e_j satisfy (e_j, a_i) = delta_ij / d_j for
psi = sum d_i a_i, so (e_j, e_j) = g det(M minus node j) / (det M d_j^2),
and ``farthest_vertex``, all the report path reads of the polytope,
forms no matrix, inverse or vertex.

Node numbering runs along the chain first; for d, e6, e7, e8 the node
hanging off the chain comes last, attached to the fork node (l-3 for d,
2, 3, 4 for e6, e7, e8).

``RootKind`` is a named tuple, immutable and equal to a plain tuple of
its fields.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

MAX_RANK = 128      # largest rank ``build`` accepts

_EXCEPTIONAL_RANKS = {"e": (6, 7, 8), "f": (4,), "g": (2,)}
_MIN_RANK = {"a": 1, "b": 2, "c": 3, "d": 4, "bc": 1}


class InvalidRank(ValueError):
    """Raised for a family/rank combination outside the classification,
    or beyond the MAX_RANK / MAX_ROOTS limits."""


class _RootKindFields(NamedTuple):
    family: str
    rank: int


class RootKind(_RootKindFields):
    """A root-system type: family letter(s) plus rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        fam = family.lower()
        if fam in _MIN_RANK:
            if rank < _MIN_RANK[fam]:
                raise InvalidRank(f"{fam} requires rank >= {_MIN_RANK[fam]}, got {rank}")
        elif fam in _EXCEPTIONAL_RANKS:
            if rank not in _EXCEPTIONAL_RANKS[fam]:
                raise InvalidRank(f"no system {fam}{rank}")
        else:
            raise InvalidRank(f"unknown family {fam!r}")
        return super().__new__(cls, fam, rank)

    @classmethod
    def _make(cls, iterable) -> "RootKind":
        return cls(*iterable)         # so that _replace validates too

    @property
    def is_reduced(self) -> bool:
        return self.family != "bc"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_kind(text: str) -> RootKind:
    """Parse "a3", "bc2", " E8 " (case-insensitive) into a RootKind.  A rank
    of more digits than int() reads (``sys.get_int_max_str_digits()``) is
    refused as InvalidRank."""
    s = text.strip().lower()
    i = 0
    while i < len(s) and s[i].isalpha():
        i += 1
    fam, digits = s[:i], s[i:]
    if not fam or not digits.isdecimal():
        raise InvalidRank(f"cannot parse root-system kind {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise InvalidRank(f"the rank of a root-system kind has more than {limit} digits")
    return RootKind(fam, int(digits))


def check_rank(kind: RootKind) -> RootKind:
    """Return ``kind``; raise InvalidRank when its rank exceeds MAX_RANK."""
    if kind.rank > MAX_RANK:
        raise InvalidRank(f"{kind}: rank {kind.rank} exceeds the limit of {MAX_RANK}")
    return kind


def kinds(families, max_rank: int) -> list[RootKind]:
    """The kinds of each classical family in ``families``, from its least
    rank up to max_rank, then e6, e7, e8, f4 and g2."""
    out = [RootKind(fam, l) for fam in families for l in range(_MIN_RANK[fam], max_rank + 1)]
    return out + [RootKind(fam, l) for fam, ranks in _EXCEPTIONAL_RANKS.items() for l in ranks]


def root_count(kind: RootKind) -> int:
    """Classical root count per family."""
    l = kind.rank
    if kind.family == "a":
        return l * (l + 1)
    if kind.family in ("b", "c"):
        return 2 * l * l
    if kind.family == "d":
        return 2 * l * (l - 1)
    if kind.family == "bc":
        return 2 * l * l + 2 * l
    if kind.family == "e":
        return {6: 72, 7: 126, 8: 240}[l]
    return 48 if kind.family == "f" else 12


def _relative_lengths(kind: RootKind) -> tuple[int, ...]:
    """Squared simple-root lengths up to overall scale: 1, 2 or 3."""
    fam, l = kind.family, kind.rank
    if fam in ("a", "d", "e"):
        return (2,) * l
    if fam in ("b", "bc"):
        return (2,) * (l - 1) + (1,) if l > 1 else (2,)
    if fam == "c":
        return (1,) * (l - 1) + (2,)
    if fam == "f":
        return (2, 2, 1, 1)
    if fam == "g":
        return (3, 1)
    raise InvalidRank(fam)  # pragma: no cover


def highest_root_coeffs(kind: RootKind) -> tuple[int, ...]:
    """Coefficients of the highest root over the simple roots."""
    fam, l = kind.family, kind.rank
    if fam == "a":
        return (1,) * l
    if fam == "b":
        return (1,) + (2,) * (l - 1)
    if fam == "c":
        return (2,) * (l - 1) + (1,)
    if fam == "d":
        return (1,) + (2,) * (l - 3) + (1, 1)
    if fam == "e":
        return {6: (1, 2, 3, 2, 1, 2),
                7: (1, 2, 3, 4, 3, 2, 2),
                8: (2, 3, 4, 5, 6, 4, 2, 3)}[l]
    if fam == "f":
        return (2, 3, 4, 2)
    if fam == "g":
        return (2, 3)
    if fam == "bc":
        return (2,) * l
    raise InvalidRank(fam)  # pragma: no cover


def gram_tree(kind: RootKind) -> tuple[list[int], list[int], tuple[int, int, int] | None,
                                       tuple[int, ...], int]:
    """(a, b, leaf, psi, g): the Gram matrix M/g of the simple roots, in
    lowest terms and with (psi, psi) = 1, in the shape of its tree.  a and b
    are the diagonal and the off-diagonal entries M[k][k+1] of the chain;
    leaf is (c, M[l-1][l-1], M[c][l-1]) for d and e, whose last node hangs
    off chain node c, and None for the others.  No matrix is formed.

    Up to scale, M_kk = 2 L_k and M_ij = -max(L_i, L_j) on an edge, and
    g = psi^T M psi; all of them are then divided by their gcd.
    """
    lengths = _relative_lengths(kind)
    psi = highest_root_coeffs(kind)
    l = kind.rank
    c = {"d": l - 3, "e": l - 4}.get(kind.family)
    edges = [(k, k + 1) for k in range(l - 1 if c is None else l - 2)]
    if c is not None:
        edges.append((c, l - 1))
    a = [2 * x for x in lengths]
    b = [-max(lengths[i], lengths[j]) for i, j in edges]
    g = (sum(map(mul, a, map(mul, psi, psi)))
         + 2 * sum([x * psi[i] * psi[j] for x, (i, j) in zip(b, edges)]))
    r = gcd(g, *a, *b)
    a = [x // r for x in a]
    b = [x // r for x in b]
    return a, b, None if c is None else (c, a.pop(), b.pop()), psi, g // r


def _continuants(a: list[int], b: list[int]) -> list[int]:
    """p_k, the determinant of the tridiagonal matrix on nodes 0..k-1 with
    diagonal a and off-diagonal products b_k = T[k][k+1] T[k+1][k], for
    k = 0..len(a)."""
    p = [1, a[0]]
    for k in range(1, len(a)):
        p.append(a[k] * p[k] - b[k - 1] * p[k - 1])
    return p


def fold_tree(a: list[int], b: list[int], leaf) -> tuple[list[int], list[int], int]:
    """(pre, suf, bare) for the tree (a, b, leaf) of ``gram_tree``, whose
    lists are left as they are.

    pre[k] and suf[k] are the continuants of the chain nodes before k and
    from k on, and bare is the determinant of the chain without the leaf.
    A leaf (diagonal f != 0, coupling w) is first eliminated into its node
    c: with row c scaled by f, the leaf's Schur complement is a chain whose
    a_c is f a_c - w^2 and whose two coupling products at c are f times as
    large, and a continuant over a block holding c is the determinant of
    that block with the leaf.
    """
    b = [x * x for x in b]
    pre = _continuants(a, b)
    bare = pre[-1]
    if leaf:
        c, f, w = leaf
        a = a[:]
        a[c] = f * a[c] - w * w
        if c:
            b[c - 1] *= f
        b[c] *= f
        pre = _continuants(a, b)
    return pre, _continuants(a[::-1], b[::-1])[::-1], bare


def principal_minors(a: list[int], b: list[int], leaf) -> tuple[int, list[int]]:
    """(det M, [det(M minus node j) for each j]) for the tree (a, b, leaf).

    Removing chain node j leaves the blocks before and after it, so its
    minor is pre[j] * suf[j + 1]; the tree minus c is f times the blocks
    beside c, and the tree minus the leaf is the bare chain.
    """
    pre, suf, bare = fold_tree(a, b, leaf)
    minors = [pre[j] * suf[j + 1] for j in range(len(a))]
    if leaf:
        minors[leaf[0]] *= leaf[1]
        minors.append(bare)
    return pre[-1], minors


@lru_cache(maxsize=None)
def farthest_vertex(kind: RootKind) -> tuple[Fraction, int]:
    """(d_sq, argmax_vertex) of the kind's polytope, from the minors of its
    Gram tree: the first largest norm, found by cross-multiplying the
    candidates (det M and g are positive), then one Fraction.  Cached per
    kind; InvalidRank past MAX_RANK, so the cache holds at most those kinds."""
    a, b, leaf, d, g = gram_tree(check_rank(kind))
    det, minors = principal_minors(a, b, leaf)
    best = 0
    for j in range(1, kind.rank):
        if minors[j] * d[best] * d[best] > minors[best] * d[j] * d[j]:
            best = j
    return Fraction(g * minors[best], det * d[best] * d[best]), best
