"""Irreducible root systems realized in simple-root coordinates.

Each family (a, b, c, d, e6, e7, e8, f4, g2 and the non-reduced bc) is
described once, by its Dynkin diagram (Bourbaki, Lie Groups and Lie
Algebras, Ch. VI, Plates I-IX): the relative squared lengths L of its
simple roots and its edges, with (a_i, a_j) = -max(L_i, L_j)/2 on an edge
and 0 off the edges; the Cartan matrix and the Gram matrix follow from it.
The Gram matrix is normalized so that the highest root has squared length
1 and is kept as integer rows M over one positive denominator g (gram =
M/g).  ``build`` derives it in O(rank) arithmetic steps and stops there:
that is all the Cartan polytope needs.  The roots themselves (integer
coefficient vectors over the simple roots) are enumerated on first
access, and only for systems of at most MAX_ROOTS roots.  One pass builds the positive roots level by level
in height from simple-root strings, and records how each is reached from
a root one level below: the chain that the conjugacy test in
``geometry`` walks.

Node numbering runs along the chain first; for d, e6, e7, e8 the node
hanging off the chain comes last, attached to the fork node (l-3 for d,
2, 3, 4 for e6, e7, e8).

``RootKind`` and ``RootSystem`` are named tuples, immutable and equal to
plain tuples of their fields; ``RootSystem`` also keeps its lazily built
members (the roots, their chain and the sparse Cartan rows) in an
instance dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, mul
from typing import NamedTuple

from .linalg import format_rational

MAX_ROOTS = 500     # largest root system whose roots are enumerated
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


def split_kind(text: str) -> tuple[str, int]:
    """Split "a3", "bc2", " E8 " (case-insensitive) into (family, rank)."""
    s = text.strip().lower()
    i = 0
    while i < len(s) and s[i].isalpha():
        i += 1
    fam, digits = s[:i], s[i:]
    if not fam or not digits.isdecimal():
        raise InvalidRank(f"cannot parse root-system kind {text!r}")
    return fam, int(digits)


def parse_kind(text: str) -> RootKind:
    """Parse "a3", "bc2", "E8" (case-insensitive) into a RootKind."""
    return RootKind(*split_kind(text))


def check_rank(kind: RootKind) -> RootKind:
    """Return ``kind``; raise InvalidRank when its rank exceeds MAX_RANK."""
    if kind.rank > MAX_RANK:
        raise InvalidRank(f"{kind}: rank {kind.rank} exceeds the limit of {MAX_RANK}")
    return kind


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


def _diagram(kind: RootKind) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """The Dynkin diagram: the relative squared lengths L of the simple
    roots, and its edges (i, j, max(L_i, L_j)).  The edges run along the
    chain 0..l-2 and join the last node l-1 to the chain's end, or for d and
    e to the fork node: l-3 for d, 2/3/4 for e6/e7/e8."""
    lengths = _relative_lengths(kind)
    l = kind.rank
    fork = {"d": l - 3, "e": l - 4}.get(kind.family, l - 2)
    pairs = [(i, i + 1) for i in range(l - 2)] + [(fork, l - 1)] * (l > 1)
    return lengths, [(i, j, max(lengths[i], lengths[j])) for i, j in pairs]


def _on_diagram(diagonal, edges, entry) -> tuple[tuple[int, ...], ...]:
    """The square matrix with this diagonal, entry(bond, j) at [i][j] and
    entry(bond, i) at [j][i] on each edge (i, j, bond), and zeros elsewhere."""
    rows = [[0] * len(diagonal) for _ in diagonal]
    for i, x in enumerate(diagonal):
        rows[i][i] = x
    for i, j, bond in edges:
        rows[i][j] = entry(bond, j)
        rows[j][i] = entry(bond, i)
    return tuple(map(tuple, rows))


def cartan_matrix(kind: RootKind) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A[i][j] = 2(a_i, a_j)/(a_j, a_j); for bc, of the indivisible set.
    On an edge (a_i, a_j) = -max(L_i, L_j)/2, so A[i][j] = -max(L_i, L_j)/L_j."""
    lengths, edges = _diagram(kind)
    return _on_diagram((2,) * kind.rank, edges, lambda bond, j: -bond // lengths[j])


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
    from it ``roots`` and ``indivisible_roots``, are enumerated on first
    access; they raise InvalidRank for systems of more than MAX_ROOTS
    roots, and RuntimeError on corrupt Cartan data.  ``cartan_rows``, the
    sparse Cartan rows, and ``gram_diagonal``, which the slice predicates
    use, are also built once, on first access.  No ``__slots__``: the cached
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
    def indivisible_roots(self) -> frozenset[tuple[int, ...]]:
        return self.roots - {tuple(2 * x for x in r) for r in self.roots}

    @property
    def psi_sq(self) -> Fraction:
        """(psi, psi) of the highest root, from ``int_gram`` in integers."""
        m, g = self.int_gram
        d = self.highest_root
        return Fraction(sum(di * sum(map(mul, row, d)) for di, row in zip(d, m)), g)

    @cached_property
    def cartan_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries (k, A[i][k]) of each Cartan row i, by increasing k."""
        return tuple(tuple((k, a) for k, a in enumerate(row) if a) for row in self.cartan)

    @cached_property
    def gram_diagonal(self) -> tuple[int, ...]:
        """M_kk of ``int_gram``: (M n)_k = M_kk p_k / 2 for p = nA."""
        m, _ = self.int_gram
        return tuple(m[k][k] for k in range(self.rank))


def build(kind: RootKind | str) -> RootSystem:
    """Construct the Cartan data of the given kind; roots come on demand."""
    if isinstance(kind, str):
        kind = parse_kind(kind)
    l = check_rank(kind).rank
    lengths, edges = _diagram(kind)
    psi = highest_root_coeffs(kind)
    # S = 2 Gram / scale is the integer matrix with S_ii = 2 L_i and
    # S_ij = -max(L_i, L_j) on an edge; dividing by N = psi^T S psi
    # normalizes (psi, psi) to 1.  Dividing S and N by their common gcd
    # leaves gram = M/g in lowest terms.
    norm = 2 * (sum(x * p * p for x, p in zip(lengths, psi))
                - sum(bond * psi[i] * psi[j] for i, j, bond in edges))
    c = gcd(norm, *(2 * x for x in lengths), *(bond for _, _, bond in edges))
    m = _on_diagram([2 * x // c for x in lengths], edges, lambda bond, _: -bond // c)
    return RootSystem(kind=kind, rank=l, cartan=cartan_matrix(kind),
                      int_gram=(m, norm // c), highest_root=psi)


def to_json_dict(rs: RootSystem) -> dict:
    m, g = rs.int_gram
    return {
        "kind": str(rs.kind),
        "family": rs.kind.family,
        "rank": rs.rank,
        "cartan_matrix": [list(row) for row in rs.cartan],
        "gram": [[format_rational(Fraction(x, g)) for x in row] for row in m],
        "root_count": len(rs.roots),
        "indivisible_count": len(rs.indivisible_roots),
        "highest_root": list(rs.highest_root),
        "psi_sq": format_rational(rs.psi_sq),
    }
