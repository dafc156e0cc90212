"""Irreducible root systems realized in simple-root coordinates.

Each family (a, b, c, d, e6, e7, e8, f4, g2 and the non-reduced bc) is
built from three pieces of data: its Cartan matrix, the relative squared
lengths of its simple roots, and the coefficients of the highest root.
All inner products go through the Gram matrix, which is normalized so
that the highest root has squared length 1 and is kept as integer rows
M over one positive denominator g (gram = M/g).  That O(rank^2) data is all
the Cartan polytope needs, so ``build`` stops there; the roots themselves
(integer coefficient vectors over the simple roots, generated by closing
the simple roots under all simple reflections) are enumerated on first
access, and only for systems of at most MAX_ROOTS roots.

Node numbering runs along the chain first; for d, e6, e7, e8 the node
hanging off the chain comes last (it attaches to the chain node with the
largest highest-root coefficient).

``RootKind`` and ``RootSystem`` are named tuples, immutable and equal to
plain tuples of their fields; ``RootSystem`` also keeps its lazily built
members (the roots and the sparse Cartan rows) in an instance dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import mul
from typing import NamedTuple

from .linalg import format_rational

MAX_ROOTS = 500     # largest root system whose roots are enumerated
MAX_RANK = 128      # largest rank ``build`` accepts

_EXCEPTIONAL_RANKS = {"e": (6, 7, 8), "f": (4,), "g": (2,)}
_MIN_RANK = {"a": 1, "b": 2, "c": 3, "d": 4, "bc": 1}


class InvalidRank(ValueError):
    """Raised for a family/rank combination outside the classification,
    or beyond the MAX_RANK / MAX_ROOTS limits."""


class NonTerminating(RuntimeError):
    """Raised when reflection closure exceeds MAX_ROOTS (corrupt Cartan data)."""


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
    if not fam or not digits.isdigit():
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


def _chain_cartan(l: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i in range(l - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def cartan_matrix(kind: RootKind) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A[i][j] = 2(a_i, a_j)/(a_j, a_j); for bc, of the indivisible set."""
    fam, l = kind.family, kind.rank
    if fam == "a" or (fam == "bc" and l == 1):
        a = _chain_cartan(l)
    elif fam in ("b", "bc"):
        a = _chain_cartan(l)
        a[l - 2][l - 1] = -2          # short last node
    elif fam == "c":
        a = _chain_cartan(l)
        a[l - 1][l - 2] = -2          # long last node
    elif fam == "d":
        a = _chain_cartan(l - 1)
        for row in a:
            row.append(0)
        a.append([0] * l)
        a[l - 1][l - 1] = 2
        a[l - 3][l - 1] = a[l - 1][l - 3] = -1
    elif fam == "e":
        a = _chain_cartan(l - 1)
        for row in a:
            row.append(0)
        a.append([0] * l)
        a[l - 1][l - 1] = 2
        branch = {6: 2, 7: 3, 8: 4}[l]  # chain node carrying the off-chain edge
        a[branch][l - 1] = a[l - 1][branch] = -1
    elif fam == "f":
        a = _chain_cartan(4)
        a[1][2] = -2                  # nodes 3,4 short
    elif fam == "g":
        a = [[2, -3], [-1, 2]]
    else:  # pragma: no cover
        raise InvalidRank(fam)
    return tuple(tuple(r) for r in a)


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


def generate_roots(cartan) -> frozenset[tuple[int, ...]]:
    """Close the simple roots under all simple reflections.

    Coefficient arithmetic is pure integer: s_j sends a coefficient vector
    b to b - (sum_i b_i A[i][j]) e_j.  Negatives arise automatically since
    s_i(a_i) = -a_i.  Raises NonTerminating past MAX_ROOTS.
    """
    l = len(cartan)
    simples = [tuple(1 if i == j else 0 for j in range(l)) for i in range(l)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for j in range(l):
                c = sum(r[i] * cartan[i][j] for i in range(l))
                if c == 0:
                    continue
                img = list(r)
                img[j] -= c
                t = tuple(img)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
            if len(seen) > MAX_ROOTS:
                raise NonTerminating(f"closure exceeded {MAX_ROOTS} roots")
        frontier = nxt
    return frozenset(seen)


class _RootSystemFields(NamedTuple):
    kind: RootKind
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    int_gram: tuple[tuple[tuple[int, ...], ...], int]
    highest_root: tuple[int, ...]


class RootSystem(_RootSystemFields):
    """A root system with highest-root-normalized Gram matrix.

    ``int_gram`` is the pair (M, g) with gram = M/g: integer rows over
    one positive denominator, in lowest terms.  ``indivisible_roots`` and
    ``roots`` are enumerated on first access; they raise InvalidRank for
    systems of more than MAX_ROOTS roots.  ``cartan_rows``, the sparse
    Cartan rows, and ``gram_diagonal``, which the slice predicates use,
    are also built once, on first access.  No ``__slots__``: the cached
    properties store their values in the instance dict, which
    ``cached_property`` writes directly, so refusing attribute assignment
    keeps the system immutable.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def indivisible_roots(self) -> frozenset[tuple[int, ...]]:
        count = root_count(self.kind)
        if count > MAX_ROOTS:
            raise InvalidRank(f"{self.kind} has {count} roots; "
                              f"enumeration is limited to {MAX_ROOTS}")
        return generate_roots(self.cartan)

    @cached_property
    def roots(self) -> frozenset[tuple[int, ...]]:
        kind, indivisible = self.kind, self.indivisible_roots
        if kind.family == "bc":
            m, _ = self.int_gram       # norms up to the common factor 1/g
            norms = {r: sum(map(mul, r, (sum(map(mul, row, r)) for row in m)))
                     for r in indivisible}
            short_sq = min(norms.values())
            doubles = {tuple(2 * x for x in r) for r, n in norms.items() if n == short_sq}
            roots = frozenset(indivisible | doubles)
        else:
            roots = indivisible

        if len(roots) != root_count(kind):
            raise RuntimeError(
                f"{kind}: generated {len(roots)} roots, expected {root_count(kind)}")

        best = max(roots, key=lambda r: (sum(r), r))
        if best != self.highest_root:
            raise RuntimeError(f"{kind}: highest root {best} != expected {self.highest_root}")
        return roots

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
    cartan = cartan_matrix(kind)
    lengths = _relative_lengths(kind)
    psi = highest_root_coeffs(kind)
    # S_ij = A[j][i] * L_i = 2 (a_i, a_j) / scale, an integer matrix; dividing
    # by N = psi^T S psi normalizes (psi, psi) to 1.  Dividing S and N by
    # their common gcd leaves gram = M/g in lowest terms.
    s = [[cartan[j][i] * lengths[i] for j in range(l)] for i in range(l)]
    norm = sum(p * sum(map(mul, row, psi)) for p, row in zip(psi, s))
    c = gcd(norm, *chain.from_iterable(s))
    m = tuple(tuple(x // c for x in row) for row in s)
    return RootSystem(kind=kind, rank=l, cartan=cartan, int_gram=(m, norm // c),
                      highest_root=psi)


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
