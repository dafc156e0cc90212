"""Root-system kinds and their Dynkin diagrams, without the systems.

Each family (a, b, c, d, e6, e7, e8, f4, g2 and the non-reduced bc) is
described once, by its Dynkin diagram (Bourbaki, Lie Groups and Lie
Algebras, Ch. VI, Plates I-IX): the relative squared lengths L of its
simple roots and its edges, with (a_i, a_j) = -max(L_i, L_j)/2 on an edge
and 0 off the edges, and the coefficients of its highest root.  That,
the classical root counts and the parsing of kinds is all a report
needs; ``roots`` builds the Cartan and Gram matrices and the roots
themselves from it, and re-exports the public names here.

Node numbering runs along the chain first; for d, e6, e7, e8 the node
hanging off the chain comes last, attached to the fork node (l-3 for d,
2, 3, 4 for e6, e7, e8).

``RootKind`` is a named tuple, immutable and equal to a plain tuple of
its fields.
"""

from __future__ import annotations

import sys
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


def split_kind(text: str) -> tuple[str, int]:
    """Split "a3", "bc2", " E8 " (case-insensitive) into (family, rank).
    A rank of more digits than int() reads (``sys.get_int_max_str_digits()``)
    is refused as InvalidRank."""
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
    edges = [(i, i + 1, max(lengths[i], lengths[i + 1])) for i in range(l - 2)]
    if l > 1:
        fork = {"d": l - 3, "e": l - 4}.get(kind.family, l - 2)
        edges.append((fork, l - 1, max(lengths[fork], lengths[l - 1])))
    return lengths, edges


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


def gram_diagram(kind: RootKind) -> tuple[tuple[int, ...], list[tuple[int, int, int]],
                                        tuple[int, ...], int]:
    """(L, edges, psi, N): the diagram of ``_diagram``, the highest root and
    N = psi^T S psi for the integer matrix S with S_ii = 2 L_i and S_ij =
    -max(L_i, L_j) on an edge, so that gram = S/N has (psi, psi) = 1.
    No matrix is formed."""
    lengths, edges = _diagram(kind)
    psi = highest_root_coeffs(kind)
    norm = 2 * (sum(map(mul, lengths, map(mul, psi, psi)))
                - sum([bond * psi[i] * psi[j] for i, j, bond in edges]))
    return lengths, edges, psi, norm
