"""Killing-form normalization of root lengths via root counting.

The squared Killing length of the highest root delta of an irreducible
system is 4 / (|roots| - |roots orthogonal to delta| + 6): summing
(alpha, delta)^2 over all roots reproduces (delta, delta) because the
Killing form is the trace form of the adjoint action and every root space
is one-dimensional.  The module computes the orthogonal subsystem and its
decomposition type by enumeration, exposes the closed-form count path for
use at ranks where enumeration is unnecessary, and provides the trace-sum
self-consistency check.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .linalg import format_rational
from .roots import RootKind, RootSystem, root_count


class NonReducedInput(ValueError):
    """Raised when a reduced root system is required."""


class KillingData(NamedTuple):
    system: RootKind
    total_roots: int
    perp_roots: int
    delta_sq: Fraction
    perp_subsystem: tuple[RootKind, ...]


def canonical_kind(family: str, rank: int) -> RootKind:
    """Collapse the low-rank coincidences onto one representative each."""
    if (family, rank) in (("b", 1), ("c", 1)):
        return RootKind("a", 1)
    if (family, rank) == ("c", 2):
        return RootKind("b", 2)
    if (family, rank) == ("d", 3):
        return RootKind("a", 3)
    return RootKind(family, rank)


def _delta_pairings(rs: RootSystem) -> list[int]:
    """g * (a_i, delta) for each simple root, with gram = M/g of ``int_gram``."""
    m, _ = rs.int_gram
    return [sum(map(mul, row, rs.highest_root)) for row in m]


def perp_subsystem(rs: RootSystem) -> frozenset[tuple[int, ...]]:
    """All roots with exact inner product 0 against the highest root."""
    w = _delta_pairings(rs)
    return frozenset(r for r in rs.roots if sum(map(mul, r, w)) == 0)


def perp_simple_indices(rs: RootSystem) -> tuple[int, ...]:
    """0-based indices i with (a_i, delta) = 0 (equivalently, delta - a_i
    is not a root); needs no root list, so it holds at any rank."""
    return tuple(i for i, w in enumerate(_delta_pairings(rs)) if w == 0)


def perp_decomposition(rs: RootSystem) -> tuple[RootKind, ...]:
    """Decomposition type of the orthogonal subsystem, canonicalized and sorted.

    Components of the induced simple-root graph are identified by rank,
    root count, and the long/short split of their simple roots.
    """
    if not rs.kind.is_reduced:
        raise NonReducedInput("orthogonal-subsystem typing needs a reduced system")
    return _decompose(rs, perp_subsystem(rs))


def _decompose(rs: RootSystem, perp: frozenset) -> tuple[RootKind, ...]:
    comps = _graph_components(rs, perp_simple_indices(rs))
    kinds = [_identify_component(rs, comp, perp) for comp in comps]
    return tuple(sorted(kinds, key=lambda k: (k.family, k.rank)))


def _graph_components(rs: RootSystem, nodes: tuple[int, ...]) -> list[tuple[int, ...]]:
    m, _ = rs.int_gram
    nodes = list(nodes)
    seen: set[int] = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in nodes:
                if j not in seen and m[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def _identify_component(rs: RootSystem, comp: tuple[int, ...],
                        perp: frozenset) -> RootKind:
    rank = len(comp)
    support = set(comp)
    count = sum(1 for r in perp
                if all(c == 0 or i in support for i, c in enumerate(r)) and any(r))
    m, _ = rs.int_gram               # lengths up to the common factor 1/g
    lengths = [m[i][i] for i in comp]
    if rank == 1:
        return RootKind("a", 1)
    if len(set(lengths)) == 1:
        if count == rank * (rank + 1):
            return canonical_kind("a", rank)
        if count == 2 * rank * (rank - 1):
            return canonical_kind("d", rank)
        if (rank, count) in ((6, 72), (7, 126), (8, 240)):
            return RootKind("e", rank)
        raise NonReducedInput(f"unrecognized simply-laced component: rank {rank}, {count} roots")
    if rank == 2:
        return RootKind("g", 2) if count == 12 else RootKind("b", 2)
    if rank == 4 and count == 48:
        return RootKind("f", 4)
    long_len = max(lengths)
    n_long = sum(1 for x in lengths if x == long_len)
    return canonical_kind("b" if n_long == rank - 1 else "c", rank)


def _delta_sq(total: int, perp: int) -> Fraction:
    """(delta, delta) from the root count and the count orthogonal to delta."""
    return Fraction(4, total - perp + 6)


def _require_reduced(kind: RootKind) -> None:
    if not kind.is_reduced:
        raise NonReducedInput("Killing normalization applies to reduced ambient systems")


def killing_delta_sq(rs: RootSystem) -> Fraction:
    """Killing-normalized (delta, delta), computed from enumerated root counts."""
    _require_reduced(rs.kind)
    return _delta_sq(len(rs.roots), len(perp_subsystem(rs)))


# Orthogonal-subsystem types per ambient family, including low-rank cases.
def perp_kinds_formula(kind: RootKind) -> tuple[RootKind, ...]:
    fam, l = kind.family, kind.rank
    if fam == "a":
        return (RootKind("a", l - 2),) if l >= 3 else ()
    if fam == "b":
        if l == 2:
            return (RootKind("a", 1),)
        if l == 3:
            return (RootKind("a", 1), RootKind("a", 1))
        return (RootKind("a", 1), canonical_kind("b", l - 2))
    if fam == "c":
        return (canonical_kind("c", l - 1),)
    if fam == "d":
        if l == 4:
            return (RootKind("a", 1),) * 3
        if l == 5:
            return (RootKind("a", 1), RootKind("a", 3))
        return (RootKind("a", 1), RootKind("d", l - 2))
    if fam == "e":
        return {6: (RootKind("a", 5),),
                7: (RootKind("d", 6),),
                8: (RootKind("e", 7),)}[l]
    if fam == "f":
        return (RootKind("c", 3),)
    if fam == "g":
        return (RootKind("a", 1),)
    raise NonReducedInput(f"no orthogonal-subsystem data for {kind}")


def delta_sq_formula(kind: RootKind) -> Fraction:
    """(delta, delta) from classical root counts, valid at any rank."""
    _require_reduced(kind)
    return _delta_sq(root_count(kind),
                     sum(root_count(k) for k in perp_kinds_formula(kind)))


def killing_self_consistency(rs: RootSystem) -> Fraction:
    """Sum of (alpha, delta)^2 over all roots minus (delta, delta); must be 0.

    The Gram matrix is rescaled so (delta, delta) takes its Killing value
    from root counting; the sum then recomputes the trace of (ad delta)^2
    independently.  Works for the non-reduced family too, where the count
    formula extends verbatim.
    """
    c = _delta_sq(len(rs.roots), len(perp_subsystem(rs)))
    _, g = rs.int_gram
    w = _delta_pairings(rs)           # (alpha, delta) = c * (alpha . w) / g
    total = sum(sum(map(mul, r, w)) ** 2 for r in rs.roots)
    return c * c * Fraction(total, g * g) - c


def killing_data(rs: RootSystem) -> KillingData:
    _require_reduced(rs.kind)
    perp = perp_subsystem(rs)
    return KillingData(
        system=rs.kind,
        total_roots=len(rs.roots),
        perp_roots=len(perp),
        delta_sq=_delta_sq(len(rs.roots), len(perp)),
        perp_subsystem=_decompose(rs, perp),
    )


def to_json_dict(data: KillingData) -> dict:
    return {
        "system": str(data.system),
        "total_roots": data.total_roots,
        "perp_roots": data.perp_roots,
        "delta_sq": format_rational(data.delta_sq),
        "perp_subsystem": [str(k) for k in data.perp_subsystem],
    }
