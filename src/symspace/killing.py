"""Killing-form normalization of root lengths via root counting.

The squared Killing length of the highest root delta of an irreducible
system is 4 / (|roots| - |roots orthogonal to delta| + 6): summing
(alpha, delta)^2 over all roots reproduces (delta, delta) because the
Killing form is the trace form of the adjoint action and every root space
is one-dimensional.  Both counts come from closed formulas: the classical
root count of each family and the type of the subsystem orthogonal to
delta (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX), so
nothing here enumerates roots and every rank is answered alike.
``killing_data`` reads only the kind, and is the one place that formula
is written: ``catalog`` takes each ambient delta_sq from it.  The simple
roots orthogonal to delta, which the catalog's Satake cross-check reads,
come off the integer Gram matrix.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .dynkin import RootKind, root_count
from .linalg import format_rational

if TYPE_CHECKING:                     # a report loads this module without roots
    from .roots import RootSystem


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


def perp_simple_indices(rs: RootSystem) -> tuple[int, ...]:
    """0-based indices i with (a_i, delta) = 0 (equivalently, delta - a_i
    is not a root), from g (a_i, delta) = (M psi)_i with gram = M/g of
    ``int_gram``; needs no root list, so it holds at any rank."""
    m, _ = rs.int_gram
    return tuple(i for i, row in enumerate(m) if sum(map(mul, row, rs.highest_root)) == 0)


# Orthogonal-subsystem types per ambient family, including low-rank cases;
# each kind canonical and the tuple sorted by (family, rank), the form in
# which ``killing_data`` reports them.
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


def killing_data(kind: RootKind) -> KillingData:
    """The Killing data of a reduced kind from the per-family formulas,
    at any rank: the root counts, the orthogonal subsystem and
    (delta, delta) = 4 / (|roots| - |roots orthogonal to delta| + 6)."""
    if not kind.is_reduced:
        raise NonReducedInput("Killing normalization applies to reduced ambient systems")
    perp = perp_kinds_formula(kind)
    total, perp_roots = root_count(kind), sum(map(root_count, perp))
    return KillingData(system=kind, total_roots=total, perp_roots=perp_roots,
                       delta_sq=Fraction(4, total - perp_roots + 6), perp_subsystem=perp)


def to_json_dict(data: KillingData) -> dict:
    return {
        "system": str(data.system),
        "total_roots": data.total_roots,
        "perp_roots": data.perp_roots,
        "delta_sq": format_rational(data.delta_sq),
        "perp_subsystem": [str(k) for k in data.perp_subsystem],
    }
