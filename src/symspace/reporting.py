"""The report path: a space's injectivity radius, diameter and curvature.

The metric is a positive multiple of the negated Killing form,
<,> = -eps (,); the space is then Einstein with Ricci constant 1/(2 eps).
With psi the highest restricted root in Killing units:

    i(M)^2 = pi^2 * eps / (psi, psi)
    d(M)^2 = pi^2 * eps * dmax^2 / (psi, psi)
    kappa  = (psi, psi) / eps          (max sectional curvature)

where dmax^2 is the squared farthest-vertex norm of the restricted
system's Cartan polytope under highest-root normalization, so that
i(M) * sqrt(kappa) = pi exactly.  A report needs one catalog entry,
which it takes as given when passed one, and dmax^2, which is cached
per restricted kind.

For an irreducible system with simple roots a_1..a_l and highest root
psi = sum d_i a_i, the polytope's nonzero vertices e_j satisfy
(e_j, a_i) = delta_ij / d_j, so (e_j, e_j) = (inv(Gram))_jj / d_j^2.
With gram = S/N (``dynkin.gram_diagram``), (inv(Gram))_jj =
N det(S minus node j) / det S.  A Dynkin diagram is a tree, and
elimination on a tree makes no fill-in (Parter, SIAM Rev. 3, 1961), so
``tree_minors`` reads det S and every det(S minus node j) from prefix and
suffix continuants along the chain, in O(l) integer products.
``farthest_vertex`` reads S off the diagram, picks d_sq from the minors
by cross-multiplication and builds one Fraction: no matrix, no inverse
and no vertex is formed.  ``polytope`` builds the vertices themselves
from the same continuants.

This module holds everything ``space``, ``table`` and ``product`` run
past the catalog, so a process that only reports compiles neither the
slice predicates (``geometry``) nor the polytope (``polytope``); both
re-export the names they share with it.  ``MetricSpec`` and
``GeometryReport`` are named tuples: immutable, and equal to plain tuples
of their fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .catalog import HALF, SpaceEntry, SpaceLabel, resolve, to_json_dict as entry_json
from .dynkin import RootKind, check_rank, gram_diagram
from .linalg import PiSqrtValue, format_rational


class NoCanonicalMetric(LookupError):
    """Raised when a canonical metric preset is requested but not defined."""


class EmptyProduct(ValueError):
    """Raised when combining an empty list of factors."""


class MetricSpec(NamedTuple):
    """Metric scale: explicit eps, a Ricci constant, or a catalog preset."""

    mode: str                      # "epsilon" | "ricci" | "canonical"
    value: Fraction | None = None

    @classmethod
    def epsilon(cls, value) -> "MetricSpec":
        v = Fraction(value)
        if v <= 0:
            raise ValueError(f"epsilon must be positive, got {v}")
        return cls("epsilon", v)

    @classmethod
    def ricci(cls, value) -> "MetricSpec":
        v = Fraction(value)
        if v <= 0:
            raise ValueError(f"Ricci constant must be positive, got {v}")
        return cls("ricci", v)

    @classmethod
    def canonical(cls) -> "MetricSpec":
        return cls("canonical")


DEFAULT_METRIC = MetricSpec.epsilon(1)


class GeometryReport(NamedTuple):
    space: SpaceEntry
    epsilon: Fraction
    psi_sq: Fraction
    d_sq_sigma: Fraction           # polytope max of the restricted system
    injectivity_radius: PiSqrtValue
    diameter: PiSqrtValue
    kappa: Fraction
    ricci: Fraction


def _continuants(a: list[int], b: list[int]) -> list[int]:
    """p_k, the determinant of the tridiagonal matrix on nodes 0..k-1 with
    diagonal a and off-diagonal products b_k = T[k][k+1] T[k+1][k], for
    k = 0..len(a)."""
    p = [1, a[0]]
    for k in range(1, len(a)):
        p.append(a[k] * p[k] - b[k - 1] * p[k - 1])
    return p


def _tree_form(m) -> tuple[list[int], list[int], tuple[int, int, int] | None]:
    """(a, b, leaf) of a square integer matrix M on a Dynkin diagram in
    this package's numbering: a chain, or for d and e a chain 0..l-2 and
    the leaf l-1 on the chain node c with M[c][l-1] != 0.  a and b are the
    diagonal and the coupling products M[k][k+1] M[k+1][k] of the chain;
    leaf is (c, M[l-1][l-1], M[c][l-1] M[l-1][c]), or None on a chain."""
    l = len(m)
    a = [m[k][k] for k in range(l)]
    b = [m[k][k + 1] * m[k + 1][k] for k in range(l - 1)]
    if l > 2 and not b[-1]:              # d, e: node l-1 hangs off the chain
        b.pop()
        c = next(k for k in range(l - 2) if m[k][l - 1])
        return a[:-1], b, (c, a[-1], m[c][l - 1] * m[l - 1][c])
    return a, b, None


def _folded(a: list[int], b: list[int], leaf) -> tuple[list[int], list[int],
                                                       tuple[int, int, int] | None]:
    """(pre, suf, fork) for the tree (a, b, leaf) of ``_tree_form``; a and b
    are changed in place.

    pre[k] and suf[k] are the continuants of the chain nodes before k and
    from k on.  A leaf (diagonal f != 0, coupling product w) is first
    eliminated into its node c: with row c scaled by f, the leaf's Schur
    complement is a chain whose a_c is f a_c - w and whose two products at
    c are f times as large, and a continuant over a block holding c is the
    determinant of that block with the leaf.  fork is (c, f, the bare
    chain's determinant), or None on a chain.
    """
    fork = None
    if leaf:
        c, f, w = leaf
        fork = c, f, _continuants(a, b)[-1]
        a[c] = f * a[c] - w
        if c:
            b[c - 1] *= f
        b[c] *= f
    return _continuants(a, b), _continuants(a[::-1], b[::-1])[::-1], fork


def _minors(a: list[int], b: list[int], leaf) -> tuple[int, list[int]]:
    """(det, [det minus node j for each j]) of the tree (a, b, leaf).

    Removing chain node j leaves the blocks before and after it, so its
    minor is pre[j] * suf[j + 1]; the tree minus c is f times the blocks
    beside c, and the tree minus the leaf is the bare chain.
    """
    pre, suf, fork = _folded(a, b, leaf)
    minors = [pre[j] * suf[j + 1] for j in range(len(pre) - 1)]
    if fork:
        c, f, chain_det = fork
        minors[c] *= f
        minors.append(chain_det)
    return pre[-1], minors


def tree_minors(m) -> tuple[int, list[int]]:
    """(det M, [det(M minus node j) for each j]) for M as in ``_tree_form``."""
    return _minors(*_tree_form(m))


def farthest_vertex(kind: RootKind) -> tuple[Fraction, int]:
    """(d_sq, argmax_vertex) of the kind's polytope, from the minors of S
    read off the diagram (``dynkin.gram_diagram``): the first largest norm,
    found by cross-multiplying the candidates (det S and N are positive),
    then one Fraction.  InvalidRank past MAX_RANK."""
    lengths, edges, d, norm = gram_diagram(check_rank(kind))
    a = [2 * x for x in lengths]
    b = [bond * bond for _, _, bond in edges]
    leaf = None
    if edges and edges[-1][0] != len(a) - 2:     # d, e: the last node is a leaf
        leaf = edges[-1][0], a.pop(), b.pop()
    det, minors = _minors(a, b, leaf)
    best = 0
    for j in range(1, kind.rank):
        if minors[j] * d[best] * d[best] > minors[best] * d[j] * d[j]:
            best = j
    return Fraction(norm * minors[best], det * d[best] * d[best]), best


@lru_cache(maxsize=None)
def _d_sq(kind: RootKind) -> Fraction:
    """d_sq of a kind's polytope, all a report reads of it."""
    return farthest_vertex(kind)[0]


def _epsilon_for(entry: SpaceEntry, metric: MetricSpec) -> Fraction:
    if metric.mode == "epsilon":
        return metric.value
    if metric.mode == "ricci":
        return HALF / metric.value
    if metric.mode == "canonical":
        if entry.canonical_epsilon is None:
            raise NoCanonicalMetric(f"no canonical metric preset for {entry.label}")
        return entry.canonical_epsilon
    raise ValueError(f"unknown metric mode {metric.mode!r}")  # pragma: no cover


def report(label: SpaceEntry | SpaceLabel | str,
           metric: MetricSpec = DEFAULT_METRIC) -> GeometryReport:
    """Compute the geometric quantities of a catalog space under a metric;
    a catalog entry (as ``enumerate_table`` yields) is used as it is."""
    entry = label if isinstance(label, SpaceEntry) else resolve(label)
    eps = _epsilon_for(entry, metric)
    psi_sq = entry.psi_sq_killing
    d_sq = _d_sq(entry.restricted)
    e, f = eps.numerator, eps.denominator
    a, b = psi_sq.numerator, psi_sq.denominator
    inj, kappa, ricci = _scaled(e, f, a, b)
    diameter = PiSqrtValue(Fraction(e * b * d_sq.numerator, f * a * d_sq.denominator))
    return GeometryReport(entry, eps, psi_sq, d_sq, inj, diameter, kappa, ricci)


# The rows of a table share a metric and a few dozen psi_sq values.
@lru_cache(maxsize=1024)
def _scaled(e: int, f: int, a: int, b: int) -> tuple[PiSqrtValue, Fraction, Fraction]:
    """(injectivity radius, kappa, ricci) for eps = e/f and psi_sq = a/b.
    Each value here and the diameter in ``report`` is one Fraction() of
    integer products, which reduces with one gcd, where Fraction's operators
    take two and a dispatch."""
    return PiSqrtValue(Fraction(e * b, f * a)), Fraction(f * a, e * b), Fraction(f, 2 * e)


def kappa_relation_check(rep: GeometryReport) -> Fraction:
    """i(M)^2 * kappa / pi^2 - 1; identically zero when the two formulas agree."""
    return rep.injectivity_radius.radicand * rep.kappa - 1


def product(reports: list[GeometryReport] | tuple[GeometryReport, ...]) -> tuple[PiSqrtValue, PiSqrtValue]:
    """Injectivity radius and diameter of a product of factors.

    The injectivity radius is the minimum over factors; the squared
    diameter is the sum of squared factor diameters.
    """
    if not reports:
        raise EmptyProduct("product of no factors")
    inj = min(r.injectivity_radius for r in reports)
    diam_sq = sum((r.diameter.radicand for r in reports), Fraction(0))
    return inj, PiSqrtValue(diam_sq)


def report_json_dict(rep: GeometryReport) -> dict:
    out = {"space": entry_json(rep.space)}
    out.update({
        "epsilon": format_rational(rep.epsilon),
        "ricci": format_rational(rep.ricci),
        "kappa": format_rational(rep.kappa),
        "psi_sq": format_rational(rep.psi_sq),
        "d_sq_sigma": format_rational(rep.d_sq_sigma),
        "injectivity_radius": rep.injectivity_radius.to_json(),
        "diameter": rep.diameter.to_json(),
    })
    return out
