"""Rational-arithmetic reference helpers, used only by the tests.

The package computes inner products on integers (``RootSystem.int_gram``,
the pair (M, g) with gram = M/g); these are the plain Fraction products of
vectors and matrices (tuples of Fraction rows), the Fraction Gram matrix
and the Fraction formulas through it, and a Gauss-Jordan inverse, that the
tests compare it against.  ``int_inverse`` (with ``_bareiss_forward`` and
``SingularMatrix``) is the general fraction-free Bareiss inverse that the
package used for the polytope's vertices until ``polytope.tree_adjugate``
replaced it, and for the vertex norms until the minors of the Gram tree
(``dynkin.principal_minors``) did; it is kept verbatim as the exact
reference for both.
``reflection_closure`` is the full closure of the simple roots under the
simple reflections, negatives included, that the raising closure of
``RootSystem.positive_roots`` is checked against;
``indivisible_roots`` drops the doubled roots from the enumerated ones; and
``dot_product_conjugate`` is the conjugacy test
that the kernel's ``roots.conjugate`` replaced: one integer dot product of
the point itself with a Killing-Gram row per enumerated positive root (the
rows are cached per system and Killing length).  The kernel pairs roots
only for the exceptional kinds, and with its pairing vector.
``epsilon_simple_roots``, ``to_epsilon``, ``signed_sort``,
``positive_pairings`` and ``epsilon_conjugate`` are the classical
families in epsilon-coordinates, where the Weyl group permutes the
coordinates and changes their signs: the slice reference at any rank,
conjugacy included, with no root listed.
``dominant_reference`` and ``level_reference`` are the Fraction versions
of the integer slice kernel of ``roots`` (``dominant_slice``): Fraction
Gram pairings kept current through the reflected Gram row, and the level
(x, psi) of a point in Gram units.  ``pairings`` forms the pairing vector
p = nA that ``roots.conjugate`` reads, which the kernel forms inside its
one pass.
``three_pass_clear_denominators`` is the definition that the
one-pass ``linalg.clear_denominators`` replaced.  ``realized_gram`` and
``realized_cartan`` read the Dynkin diagram off the Euclidean realization
of the simple roots in ``oracle.float_simple_roots``, independently of the
diagram that ``roots`` derives its Cartan matrix and Gram pair from.
``perp_subsystem`` and the functions after it are the enumeration half
of ``killing`` that the per-family formulas replaced in
``killing.killing_data``: they list the roots orthogonal to the highest
root through Fraction Gram products and type their components by root
count, and ``killing_self_consistency`` recomputes (delta, delta) as a
trace sum over the enumerated roots.  They share no helper with
``killing``.  ``perp_simple_indices_by_gram`` (the zero entries of the
integer Gram product with the highest root) and
``perp_simple_indices_by_roots`` (delta - a_i not a root) are the two
references for ``killing.highest_root_neighbours``, which reads the
simple roots not orthogonal to delta off the kind.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

import numpy as np

from symspace.killing import KillingData, NonReducedInput, canonical_kind
from symspace.linalg import DimensionMismatch
from symspace.oracle import float_simple_roots
from symspace.roots import RootKind, RootSystem, SliceClass

# The root count up to which roots were once enumerated, and past which
# conjugacy was refused; the tests still run the enumeration-based
# references on every kind within it.
FORMER_ROOT_CAP = 500
IN_CAP_KINDS = (
    [RootKind("a", l) for l in range(1, 22)]
    + [RootKind("b", l) for l in range(2, 16)]
    + [RootKind("c", l) for l in range(3, 16)]
    + [RootKind("d", l) for l in range(4, 17)]
    + [RootKind("bc", l) for l in range(1, 16)]
    + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
       RootKind("f", 4), RootKind("g", 2)]
)


class SingularMatrix(ValueError):
    """Raised when inverting a singular matrix."""


def int_inverse(rows) -> tuple[list[list[int]], int]:
    """(y, delta) with y = delta * N^{-1} integral, for a square integer N.

    After the forward phase on [N | I] the last pivot is delta = +-det(N),
    so y is integral (Cramer's rule) and the back phase solves for it with
    exact integer division.  Raises SingularMatrix when det(N) = 0.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("inverse needs a square matrix")
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    delta = _bareiss_forward(aug, n)
    if delta is None:
        raise SingularMatrix("matrix is singular")
    y = [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = [delta * x for x in row[n:]]
        for k in range(i + 1, n):
            c = row[k]
            if c:
                acc = [a - c * b for a, b in zip(acc, y[k])]
        piv = row[i]
        y[i] = [a // piv for a in acc]
    return y, delta


def _bareiss_forward(m: list[list[int]], n: int) -> int | None:
    """Fraction-free forward elimination in place on integer rows.

    Eliminates below the first n pivot columns of the (possibly augmented)
    integer row list ``m``.  Returns the last pivot, or None when the
    matrix is singular.  Divisions are exact by Sylvester's identity, so
    no rational arithmetic is needed.
    """
    prev = 1
    width = len(m[0]) if m else 0
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return None
        piv = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, width):
                row_i[j] = (piv * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return m[n - 1][n - 1] if n else 1


@lru_cache(maxsize=8)
def gram(rs) -> tuple[tuple[Fraction, ...], ...]:
    """The Gram matrix M/g of ``rs.int_gram`` as Fraction rows (the last
    few are cached, as the tests call this inside loops)."""
    m, g = rs.int_gram
    return tuple(tuple(Fraction(x, g) for x in row) for row in m)


def matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Fraction rows of a matrix given by rows of rationals."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def cleared(m) -> tuple[list[list[int]], int]:
    """(D*m as integer rows, D) for D = lcm of the denominators of m; an
    entry already a Fraction is read as it is."""
    m = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in m]
    d = lcm(*(x.denominator for r in m for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in m], d


def inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """The exact inverse through ``int_inverse``: m = N/d, so
    m^{-1} = d * y / delta with (y, delta) = int_inverse(N)."""
    ints, d = cleared(m)
    y, delta = int_inverse(ints)
    return tuple(tuple(Fraction(d * v, delta) for v in r) for r in y)


def gauss_jordan_inverse(rows):
    """Fraction Gauss-Jordan on [A | I]; None when A is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def dot(u, v) -> Fraction:
    """Plain coordinate dot product (no Gram matrix)."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mul_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(dot(r, v) for r in m)


def mul_mat(a, b) -> tuple[tuple[Fraction, ...], ...]:
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"{len(a[0])} != {len(b)}")
    cols = tuple(zip(*b))
    return tuple(tuple(dot(r, c) for c in cols) for r in a)


def scaled(m, c) -> tuple[tuple[Fraction, ...], ...]:
    c = Fraction(c)
    return tuple(tuple(c * x for x in r) for r in m)


def dot_gram(gram, u, v) -> Fraction:
    """u^T gram v for coefficient vectors u, v."""
    u = tuple(Fraction(x) for x in u)
    v = tuple(Fraction(x) for x in v)
    if len(u) != len(gram) or len(v) != len(gram):
        raise DimensionMismatch("vector length does not match Gram rank")
    return dot(u, mul_vec(gram, v))


def inner(rs, u, v) -> Fraction:
    """Inner product of coefficient vectors through the Fraction Gram matrix."""
    return dot_gram(gram(rs), u, v)


def root_norm_sq(rs, r) -> Fraction:
    """Squared length of a root given by its simple-root coefficients."""
    return dot_gram(gram(rs), r, r)


def perp_simple_indices_by_gram(rs) -> tuple[int, ...]:
    """0-based indices i with (a_i, delta) = 0: the zero entries of the
    integer Gram product (M psi)_i, with gram = M/g of ``rs.int_gram``."""
    m, _ = rs.int_gram
    return tuple(i for i, row in enumerate(m) if sum(map(mul, row, rs.highest_root)) == 0)


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


@lru_cache(maxsize=8)
def killing_weights(rs, psi_sq) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Killing-Gram row action of each positive root of ``rs``, as integer
    rows W over one denominator den: the Killing pairing of h with the
    root is h . W_r / den, for psi_sq the highest root's Killing length."""
    m, g = rs.int_gram
    rows = tuple(tuple(psi_sq.numerator * sum(map(mul, row, r)) for row in m)
                 for r in sorted(rs.roots) if sum(r) > 0)
    return rows, psi_sq.denominator * g


def dot_product_conjugate(rs, psi_sq, n, d) -> bool:
    """Whether h = n / d pairs to a nonzero integer with some positive root,
    by |R+| dot products of n with ``killing_weights`` rows."""
    rows, den = killing_weights(rs, psi_sq)
    q = den * d
    for w in rows:
        v = sum(map(mul, n, w))
        if v and v % q == 0:
            return True
    return False


def pairings(rs: RootSystem, n) -> list[int]:
    """p = nA for the numerators n of a point over any common denominator,
    A the Cartan matrix: the pairing vector ``roots.conjugate`` reads."""
    return [sum(nj * row[k] for nj, row in zip(n, rs.cartan)) for k in range(rs.rank)]


def dominant_reference(rs, x) -> tuple[tuple[Fraction, ...], int]:
    """(the dominant point of the Weyl orbit of x, the reflection count):
    reflect at the lowest-index wall with (a_i, x) < 0 until none is left.
    The pairings w = Gram x are Fractions through the Fraction Gram
    matrix; s_i moves x_i by c = 2 w_i / (a_i, a_i), so w moves by c times
    Gram row i."""
    cur = [Fraction(c) for c in x]
    g = gram(rs)
    w = list(mul_vec(g, tuple(cur)))
    count = 0
    while True:
        i = next((i for i, wi in enumerate(w) if wi < 0), None)
        if i is None:
            return tuple(cur), count
        c = 2 * w[i] / g[i][i]
        cur[i] -= c
        for k, gik in enumerate(g[i]):
            if gik:
                w[k] -= c * gik
        count += 1


def level_reference(rs, x) -> SliceClass | None:
    """The class of x in Gram units by its level (x, psi) against 1, or
    None when x is not dominant."""
    w = mul_vec(gram(rs), tuple(Fraction(c) for c in x))
    if min(w) < 0:
        return None
    level = sum((d * wi for d, wi in zip(rs.highest_root, w)), Fraction(0))
    if level > 1:
        return SliceClass.OUTSIDE
    if level == 1:
        return SliceClass.ON_CUT_FACE
    return SliceClass.INTERIOR


def reflection_closure(cartan) -> frozenset[tuple[int, ...]]:
    """All roots, by closing the simple roots under the simple reflections.

    s_j sends a coefficient vector b to b - (sum_i b_i A[i][j]) e_j;
    negatives arise since s_i(a_i) = -a_i.  For a non-reduced system this
    gives the indivisible roots of the Cartan matrix.
    """
    l = len(cartan)
    seen = {tuple(int(i == j) for j in range(l)) for i in range(l)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for r in frontier:
            for j in range(l):
                c = sum(r[i] * cartan[i][j] for i in range(l))
                img = r[:j] + (r[j] - c,) + r[j + 1:]
                if c and img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def realized_gram(kind) -> np.ndarray:
    """4 (a_i, a_j) of the realized simple roots, an integer array: their
    coordinates are 0, +-1/2, +-1 or 2, so every float product is an exact
    multiple of 1/4."""
    r = np.array(float_simple_roots(kind))
    g = 4 * (r @ r.T)
    assert (g == np.round(g)).all(), kind
    return g.astype(np.int64)


def realized_cartan(kind) -> tuple[tuple[int, ...], ...]:
    """A[i][j] = 2 (a_i, a_j) / (a_j, a_j) of the realized simple roots."""
    g = realized_gram(kind)
    two_g, diagonal = 2 * g, np.diag(g)
    assert not (two_g % diagonal).any(), kind
    return tuple(map(tuple, (two_g // diagonal).tolist()))


def epsilon_simple_roots(kind) -> list[tuple[int, ...]]:
    """The simple roots of a classical kind (a, b, c, d, bc) in
    epsilon-coordinates, in this package's node numbering: a_i = e_i - e_{i+1}
    along the chain, then e_l for b and bc, 2 e_l for c, and for d the leaf
    e_{l-1} + e_l last.  These are ``oracle.float_simple_roots``, whose
    coordinates here are the integers 0, +-1 and 2."""
    roots = [tuple(map(int, r)) for r in float_simple_roots(kind)]
    assert roots == [tuple(map(float, r)) for r in roots], kind
    return roots


def to_epsilon(simple, x) -> list[Fraction]:
    """sum_i x_i a_i in epsilon-coordinates, for the simple roots ``simple``."""
    v = [Fraction(0)] * len(simple[0])
    for xi, a in zip(x, simple):
        for k, c in enumerate(a):
            if c:
                v[k] += xi * c
    return v


def signed_sort(family: str, v) -> list[Fraction]:
    """The dominant point of the Weyl orbit of v in epsilon-coordinates:
    v sorted decreasing for a, and its absolute values sorted decreasing for
    b, c and bc.  W(d) changes an even number of signs, so for d the last
    entry is negated when an odd number of entries is negative and none is
    zero."""
    if family == "a":
        return sorted(v, reverse=True)
    out = sorted(map(abs, v), reverse=True)
    if family == "d" and 0 not in v and sum(x < 0 for x in v) % 2:
        out[-1] = -out[-1]
    return out


def positive_pairings(family: str, v) -> list[Fraction]:
    """(alpha, v), up to a positive factor, for every indivisible positive
    root alpha of a classical family in epsilon-coordinates: e_i - e_j for
    i < j; also e_i + e_j for b, c, d and bc; and e_i for b and bc (2 e_i
    for c)."""
    n = len(v)
    out = [v[i] - v[j] for i in range(n) for j in range(i + 1, n)]
    if family != "a":
        out += [v[i] + v[j] for i in range(n) for j in range(i + 1, n)]
        if family != "d":
            out += v
    return out


def epsilon_conjugate(family: str, simple, psi_sq, h) -> bool:
    """Whether the Killing-unit point h pairs to a nonzero integer with some
    positive root, from epsilon-coordinates alone, with no root listed:
    psi_sq * h in epsilon-coordinates is paired with e_i - e_j for i < j;
    also e_i + e_j for b, c, d and bc; e_i for b and bc; and 2 e_i for c
    and bc (bc's doubled roots, which ``positive_pairings`` omits).  Each
    pairing is divided by |psi|^2, the length of the highest root: 2 e_1
    for c and bc, of length 4, and a root of length 2 otherwise.  The
    coordinates are cleared to n / D once, so a pairing qualifies when its
    integer numerator is nonzero and divisible by |psi|^2 D."""
    v = to_epsilon(simple, [psi_sq * Fraction(x) for x in h])
    d = lcm(*(x.denominator for x in v))
    v = [x.numerator * (d // x.denominator) for x in v]
    n = len(v)
    out = [v[i] - v[j] for i in range(n) for j in range(i + 1, n)]
    if family != "a":
        out += [v[i] + v[j] for i in range(n) for j in range(i + 1, n)]
    if family in ("b", "bc"):
        out += v
    if family in ("c", "bc"):
        out += [2 * x for x in v]
    q = (4 if family in ("c", "bc") else 2) * d
    return any(x and x % q == 0 for x in out)


def indivisible_roots(rs) -> frozenset[tuple[int, ...]]:
    """The enumerated roots less the doubles 2r of roots r (bc's only)."""
    return rs.roots - {tuple(2 * x for x in r) for r in rs.roots}


def three_pass_clear_denominators(xs) -> tuple[list[int], int]:
    """(D*x as integers, D) for D the lcm of the denominators of xs: convert,
    take the lcm, then scale, reading each denominator twice."""
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _delta_pairings(rs: RootSystem) -> tuple[Fraction, ...]:
    """(a_i, delta) for each simple root, through the Fraction Gram matrix."""
    return mul_vec(gram(rs), rs.highest_root)


def _require_reduced(kind: RootKind) -> None:
    if not kind.is_reduced:
        raise NonReducedInput("Killing normalization applies to reduced ambient systems")


def _delta_sq(rs: RootSystem, perp: frozenset) -> Fraction:
    """(delta, delta) = 4 / (|roots| - |perp| + 6) from the enumerated roots."""
    return Fraction(4, len(rs.roots) - len(perp) + 6)


def perp_subsystem(rs: RootSystem) -> frozenset[tuple[int, ...]]:
    """All roots with exact inner product 0 against the highest root."""
    w = _delta_pairings(rs)
    return frozenset(r for r in rs.roots if dot(r, w) == 0)


def perp_decomposition(rs: RootSystem) -> tuple[RootKind, ...]:
    """Decomposition type of the orthogonal subsystem, canonicalized and sorted.

    Components of the induced simple-root graph are identified by rank,
    root count, and the long/short split of their simple roots.
    """
    if not rs.kind.is_reduced:
        raise NonReducedInput("orthogonal-subsystem typing needs a reduced system")
    return _decompose(rs, perp_subsystem(rs))


def _decompose(rs: RootSystem, perp: frozenset) -> tuple[RootKind, ...]:
    comps = _graph_components(rs, perp_simple_indices_by_gram(rs))
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


def killing_delta_sq(rs: RootSystem) -> Fraction:
    """Killing-normalized (delta, delta), computed from enumerated root counts."""
    _require_reduced(rs.kind)
    return _delta_sq(rs, perp_subsystem(rs))


def killing_self_consistency(rs: RootSystem) -> Fraction:
    """Sum of (alpha, delta)^2 over all roots minus (delta, delta); must be 0.

    The Gram matrix is rescaled so (delta, delta) takes its Killing value
    from root counting; the sum then recomputes the trace of (ad delta)^2
    independently.  Works for the non-reduced family too, where the count
    formula extends verbatim.
    """
    c = _delta_sq(rs, perp_subsystem(rs))
    w = _delta_pairings(rs)           # (alpha, delta) = c * (alpha . w)
    total = sum(dot(r, w) ** 2 for r in rs.roots)
    return c * c * total - c


def killing_data_by_roots(rs: RootSystem) -> KillingData:
    """``killing.killing_data`` as it was computed from the enumerated roots."""
    _require_reduced(rs.kind)
    perp = perp_subsystem(rs)
    return KillingData(
        system=rs.kind,
        total_roots=len(rs.roots),
        perp_roots=len(perp),
        delta_sq=_delta_sq(rs, perp),
        perp_subsystem=_decompose(rs, perp),
    )
