"""Independent floating-point brute-force checks for the exact machinery.

Everything here deliberately takes a different route from the exact
modules: root systems are rebuilt from explicit Euclidean coordinates and
closed by numeric reflections, matrix inverses come from partial-pivot
LU (numpy), and the polytope maximum is attacked by random sampling of
the simplex.  Agreement with the exact values is then evidence, not
tautology.  All randomness flows from an explicit seed through numpy's
PCG64 generator, so reports are bit-reproducible.

The closure keeps a reflected vector unless it lies within 1e-7
(Chebyshev) of a vector already found.  It works one frontier at a time:
the images of all frontier vectors are formed in one product, tested
against the vectors of earlier frontiers in one chunked reduction, and
the survivors are settled against each other, in order, from one
pairwise distance matrix.  Nothing is rounded or hashed, so no bucket
boundary decides whether two vectors are duplicates.

The simplex sample depends only on the seed, the sample count and the
rank, so every kind of one rank gets the same one.  The suite runs the
kinds grouped by rank and draws each rank's sample once; the cache keeps
only the latest.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import format_rational, int_inverse
from .polytope import CartanPolytope
from .roots import RootKind

RNG_ALGORITHM = "numpy-pcg64"


class OracleReport(NamedTuple):
    name: str
    exact: str
    numeric: float
    error: float
    passed: bool
    note: str = ""

    def tsv_row(self) -> str:
        return "\t".join([self.name, self.exact, repr(self.numeric),
                          repr(self.error), "pass" if self.passed else "FAIL",
                          self.note])


TSV_HEADER = "name\texact\tnumeric\terror\tstatus\tnote"


@lru_cache(maxsize=1)
def _dirichlet_weights(seed: int, samples: int, rank: int) -> np.ndarray:
    """Read-only Dirichlet-uniform weights, one row of rank + 1 per sample.

    The draw depends only on (seed, samples, rank), so the kinds of one
    rank share it; the suite evaluates them together to draw it once.
    """
    rng = np.random.default_rng(seed & (2 ** 64 - 1))   # accept signed seeds
    w = rng.exponential(1.0, size=(samples, rank + 1))
    w /= w.sum(axis=1, keepdims=True)
    w.flags.writeable = False
    return w


def simplex_max_oracle(p: CartanPolytope, samples: int, seed: int) -> OracleReport:
    """Random convex combinations of the polytope vertices never beat d_sq.

    Draws Dirichlet-uniform weights over {0, e_1..e_l} via normalized
    exponentials and checks that no sampled squared norm exceeds the exact
    maximum (tolerance 1e-9) and that the best vertex reproduces it to 1e-10.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    m, g = p.system.int_gram
    verts = np.array([[float(c) for c in v] for v in p.vertices])
    gram = np.array([[x / g for x in row] for row in m])
    pts = _dirichlet_weights(seed, samples, p.system.rank)[:, 1:] @ verts
    q = pts @ gram
    q *= pts                                   # in place: one temporary less
    sampled_max = float(q.sum(axis=1).max())
    vertex_norms = ((verts @ gram) * verts).sum(axis=1)
    vertex_max = float(vertex_norms.max())
    exact = float(p.d_sq)
    passed = sampled_max <= exact + 1e-9 and abs(vertex_max - exact) <= 1e-10
    return OracleReport(
        name=f"simplex-max {p.system.kind}",
        exact=format_rational(p.d_sq),
        numeric=sampled_max,
        error=abs(vertex_max - exact),
        passed=passed,
        note=f"samples={samples} seed={seed} rng={RNG_ALGORITHM}",
    )


def inverse_oracle(rows, den: int, name: str = "") -> OracleReport:
    """Partial-pivot numeric inverse vs the exact one, 1e-9 relative, for
    the matrix N/den given by its integer rows N and positive ``den``.

    (N/den)^{-1} = den * y / delta with (y, delta) from ``int_inverse``.
    """
    a = np.array([[x / den for x in row] for row in rows])
    label = f"inverse {name}".strip()
    cond = float(np.linalg.cond(a))
    if cond >= 1e10:
        return OracleReport(name=label, exact="-", numeric=cond, error=float("nan"),
                            passed=True, note="skipped: ill-conditioned")
    num = np.linalg.inv(a)
    y, delta = int_inverse(rows)
    err = 0.0
    for i, row in enumerate(y):
        for j, v in enumerate(row):
            e = den * v / delta
            err = max(err, abs(num[i, j] - e) / max(1.0, abs(e)))
    return OracleReport(name=label, exact="entrywise", numeric=cond, error=err,
                        passed=err <= 1e-9, note=f"cond={cond:.3g}")


# Explicit Euclidean simple roots, listed in this package's node order.
def float_simple_roots(kind: RootKind) -> list[tuple[float, ...]]:
    fam, l = kind.family, kind.rank

    def e(i, n, scale=1.0):
        v = [0.0] * n
        v[i] = scale
        return v

    if fam == "a":
        return [tuple(np.subtract(e(i, l + 1), e(i + 1, l + 1))) for i in range(l)]
    if fam in ("b", "bc"):
        out = [tuple(np.subtract(e(i, l), e(i + 1, l))) for i in range(l - 1)]
        out.append(tuple(e(l - 1, l)))
        return out
    if fam == "c":
        out = [tuple(np.subtract(e(i, l), e(i + 1, l))) for i in range(l - 1)]
        out.append(tuple(e(l - 1, l, 2.0)))
        return out
    if fam == "d":
        out = [tuple(np.subtract(e(i, l), e(i + 1, l))) for i in range(l - 1)]
        out.append(tuple(np.add(e(l - 2, l), e(l - 1, l))))
        return out
    if fam == "g":
        return [(-2.0, 1.0, 1.0), (1.0, -1.0, 0.0)]
    if fam == "f":
        return [(0.0, 1.0, -1.0, 0.0), (0.0, 0.0, 1.0, -1.0),
                (0.0, 0.0, 0.0, 1.0), (0.5, -0.5, -0.5, -0.5)]
    if fam == "e":
        half = (0.5, -0.5, -0.5, -0.5, -0.5, -0.5, -0.5, 0.5)
        pair = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

        def diff(i):
            v = [0.0] * 8
            v[i] = -1.0
            v[i + 1] = 1.0
            return tuple(v)

        if l == 6:
            return [half, diff(0), diff(1), diff(2), diff(3), pair]
        if l == 7:
            return [diff(4), diff(3), diff(2), diff(1), diff(0), half, pair]
        return [diff(5), diff(4), diff(3), diff(2), diff(1), diff(0), half, pair]
    raise ValueError(fam)  # pragma: no cover


_CHUNK_FLOATS = 1 << 18     # 2 MB of float64 per temporary in _chebyshev


def _chebyshev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix of Chebyshev distances max_t |a[i, t] - b[j, t]|."""
    d = np.abs(a[:, None, 0] - b[None, :, 0])
    for t in range(1, a.shape[1]):
        np.maximum(d, np.abs(a[:, None, t] - b[None, :, t]), out=d)
    return d


def _float_closure(simples: list[tuple[float, ...]], tol: float = 1e-7,
                   cap: int = 600) -> list[np.ndarray]:
    """Reflection closure of float vectors with tolerance deduplication.

    A vector is kept unless it lies within ``tol`` (Chebyshev) of a vector
    kept before it.  One frontier is handled at a time: all its images are
    formed at once, tested against the vectors of earlier frontiers in
    row chunks, and the survivors are settled against each other, in
    order, from one pairwise distance matrix.
    """
    s = np.array(simples, dtype=float)
    norms = np.array([v @ v for v in s])

    def settle(cands: np.ndarray) -> np.ndarray:
        """Indices of the candidates kept, in order, among themselves."""
        near = np.empty((len(cands), len(cands)), dtype=bool)
        step = max(1, _CHUNK_FLOATS // max(1, len(cands)))
        for i in range(0, len(cands), step):
            near[i:i + step] = _chebyshev(cands[i:i + step], cands) < tol
        kept: list[int] = []
        for i in range(len(cands)):
            if not near[i, kept].any():
                kept.append(i)
        return np.array(kept, dtype=int)

    found = s[settle(s)]
    frontier = found
    while len(frontier):
        imgs = frontier[:, None, :] - ((2.0 * (frontier @ s.T)) / norms)[:, :, None] * s
        cands = imgs.reshape(-1, s.shape[1])
        seen = np.empty(len(cands), dtype=bool)
        step = max(1, _CHUNK_FLOATS // len(found))
        for i in range(0, len(cands), step):
            seen[i:i + step] = (_chebyshev(cands[i:i + step], found) < tol).any(axis=1)
        new = np.flatnonzero(~seen)
        new = new[settle(cands[new])]
        # The count only grows, so it passes cap after some frontier row
        # exactly when it does after the last one.
        if len(found) + len(new) > cap:
            raise RuntimeError("float closure runaway")
        frontier = cands[new]
        found = np.concatenate([found, frontier])
    return list(found)


def closure_count_oracle(kind: RootKind) -> OracleReport:
    """Regenerate the root system from Euclidean coordinates and recount.

    Also rebuilds the Gram matrix of the simple roots from coordinates
    (normalized by the highest root) and compares it to the exact one.
    """
    from .roots import build, highest_root_coeffs, root_count

    simples = float_simple_roots(kind)
    closure = _float_closure(simples)
    count = len(closure)
    if kind.family == "bc":
        sq = [float(np.array(r) @ np.array(r)) for r in closure]
        cutoff = (min(sq) + max(sq)) / 2 if max(sq) > min(sq) * 1.5 else max(sq) + 1
        count += sum(1 for x in sq if x < cutoff)

    exact_count = root_count(kind)
    rs = build(kind)
    m, g = rs.int_gram
    coeffs = highest_root_coeffs(kind)
    psi = np.zeros(len(simples[0]))
    for c, s in zip(coeffs, simples):
        psi += c * np.array(s)
    scale = float(psi @ psi)
    gram_err = 0.0
    for i in range(kind.rank):
        for j in range(kind.rank):
            num = float(np.array(simples[i]) @ np.array(simples[j])) / scale
            gram_err = max(gram_err, abs(num - m[i][j] / g))
    # len(rs.roots) runs the exact enumeration and its self-checks
    passed = count == exact_count == len(rs.roots) and gram_err <= 1e-9
    return OracleReport(
        name=f"closure-count {kind}",
        exact=str(exact_count),
        numeric=float(count),
        error=gram_err,
        passed=passed,
        note="coordinate realization",
    )


def standard_suite(seed: int, samples: int = 100_000, max_rank: int = 8) -> list[OracleReport]:
    """Every oracle check over all families up to max_rank, deterministically ordered."""
    from .polytope import build_polytope
    from .roots import build

    kinds: list[RootKind] = []
    for fam, lo in (("a", 1), ("b", 2), ("c", 3), ("d", 4), ("bc", 1)):
        kinds.extend(RootKind(fam, l) for l in range(lo, max_rank + 1))
    kinds.extend([RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
                  RootKind("f", 4), RootKind("g", 2)])

    reports: list[OracleReport] = []
    for k in sorted(kinds, key=lambda kind: kind.rank):   # one draw per rank
        rs = build(k)
        reports.append(closure_count_oracle(k))
        reports.append(inverse_oracle(*rs.int_gram, name=f"gram {k}"))
        reports.append(simplex_max_oracle(build_polytope(rs), samples, seed))
    hilbert = [[60 // (i + j + 1) for j in range(3)] for i in range(3)]  # 1/(i+j+1)
    reports.append(inverse_oracle(hilbert, 60, name="hilbert3"))
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    reports.append(inverse_oracle(identity, 1, name="identity5"))
    return sorted(reports, key=lambda r: r.name)
