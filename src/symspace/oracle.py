"""Independent floating-point brute-force checks for the exact machinery.

Everything here deliberately takes a different route from the exact
modules: root systems are rebuilt from explicit Euclidean coordinates
and closed by numeric reflections, matrix inverses come from
partial-pivot LU (numpy), and the polytope maximum is attacked by random
sampling of the simplex.  Agreement with the exact values is then
evidence, not tautology.  The exact inverse of each Gram matrix is the
one the program uses, ``polytope.tree_adjugate``; the suite's two fixed
matrices (the 3x3 Hilbert matrix and the identity) bring their known
inverses.  All randomness flows from an explicit seed through numpy's
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
kinds grouped by rank and draws each rank's sample once, a block of rows
at a time: each block is normalized and then checked against every kind
of the rank before the next is drawn, so no array larger than a block is
alive and memory does not grow with the sample count.  Each block's row
sums follow numpy's pairwise summation order for rows of up to 128 (8
lanes), so every float is the one a whole-array ``sum(axis=1)`` gives and
the pinned ``verify`` TSVs hold.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

import numpy as np

from .dynkin import RootKind, kinds
from .linalg import format_rational
from .polytope import CartanPolytope, tree_adjugate

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


_BLOCK_ROWS = 4096          # rows of a sample drawn, normalized and summed at once
_PAIRWISE_BLOCK = 128       # numpy sums a row longer than this by recursion


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)``, bit for bit, one column at a time.

    numpy adds a row of n <= 128 floats to the reduction's identity 0.0 by
    pairwise summation: for n < 8, left to right; else in 8 lanes, the
    columns k, k+8, ... in lane k % 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the last n % 8 columns.
    """
    n = a.shape[1]
    if n > _PAIRWISE_BLOCK:
        raise ValueError(f"row sums follow numpy's order only up to {_PAIRWISE_BLOCK} columns")
    if n < 8:
        s = np.zeros(len(a))
        for k in range(n):
            s += a[:, k]
        return s
    end = n - n % 8
    r = a[:, :8].copy()
    for k in range(8, end, 8):
        r += a[:, k:k + 8]
    s = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    for k in range(end, n):
        s += a[:, k]
    s += 0.0                   # the identity: turns a -0.0 sum into 0.0, as numpy does
    return s


def _weight_blocks(seed: int, samples: int, rank: int):
    """Dirichlet-uniform weights over {0, e_1..e_l} via normalized
    exponentials, a block of rows at a time: yields each block's weights of
    e_1..e_l, one contiguous row of ``rank`` per sample.

    The blocks continue the generator's stream exactly as one
    (samples, rank + 1) draw would, so the weights are those of one draw.
    """
    rng = np.random.default_rng(seed & (2 ** 64 - 1))   # accept signed seeds
    for i in range(0, samples, _BLOCK_ROWS):
        e = rng.exponential(1.0, size=(min(_BLOCK_ROWS, samples - i), rank + 1))
        yield e[:, 1:] / _row_sums(e)[:, None]


def simplex_max_oracle(polytopes: list[CartanPolytope], samples: int,
                       seed: int) -> list[OracleReport]:
    """Random convex combinations of each polytope's vertices never beat d_sq.

    The polytopes share one rank and so one sample, which is drawn once,
    a block of rows at a time, and checked against every polytope before
    the next block is drawn.  A report passes when no sampled squared norm
    exceeds the exact maximum (tolerance 1e-9) and the best vertex
    reproduces it to 1e-10.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rank = polytopes[0].system.rank
    if any(p.system.rank != rank for p in polytopes):
        raise ValueError("the polytopes of one simplex check share one rank")
    forms = []
    for p in polytopes:
        m, g = p.system.int_gram
        forms.append((np.array([[float(c) for c in v] for v in p.vertices]),
                      np.array([[x / g for x in row] for row in m])))
    sampled = np.full(len(forms), -np.inf)
    for w in _weight_blocks(seed, samples, rank):
        for k, (verts, gram) in enumerate(forms):
            pts = w @ verts
            q = pts @ gram
            q *= pts
            sampled[k] = np.maximum(sampled[k], _row_sums(q).max())
    reports = []
    for p, (verts, gram), sampled_max in zip(polytopes, forms, sampled.tolist()):
        vertex_max = float(((verts @ gram) * verts).sum(axis=1).max())
        exact = float(p.d_sq)
        reports.append(OracleReport(
            name=f"simplex-max {p.system.kind}",
            exact=format_rational(p.d_sq),
            numeric=sampled_max,
            error=abs(vertex_max - exact),
            passed=sampled_max <= exact + 1e-9 and abs(vertex_max - exact) <= 1e-10,
            note=f"samples={samples} seed={seed} rng={RNG_ALGORITHM}",
        ))
    return reports


def inverse_oracle(rows, den: int, exact, name: str = "") -> OracleReport:
    """Partial-pivot numeric inverse vs the exact one, 1e-9 relative, for
    the matrix N/den given by its integer rows N and positive ``den``.

    ``exact`` is (delta, y) with y = delta * N^{-1} integral, as the
    caller computes it, so (N/den)^{-1} = den * y / delta.
    """
    a = np.array([[x / den for x in row] for row in rows])
    label = f"inverse {name}".strip()
    cond = float(np.linalg.cond(a))
    if cond >= 1e10:
        return OracleReport(name=label, exact="-", numeric=cond, error=float("nan"),
                            passed=True, note="skipped: ill-conditioned")
    num = np.linalg.inv(a)
    delta, y = exact
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
_TOL = 1e-7                 # Chebyshev distance under which two closure vectors are one


def _chebyshev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix of Chebyshev distances max_t |a[i, t] - b[j, t]|."""
    d = np.abs(a[:, None, 0] - b[None, :, 0])
    for t in range(1, a.shape[1]):
        np.maximum(d, np.abs(a[:, None, t] - b[None, :, t]), out=d)
    return d


def _float_closure(simples: list[tuple[float, ...]], cap: int = 600) -> list[np.ndarray]:
    """Reflection closure of float vectors with tolerance deduplication.

    A vector is kept unless it lies within ``_TOL`` (Chebyshev) of a vector
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
            near[i:i + step] = _chebyshev(cands[i:i + step], cands) < _TOL
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
            seen[i:i + step] = (_chebyshev(cands[i:i + step], found) < _TOL).any(axis=1)
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

    reports: list[OracleReport] = []
    for _, group in groupby(sorted(kinds(("a", "b", "c", "d", "bc"), max_rank),
                                   key=lambda kind: kind.rank),
                            key=lambda kind: kind.rank):
        polytopes = []
        for k in group:
            rs = build(k)
            reports.append(closure_count_oracle(k))
            m, g = rs.int_gram
            reports.append(inverse_oracle(m, g, tree_adjugate(k), name=f"gram {k}"))
            polytopes.append(build_polytope(rs))
        reports.extend(simplex_max_oracle(polytopes, samples, seed))   # one draw per rank
    hilbert = [[60 // (i + j + 1) for j in range(3)] for i in range(3)]  # 1/(i+j+1)
    # The classical integer inverse of the Hilbert matrix, 60 * (60 H)^{-1}.
    hilbert_inv = [[9, -36, 30], [-36, 192, -180], [30, -180, 180]]
    reports.append(inverse_oracle(hilbert, 60, (60, hilbert_inv), name="hilbert3"))
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    reports.append(inverse_oracle(identity, 1, (1, identity), name="identity5"))
    return sorted(reports, key=lambda r: r.name)
