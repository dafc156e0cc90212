"""Independent floating-point brute-force checks for the exact machinery.

Everything here deliberately takes a different route from the exact
modules: root systems are rebuilt from explicit Euclidean coordinates and
closed by numeric reflections, matrix inverses come from partial-pivot
LU (numpy), and the polytope maximum is attacked by random sampling of
the simplex.  Agreement with the exact values is then evidence, not
tautology.  All randomness flows from an explicit seed through numpy's
PCG64 generator, so reports are bit-reproducible.

The closure keeps a reflected vector unless it lies within 1e-7
(Chebyshev) of a vector already found, testing it against all of them in
one array reduction.  Nothing is rounded or hashed, so no bucket boundary
decides whether two vectors are duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import Matrix, format_rational
from .polytope import CartanPolytope
from .roots import RootKind

RNG_ALGORITHM = "numpy-pcg64"


class IllConditioned(ValueError):
    """Raised internally when a numeric inverse would be meaningless."""


@dataclass(frozen=True)
class OracleReport:
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


def simplex_max_oracle(p: CartanPolytope, samples: int, seed: int) -> OracleReport:
    """Random convex combinations of the polytope vertices never beat d_sq.

    Draws Dirichlet-uniform weights over {0, e_1..e_l} via normalized
    exponentials and checks that no sampled squared norm exceeds the exact
    maximum (tolerance 1e-9) and that the best vertex reproduces it to 1e-10.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(seed & (2 ** 64 - 1))   # accept signed seeds
    l = p.system.rank
    verts = np.array([[float(c) for c in v] for v in p.vertices])
    gram = np.array([[float(p.system.gram[i, j]) for j in range(l)] for i in range(l)])
    w = rng.exponential(1.0, size=(samples, l + 1))
    w /= w.sum(axis=1, keepdims=True)
    pts = w[:, 1:] @ verts
    norms = ((pts @ gram) * pts).sum(axis=1)
    sampled_max = float(norms.max())
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


def inverse_oracle(m: Matrix, name: str = "") -> OracleReport:
    """Partial-pivot numeric inverse vs the exact one, 1e-9 relative."""
    a = np.array([[float(x) for x in row] for row in m.entries])
    label = f"inverse {name}".strip()
    cond = float(np.linalg.cond(a))
    if cond >= 1e10:
        return OracleReport(name=label, exact="-", numeric=cond, error=float("nan"),
                            passed=True, note="skipped: ill-conditioned")
    num = np.linalg.inv(a)
    exact = m.invert()
    err = 0.0
    for i in range(m.rows):
        for j in range(m.cols):
            e = float(exact[i, j])
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


def _float_closure(simples: list[tuple[float, ...]], tol: float = 1e-7,
                   cap: int = 600) -> list[np.ndarray]:
    """Reflection closure of float vectors with tolerance deduplication.

    The found vectors are the first k rows of one array, so testing a
    candidate against all of them is a single reduction.
    """
    vs = [np.array(s) for s in simples]
    norms = [float(v @ v) for v in vs]
    # k <= max(cap, len(vs)) before each runaway check, plus one row per simple
    found = np.empty((max(cap, len(vs)) + len(vs), len(vs[0])))
    k = 0

    def add(x) -> bool:
        nonlocal k
        if (np.abs(found[:k] - x).max(axis=1) < tol).any():
            return False
        found[k] = x
        k += 1
        return True

    frontier = [v for v in vs if add(v)]
    while frontier:
        nxt = []
        for r in frontier:
            for s, n in zip(vs, norms):
                img = r - (2.0 * float(r @ s) / n) * s
                if add(img):
                    nxt.append(img)
            if k > cap:
                raise RuntimeError("float closure runaway")
        frontier = nxt
    return list(found[:k])


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
    coeffs = highest_root_coeffs(kind)
    psi = np.zeros(len(simples[0]))
    for c, s in zip(coeffs, simples):
        psi += c * np.array(s)
    scale = float(psi @ psi)
    gram_err = 0.0
    for i in range(kind.rank):
        for j in range(kind.rank):
            num = float(np.array(simples[i]) @ np.array(simples[j])) / scale
            gram_err = max(gram_err, abs(num - float(rs.gram[i, j])))
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
    for k in kinds:
        rs = build(k)
        reports.append(closure_count_oracle(k))
        reports.append(inverse_oracle(rs.gram, name=f"gram {k}"))
        reports.append(simplex_max_oracle(build_polytope(rs), samples, seed))
    hilbert = Matrix.from_rows([[Fraction(1, i + j + 1) for j in range(3)]
                                for i in range(3)])
    reports.append(inverse_oracle(hilbert, name="hilbert3"))
    reports.append(inverse_oracle(Matrix.identity(5), name="identity5"))
    return sorted(reports, key=lambda r: r.name)
