import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from symspace.dynkin import kinds
from symspace.linalg import format_rational
from symspace.oracle import (_BLOCK_ROWS, RNG_ALGORITHM, OracleReport,
                             _float_closure, _row_sums, _weight_blocks,
                             closure_count_oracle,
                             float_simple_roots, inverse_oracle,
                             simplex_max_oracle, standard_suite)
from symspace.polytope import build_polytope, tree_adjugate
from symspace.roots import RootKind, build, parse_kind

from reference import cleared, gram, int_inverse

# The 39 kinds of standard_suite at its default max_rank.
SUITE_KINDS = ([RootKind(fam, l) for fam, lo in (("a", 1), ("b", 2), ("c", 3),
                                                ("d", 4), ("bc", 1))
                for l in range(lo, 9)]
               + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
                  RootKind("f", 4), RootKind("g", 2)])


def linear_scan_closure(simples, tol=1e-7, cap=600):
    """Reference: the closure with one tolerance test per found vector."""
    vs = [np.array(s) for s in simples]
    norms = [float(v @ v) for v in vs]
    found = []

    def seen(x) -> bool:
        return any(np.max(np.abs(x - y)) < tol for y in found)

    frontier = []
    for v in vs:
        if not seen(v):
            found.append(v)
            frontier.append(v)
    while frontier:
        nxt = []
        for r in frontier:
            for s, n in zip(vs, norms):
                img = r - (2.0 * float(r @ s) / n) * s
                if not seen(img):
                    found.append(img)
                    nxt.append(img)
            if len(found) > cap:
                raise RuntimeError("float closure runaway")
        frontier = nxt
    return found


def assert_same_vectors(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (g, w)


def test_simplex_max_a1():
    [rep] = simplex_max_oracle([build_polytope(build("a1"))], 2000, seed=1)
    assert rep.passed
    assert rep.numeric <= 1 + 1e-9


def test_simplex_max_c4_vertex():
    [rep] = simplex_max_oracle([build_polytope(build("c4"))], 5000, seed=3)
    assert rep.passed
    assert rep.error <= 1e-10          # best vertex vs exact 4


def test_simplex_max_e6():
    [rep] = simplex_max_oracle([build_polytope(build("e6"))], 5000, seed=5)
    assert rep.passed
    assert rep.exact == "8/3"


def test_simplex_sample_floor():
    with pytest.raises(ValueError):
        simplex_max_oracle([build_polytope(build("a2"))], 10, seed=0)


def test_simplex_max_one_draw_for_one_rank():
    """Checking the kinds of one rank against one draw gives each kind the
    report of its own call."""
    polytopes = [build_polytope(build(k)) for k in ("a4", "b4", "c4", "d4", "bc4", "f4")]
    samples = 3 * _BLOCK_ROWS + 5
    alone = [rep for p in polytopes for rep in simplex_max_oracle([p], samples, 8)]
    assert simplex_max_oracle(polytopes, samples, 8) == alone
    with pytest.raises(ValueError, match="one rank"):
        simplex_max_oracle([build_polytope(build("a3")), polytopes[0]], 1000, 8)


def test_simplex_max_memory_flat_in_samples():
    # Each block of rows is drawn, checked and dropped before the next, so
    # the peak is a few blocks, about 1.5 MB at rank 8 whatever the sample
    # count (38 MB for a whole 200,000-sample draw and its two products).
    polytopes = [build_polytope(build(k)) for k in ("a8", "e8")]
    simplex_max_oracle(polytopes, 1000, 3)       # numpy.random's first import
    tracemalloc.start()
    try:
        simplex_max_oracle(polytopes, 200_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def fresh_draw_simplex(p, samples, seed):
    """Reference: the simplex oracle drawing from a fresh RNG for each kind."""
    rng = np.random.default_rng(seed & (2 ** 64 - 1))
    l = p.system.rank
    verts = np.array([[float(c) for c in v] for v in p.vertices])
    g = gram(p.system)
    gram_f = np.array([[float(g[i][j]) for j in range(l)] for i in range(l)])
    w = rng.exponential(1.0, size=(samples, l + 1))
    w /= w.sum(axis=1, keepdims=True)
    pts = w[:, 1:] @ verts
    sampled_max = float(((pts @ gram_f) * pts).sum(axis=1).max())
    vertex_max = float(((verts @ gram_f) * verts).sum(axis=1).max())
    exact = float(p.d_sq)
    return OracleReport(
        name=f"simplex-max {p.system.kind}",
        exact=format_rational(p.d_sq),
        numeric=sampled_max,
        error=abs(vertex_max - exact),
        passed=sampled_max <= exact + 1e-9 and abs(vertex_max - exact) <= 1e-10,
        note=f"samples={samples} seed={seed} rng={RNG_ALGORITHM}",
    )


# 10,007 and 54,321 samples span several row blocks and end in a partial one.
@pytest.mark.parametrize("seed,samples", [(11, 1000), (-4, 1000), (11, 3000),
                                          (-4, 3000), (11, 10_007), (-4, 54_321)])
def test_suite_simplex_rows_match_fresh_draws(seed, samples):
    rows = [r for r in standard_suite(seed, samples=samples)
            if r.name.startswith("simplex-max")]
    want = [fresh_draw_simplex(build_polytope(build(k)), samples, seed)
            for k in sorted(SUITE_KINDS, key=str)]
    assert [r.name for r in rows] == [r.name for r in want]
    assert rows == want
    assert [r.tsv_row() for r in rows] == [r.tsv_row() for r in want]


@pytest.mark.parametrize("samples", [1000, 2 * _BLOCK_ROWS, 3 * _BLOCK_ROWS + 5])
def test_dirichlet_weights_match_one_draw(samples):
    """The block-wise draw gives the weights of e_1..e_l of one whole draw,
    bit for bit, in contiguous blocks of at most _BLOCK_ROWS rows."""
    rng = np.random.default_rng(7)
    e = rng.exponential(1.0, size=(samples, 5))
    e /= e.sum(axis=1, keepdims=True)
    blocks = list(_weight_blocks(7, samples, 4))
    assert all(len(w) <= _BLOCK_ROWS and w.flags.c_contiguous for w in blocks)
    assert np.concatenate(blocks).tobytes() == e[:, 1:].tobytes()


@pytest.mark.parametrize("width", range(1, 129))
def test_row_sums_match_numpy(width):
    """numpy's pairwise row sums, bit for bit, on rows of mixed magnitudes
    and signs, signed zeros included, over a row count that is not a
    multiple of the block."""
    rng = np.random.default_rng(width)
    rows = _BLOCK_ROWS + 1001
    a = rng.standard_normal((rows, width)) * np.exp(rng.uniform(-30, 30, (rows, width)))
    a[:3] = -0.0
    a[3:6, ::2] = -0.0
    assert _row_sums(a).tobytes() == a.sum(axis=1).tobytes()


def test_row_sums_refuse_recursive_widths():
    with pytest.raises(ValueError, match="128"):
        _row_sums(np.ones((2, 129)))


def _bareiss(rows):
    """(delta, y) from the reference Bareiss inverse of integer rows."""
    y, delta = int_inverse(rows)
    return delta, y


def test_inverse_oracle_cases():
    ident = [[int(i == j) for j in range(5)] for i in range(5)]
    assert inverse_oracle(ident, 1, (1, ident), "identity5").error == 0
    assert inverse_oracle(ident, 1, _bareiss(ident), "identity5").error == 0
    m, g = build("e8").int_gram
    rep = inverse_oracle(m, g, tree_adjugate(RootKind("e", 8)), "e8")
    assert rep.passed
    assert inverse_oracle(m, g, _bareiss(m), "e8") == rep
    hilbert = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    rows, den = cleared(hilbert)
    assert den == 60
    classical = (60, [[9, -36, 30], [-36, 192, -180], [30, -180, 180]])
    rep = inverse_oracle(rows, den, classical, "hilbert3")
    assert rep.passed
    assert inverse_oracle(rows, den, _bareiss(rows), "hilbert3") == rep


def test_inverse_oracle_fails_a_wrong_adjugate():
    m, g = build("d5").int_gram
    det, adj = tree_adjugate(RootKind("d", 5))
    adj[4][2] += 1
    assert not inverse_oracle(m, g, (det, adj), "d5").passed


def test_inverse_oracle_ill_conditioned_skip():
    hilbert12 = [[F(1, i + j + 1) for j in range(12)] for i in range(12)]
    rows, den = cleared(hilbert12)
    rep = inverse_oracle(rows, den, _bareiss(rows), "hilbert12")
    assert rep.passed and "skipped" in rep.note


@pytest.mark.parametrize("kind,count", [("b2", 8), ("d4", 24), ("bc2", 12)])
def test_closure_counts(kind, count):
    rep = closure_count_oracle(parse_kind(kind))
    assert rep.passed
    assert rep.numeric == count


def test_closure_counts_exceptionals():
    for name, count in (("e6", 72), ("e7", 126), ("e8", 240),
                        ("f4", 48), ("g2", 12)):
        rep = closure_count_oracle(parse_kind(name))
        assert rep.passed, rep
        assert rep.numeric == count


def test_suite_deterministic():
    a = standard_suite(seed=9, samples=1000, max_rank=3)
    b = standard_suite(seed=9, samples=1000, max_rank=3)
    assert [r.tsv_row() for r in a] == [r.tsv_row() for r in b]
    c = standard_suite(seed=10, samples=1000, max_rank=3)
    assert [r.tsv_row() for r in a] != [r.tsv_row() for r in c]


def test_suite_all_pass_small():
    for rep in standard_suite(seed=123, samples=2000, max_rank=4):
        assert rep.passed, rep.tsv_row()


def test_kinds_are_the_suite_kinds():
    assert kinds(("a", "b", "c", "d", "bc"), 8) == SUITE_KINDS


def test_suite_kinds_are_the_suite():
    names = {r.name.split(" ", 1)[1] for r in standard_suite(seed=0, samples=1000)
             if r.name.startswith("closure-count")}
    assert names == {str(k) for k in SUITE_KINDS} and len(SUITE_KINDS) == 39


def test_float_closure_matches_linear_scan():
    total = 0
    for kind in SUITE_KINDS:
        simples = float_simple_roots(kind)
        got = _float_closure(simples)
        assert_same_vectors(got, linear_scan_closure(simples))
        total += len(got)
    assert total == 2270


@pytest.mark.parametrize("offset,merged", [(0.9e-7, True), (1.1e-7, False),
                                           (-0.9e-7, True), (-1.1e-7, False)])
def test_float_closure_tolerance_edge(offset, merged):
    # The second simple vector is a near-duplicate of the first (the same
    # reflection); the closure is {+-v1} when it is merged, else {+-v1, +-v2}.
    simples = [(1.0, 0.0), (1.0 + offset, 0.0)]
    got = _float_closure(simples)
    assert_same_vectors(got, linear_scan_closure(simples))
    assert len(got) == (2 if merged else 4)


def test_float_closure_runaway():
    e8 = float_simple_roots(RootKind("e", 8))
    assert len(_float_closure(e8, cap=240)) == 240
    dihedral = [(1.0, 0.0), (math.cos(1.0), math.sin(1.0))]    # infinite group
    for simples, cap in ((e8, 239), (e8, 0), (dihedral, 600)):
        with pytest.raises(RuntimeError, match="float closure runaway"):
            _float_closure(simples, cap=cap)
