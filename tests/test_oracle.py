import math
from fractions import Fraction as F

import numpy as np
import pytest

from symspace.linalg import format_rational
from symspace.oracle import (RNG_ALGORITHM, OracleReport, _dirichlet_weights,
                             _float_closure, closure_count_oracle,
                             float_simple_roots, inverse_oracle,
                             simplex_max_oracle, standard_suite)
from symspace.polytope import build_polytope
from symspace.roots import RootKind, build, parse_kind

from reference import cleared, gram, identity

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
    rep = simplex_max_oracle(build_polytope(build("a1")), 2000, seed=1)
    assert rep.passed
    assert rep.numeric <= 1 + 1e-9


def test_simplex_max_c4_vertex():
    rep = simplex_max_oracle(build_polytope(build("c4")), 5000, seed=3)
    assert rep.passed
    assert rep.error <= 1e-10          # best vertex vs exact 4


def test_simplex_max_e6():
    rep = simplex_max_oracle(build_polytope(build("e6")), 5000, seed=5)
    assert rep.passed
    assert rep.exact == "8/3"


def test_simplex_sample_floor():
    with pytest.raises(ValueError):
        simplex_max_oracle(build_polytope(build("a2")), 10, seed=0)


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


@pytest.mark.parametrize("seed,samples", [(11, 1000), (-4, 1000), (11, 3000),
                                          (-4, 3000)])
def test_suite_simplex_rows_match_fresh_draws(seed, samples):
    rows = [r for r in standard_suite(seed, samples=samples)
            if r.name.startswith("simplex-max")]
    want = [fresh_draw_simplex(build_polytope(build(k)), samples, seed)
            for k in sorted(SUITE_KINDS, key=str)]
    assert [r.name for r in rows] == [r.name for r in want]
    assert rows == want
    assert [r.tsv_row() for r in rows] == [r.tsv_row() for r in want]


def test_dirichlet_weights_read_only():
    w = _dirichlet_weights(5, 1000, 3)
    assert w.shape == (1000, 4) and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 0.0
    assert _dirichlet_weights(5, 1000, 3) is w


def test_inverse_oracle_cases():
    assert inverse_oracle(*cleared(identity(5)), "identity5").error == 0
    assert inverse_oracle(*build("e8").int_gram, "e8").passed
    hilbert = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert inverse_oracle(*cleared(hilbert), "hilbert3").passed


def test_inverse_oracle_ill_conditioned_skip():
    hilbert12 = [[F(1, i + j + 1) for j in range(12)] for i in range(12)]
    rep = inverse_oracle(*cleared(hilbert12), "hilbert12")
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
