import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspace.closedform import d_sq_closed_form
from symspace.dynkin import (InvalidRank, farthest_vertex, fold_tree, gram_tree, parse_kind,
                             principal_minors)
from symspace.linalg import DimensionMismatch
from symspace.polytope import build_polytope, reflect_simple, to_json_dict, tree_adjugate
from symspace.roots import RootKind, SliceClass, build

from reference import dot_gram, gram, int_inverse, level_reference, mul_vec
from test_roots import ALL_KINDS, GRAM_KINDS
from test_slice_kernel import kernel


def _poly(kind):
    return build_polytope(build(kind))


def test_a1_vertex():
    p = _poly("a1")
    assert p.vertices == ((F(1),),)
    assert p.vertex_norms_sq == (F(1),)
    assert p.i_sq == p.d_sq == 1


def test_c4_vertex_norms():
    assert _poly("c4").vertex_norms_sq == (1, 2, 3, 4)


def test_b3_vertex_norms():
    assert _poly("b3").vertex_norms_sq == (2, 1, F(3, 2))


def test_dphi_closed_forms_examples():
    assert _poly("a3").d_sq == 2
    assert _poly("e6").d_sq == F(8, 3)
    assert _poly("a2").d_sq == F(4, 3)


# Every kind up to rank 40, then ranks 48-128 of the classical families.
TREE_KINDS = ([RootKind(fam, l) for fam, lo in (("a", 1), ("b", 2), ("c", 3),
                                                ("d", 4), ("bc", 1))
               for l in [*range(lo, 41), 48, 64, 96, 128]]
              + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
                 RootKind("f", 4), RootKind("g", 2)])


@pytest.mark.parametrize("kind", TREE_KINDS, ids=str)
def test_tree_norms_match_bareiss(kind):
    # adj/det from the tree equals y/delta from one reference Bareiss
    # inverse entrywise; the norms are its diagonal over d_j^2.
    rs = build(kind)
    m, g = rs.int_gram
    y, delta = int_inverse(m)
    det, adj = tree_adjugate(kind)
    assert all(u * det == v * delta for yr, ar in zip(y, adj) for u, v in zip(yr, ar))
    d = rs.highest_root
    norms = tuple(F(g * y[j][j], delta * d[j] * d[j]) for j in range(rs.rank))
    d_sq = max(norms)
    assert farthest_vertex(kind) == (d_sq, norms.index(d_sq))
    p = build_polytope(rs)
    assert p.vertex_norms_sq == norms
    assert (p.d_sq, p.argmax_vertex) == (d_sq, norms.index(d_sq))


@pytest.mark.parametrize("family", sorted(GRAM_KINDS))
def test_tree_adjugate_times_gram(family):
    # M adj M == det M * I on every kind up to rank 128, in integers, with
    # each row of M read as its few nonzero entries.
    for kind in GRAM_KINDS[family]:
        m, _ = build(kind).int_gram
        det, adj = tree_adjugate(kind)
        l = len(m)
        for i, row in enumerate(m):
            terms = [(x, adj[k]) for k, x in enumerate(row) if x]
            prod = [sum(x * r[j] for x, r in terms) for j in range(l)]
            assert prod == [det if j == i else 0 for j in range(l)], kind


def _random_tree(rng, l, fork):
    """A random tree (a, b, leaf) in the shape of ``dynkin.gram_tree``: a
    chain of l nodes, or a chain of l - 1 and a leaf l - 1 on chain node
    ``fork``, with couplings of either sign and a dominant diagonal, so
    that Bareiss needs no row swap and its (y, delta) is (adj M, det M)
    exactly; and its dense matrix M."""
    n = l if fork is None else l - 1
    a = [rng.randint(10, 30) for _ in range(n)]    # > 9, the largest off-diagonal row sum
    b = [rng.choice([-3, -2, -1, 1, 2]) for _ in range(n - 1)]
    leaf = None if fork is None else (fork, rng.randint(10, 30),
                                      rng.choice([-3, -2, -1, 1, 2]))
    m = [[0] * l for _ in range(l)]
    for k, x in enumerate(a):
        m[k][k] = x
    for k, x in enumerate(b):
        m[k][k + 1] = m[k + 1][k] = x
    if leaf:
        c, m[l - 1][l - 1], w = leaf
        m[c][l - 1] = m[l - 1][c] = w
    return (a, b, leaf), m


def _forks(l):
    """A chain, and a leaf on every chain node but the last (where it
    would extend the chain), the first included."""
    return [None, *range(l - 2)]


@pytest.mark.parametrize("l", range(2, 10))
def test_tree_minors_random_matrices(l):
    """det M and every det(M minus j) (the diagonal of the adjugate
    delta * M^{-1}) of random trees, on chains and on every fork position;
    the fold leaves the tree as it was."""
    rng = random.Random(l)
    for fork in _forks(l):
        for _ in range(5):
            tree, m = _random_tree(rng, l, fork)
            y, delta = int_inverse(m)
            assert principal_minors(*tree) == (delta, [y[j][j] for j in range(l)])
            a, b, leaf = tree
            before = (a[:], b[:], leaf)
            pre, _suf, bare = fold_tree(*tree)
            assert (a, b, leaf) == before and pre[-1] == delta
            assert bare == (delta if leaf is None else y[l - 1][l - 1])


@pytest.mark.parametrize("l", range(2, 10))
def test_tree_adjugate_random_symmetric(monkeypatch, l):
    """The whole adjugate of random trees fed through ``tree_adjugate`` in
    place of a kind's Gram tree, on chains and on every fork position."""
    import symspace.polytope as polytope
    rng = random.Random(100 + l)
    for fork in _forks(l):
        for _ in range(5):
            tree, m = _random_tree(rng, l, fork)
            monkeypatch.setattr(polytope, "gram_tree", lambda kind: (*tree, None, None))
            y, delta = int_inverse(m)
            assert tree_adjugate(RootKind("a", l)) == (delta, y)


@pytest.mark.parametrize("name", ["a129", "b129", "d129", "bc129"])
def test_tree_layout_refuses_rank_past_limit(name):
    # The one rank limit is checked where the Gram tree is laid out, so the
    # public tree functions refuse past it just as ``build`` does.
    kind = parse_kind(name)
    for read in (gram_tree, tree_adjugate):
        with pytest.raises(InvalidRank, match=f"^{name}: rank 129 exceeds the limit of 128$"):
            read(kind)


def test_build_polytope_makes_one_tree_solve(monkeypatch):
    # One adjugate, and the farthest vertex from dynkin's cross-multiplication.
    import symspace.polytope as polytope
    calls = []
    solve, farthest = polytope.tree_adjugate, polytope.farthest_vertex
    monkeypatch.setattr(polytope, "tree_adjugate", lambda k: calls.append(k) or solve(k))
    monkeypatch.setattr(polytope, "farthest_vertex",
                        lambda k: calls.append(("farthest", k)) or farthest(k))
    for kind in ("a1", "g2", "d4", "e8", "bc5"):
        calls.clear()
        p = build_polytope(build(kind))
        assert calls == [p.system.kind, ("farthest", p.system.kind)]
        assert (p.d_sq, p.argmax_vertex) == farthest(p.system.kind)


# Past the hand-picked kinds: every classical family at ranks 13, 24 and 40.
LARGE_KINDS = [RootKind(fam, l) for l in (13, 24, 40) for fam in ("a", "b", "c", "d", "bc")]


@pytest.mark.parametrize("kind", ALL_KINDS + LARGE_KINDS, ids=str)
def test_vertex_defining_property(kind):
    rs = build(kind)
    p = build_polytope(rs)
    d = rs.highest_root
    l = rs.rank
    for j, v in enumerate(p.vertices):
        w = mul_vec(gram(rs), v)
        for i in range(l):
            assert w[i] * d[j] == (1 if i == j else 0)
        assert p.vertex_norms_sq[j] == dot_gram(gram(rs), v, v)


@pytest.mark.parametrize("kind", ALL_KINDS + LARGE_KINDS, ids=str)
def test_dphi_matches_closed_form(kind):
    p = _poly(kind)
    assert p.d_sq == d_sq_closed_form(kind.family, kind.rank)
    assert p.d_sq >= p.i_sq
    # equality exactly for the rank-one systems
    assert (p.d_sq == p.i_sq) == (str(kind) in ("a1", "bc1"))


@pytest.mark.parametrize("kind", ALL_KINDS + [RootKind(fam, 40) for fam in
                                              ("a", "b", "c", "d", "bc")], ids=str)
def test_i_sq_matches_dot_gram(kind):
    rs = build(kind)
    d = rs.highest_root
    assert build_polytope(rs).i_sq == 1 / dot_gram(gram(rs), d, d) == 1


# The classify and dominant tests run the slice kernel of ``roots`` on
# points of the polytope, in Gram units, through ``kernel``.

def test_classify_origin_interior():
    assert kernel(build("b3"), (0, 0, 0))[2] is SliceClass.INTERIOR


@pytest.mark.parametrize("kind", ["a2", "b3", "g2", "bc2", "e6"], ids=str)
def test_classify_face_minimizer(kind):
    rs = build(kind)
    # psi/(psi,psi) = psi under unit normalization
    psi = tuple(F(c) for c in rs.highest_root)
    assert kernel(rs, psi)[2] is SliceClass.ON_CUT_FACE
    assert kernel(rs, tuple(2 * c for c in psi))[2] is SliceClass.OUTSIDE
    assert kernel(rs, tuple(c / 2 for c in psi))[2] is SliceClass.INTERIOR


def test_classify_not_dominant():
    # A point off the dominant chamber is reflected before it is classified.
    rs = build("a2")
    x = tuple(-c for c in build_polytope(rs).vertices[0])
    assert level_reference(rs, x) is None
    assert kernel(rs, x)[1] > 0
    with pytest.raises(DimensionMismatch):
        kernel(rs, (1, 2, 3))
    with pytest.raises(DimensionMismatch, match="^point length 1 != rank 2$"):
        reflect_simple(rs, (1,), 0)


def test_classify_vertices_on_face():
    for kind in ("a3", "c3", "f4"):
        rs = build(kind)
        for v in build_polytope(rs).vertices:
            assert kernel(rs, v)[2] is SliceClass.ON_CUT_FACE


def test_dominant_representative_fixed_point():
    rs = build("b3")
    x = (F(2), F(3), F(3))
    assert all(w >= 0 for w in mul_vec(gram(rs), x))
    y, n, _ = kernel(rs, x)
    assert n == 0 and y == x


def test_dominant_single_reflection_undone():
    rs = build("a2")
    p = build_polytope(rs)
    e1 = p.vertices[0]
    flipped = reflect_simple(rs, e1, 0)
    y, n, _ = kernel(rs, flipped)
    assert y == e1
    assert n >= 1


@pytest.mark.parametrize("kind", ["a2", "b3", "c3", "g2", "bc2", "d4"], ids=str)
def test_dominant_properties_random(kind):
    rs = build(kind)
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(60):
        x = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rs.rank))
        y, _, _ = kernel(rs, x)
        w = mul_vec(gram(rs), y)
        assert all(wi >= 0 for wi in w)
        assert dot_gram(gram(rs), y, y) == dot_gram(gram(rs), x, x)
        again, n2, _ = kernel(rs, y)
        assert again == y and n2 == 0


@given(st.sampled_from(["a2", "b3", "g2", "bc3"]),
       st.lists(st.fractions(min_value=-5, max_value=5), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_dominant_norm_preserved(kind, coeffs):
    rs = build(kind)
    x = tuple(coeffs[: rs.rank]) + (F(0),) * max(0, rs.rank - 4)
    y, _, _ = kernel(rs, x)
    assert dot_gram(gram(rs), y, y) == dot_gram(gram(rs), x, x)


@pytest.mark.parametrize("kind", ["a2", "b3", "g2", "bc2"], ids=str)
def test_convex_combinations_bounded(kind):
    rs = build(kind)
    p = build_polytope(rs)
    verts = ((F(0),) * rs.rank,) + p.vertices
    rng = random.Random(7)
    for _ in range(2000):
        weights = [F(rng.randint(0, 6)) for _ in verts]
        total = sum(weights) or F(1)
        x = tuple(sum(w * v[i] for w, v in zip(weights, verts)) / total
                  for i in range(rs.rank))
        assert dot_gram(gram(rs), x, x) <= p.d_sq


def test_json_dict():
    d = to_json_dict(_poly("g2"))
    assert d["d_sq"] == "4/3"
    assert d["i_sq"] == "1"
    assert d["argmax_vertex"] == 1
    assert d["vertex_norms_sq"] == ["1", "4/3"]
