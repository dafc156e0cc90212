import fractions
import sys
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from symspace.dynkin import gram_tree
from symspace.linalg import DimensionMismatch
from symspace.polytope import build_polytope
from symspace.roots import (MAX_RANK, InvalidRank, RootKind, RootSystem, build,
                            cartan_matrix, highest_root_coeffs, parse_kind,
                            root_count, to_json_dict)

from reference import (IN_CAP_KINDS, cleared, gram, indivisible_roots, inner, realized_cartan,
                       realized_gram, reflection_closure, root_norm_sq)

ALL_KINDS = (
    [RootKind("a", l) for l in range(1, 13)]
    + [RootKind("b", l) for l in range(2, 13)]
    + [RootKind("c", l) for l in range(3, 13)]
    + [RootKind("d", l) for l in range(4, 13)]
    + [RootKind("bc", l) for l in range(1, 13)]
    + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
       RootKind("f", 4), RootKind("g", 2)]
)


def test_parse_kind():
    assert parse_kind("a3") == RootKind("a", 3)
    assert parse_kind("BC2") == RootKind("bc", 2)
    assert parse_kind(" E8 ") == RootKind("e", 8)
    assert repr(RootKind("A", 3)) == "RootKind(family='a', rank=3)"
    for bad in ("a0", "b1", "c2", "d3", "e5", "f3", "g4", "h2", "a", "3"):
        with pytest.raises(InvalidRank):
            parse_kind(bad)
    with pytest.raises(InvalidRank, match="^cannot parse root-system kind 'a²'$"):
        parse_kind("a²")
    # int() reads at most L digits; past that the rank is refused as such.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InvalidRank, match=f"^the rank of a root-system kind has more "
                                          f"than {limit} digits$"):
        parse_kind("a" + "1" * (limit + 700))
    assert parse_kind("a" + "0" * (limit - 1) + "7") == RootKind("a", 7)


def test_a1_smallest():
    rs = build("a1")
    assert rs.roots == frozenset({(1,), (-1,)})
    assert rs.highest_root == (1,)
    assert gram(rs) == ((F(1),),)


def test_g2_data():
    rs = build("g2")
    assert len(rs.roots) == 12
    assert rs.highest_root == (2, 3)
    assert to_json_dict(rs)["gram"] == [["1", "-1/2"], ["-1/2", "1/3"]]
    # (a1, a2) is -1/2 once (psi, psi) = 1
    assert inner(rs, (1, 0), (0, 1)) == F(-1, 2)
    assert inner(rs, (0, 0), (1, 1)) == 0
    assert inner(rs, rs.highest_root, rs.highest_root) == 1


def test_bc1():
    rs = build("bc1")
    assert rs.roots == frozenset({(1,), (-1,), (2,), (-2,)})
    assert indivisible_roots(rs) == frozenset({(1,), (-1,)})
    assert rs.highest_root == (2,)


def test_generate_roots_examples():
    assert len(reflection_closure(((2, -1), (-1, 2)))) == 6        # a2
    assert reflection_closure(((2,),)) == frozenset({(1,), (-1,)})  # a1
    assert len(reflection_closure(cartan_matrix(RootKind("f", 4)))) == 48


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_height_enumeration_matches_reflection_closure(kind):
    rs = build(kind)
    assert indivisible_roots(rs) == reflection_closure(rs.cartan)


@pytest.mark.parametrize("name, a", [("e8", -3), ("a3", -2), ("bc3", -2), ("g2", -4)])
def test_enumeration_stops_on_corrupt_cartan(name, a):
    # Cartan entries [0][1] = [1][0] = a.  Past root_count/2 positive roots
    # the enumeration stops inside its loop; on these matrices the closure
    # under simple reflections has no end.  bc's doubled roots come after
    # the closure, so bc3 stops inside it too.
    good = build(name)
    cartan = [list(row) for row in good.cartan]
    cartan[0][1] = cartan[1][0] = a
    rs = RootSystem(kind=good.kind, rank=good.rank, cartan=tuple(map(tuple, cartan)),
                    int_gram=good.int_gram, highest_root=good.highest_root)
    limit = root_count(rs.kind) // 2
    with pytest.raises(RuntimeError, match=f"more than {limit} positive roots"):
        rs.roots


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_counts_and_normalization(kind):
    rs = build(kind)
    assert len(rs.roots) == root_count(kind)
    psi = rs.highest_root
    assert inner(rs, psi, psi) == 1
    assert max(rs.roots, key=lambda r: (sum(r), r)) == psi
    # highest root weakly dominates every root coefficientwise
    assert all(all(p >= c for p, c in zip(psi, r)) for r in rs.roots)
    # closed under negation
    assert all(tuple(-c for c in r) in rs.roots for r in rs.roots)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_closure_under_simple_reflections(kind):
    rs = build(kind)
    cartan = rs.cartan
    l = rs.rank
    for r in rs.roots:
        for j in range(l):
            c = sum(r[i] * cartan[i][j] for i in range(l))
            img = list(r)
            img[j] -= c
            assert tuple(img) in rs.roots


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_cartan_recovered_from_gram(kind):
    rs = build(kind)
    l, g = rs.rank, gram(rs)
    for i in range(l):
        for j in range(l):
            cij = 2 * g[i][j] / g[j][j]
            assert cij == rs.cartan[i][j]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_proportional_roots(kind):
    rs = build(kind)
    if not kind.is_reduced:
        indivisible = indivisible_roots(rs)
        short_sq = min(root_norm_sq(rs, s) for s in indivisible)
    for r in rs.roots:
        doubles = tuple(2 * c for c in r)
        halves = tuple(F(c, 2) for c in r)
        if kind.is_reduced:
            assert doubles not in rs.roots
        else:
            # exactly the short indivisible roots double
            is_short = r in indivisible and root_norm_sq(rs, r) == short_sq
            assert (doubles in rs.roots) == is_short
            assert (r in indivisible) == (halves not in rs.roots)


def test_int_gram_matches_gram():
    for kind in ALL_KINDS:
        rs = build(kind)
        m, g = rs.int_gram
        assert g > 0 and all(type(x) is int for row in m for x in row)
        assert gcd(g, *(x for row in m for x in row)) == 1    # lowest terms
        assert rs.int_gram is rs.int_gram
        rows, weights, two_g = rs.kernel_data
        assert rows == tuple(tuple((k, a) for k, a in enumerate(row) if a)
                             for row in rs.cartan)
        assert weights == tuple(psi * m[k][k] for k, psi in enumerate(rs.highest_root))
        assert two_g == 2 * g


def fraction_lengths(kind):
    """Reference: squared simple-root lengths up to scale, as Fractions."""
    fam, l = kind.family, kind.rank
    one, two = F(1), F(2)
    if fam in ("a", "d", "e") or (fam == "bc" and l == 1):
        return (two,) * l
    if fam in ("b", "bc"):
        return (two,) * (l - 1) + (one,)
    if fam == "c":
        return (one,) * (l - 1) + (two,)
    return {"f": (two, two, one, one), "g": (F(3), one)}[fam]


def fraction_gram(kind):
    """Reference: the nonzero Gram entries by rational arithmetic.

    Omega_ij = A[j][i] (a_i, a_i) / 2, rescaled by 1 / (psi, psi), with
    the Cartan matrix A of the Euclidean realization.  A zero Cartan entry
    adds nothing to (psi, psi) and stays zero, so only the nonzero entries
    are computed.
    """
    l, cartan = kind.rank, realized_cartan(kind)
    lengths = fraction_lengths(kind)
    raw = {(i, j): cartan[j][i] * lengths[i] / 2
           for i in range(l) for j in range(l) if cartan[j][i]}
    psi = highest_root_coeffs(kind)
    norm = sum(psi[i] * x * psi[j] for (i, j), x in raw.items())
    return {ij: x * (F(1, 1) / norm) for ij, x in raw.items()}


GRAM_KINDS = {fam: [RootKind(fam, l) for l in range(lo, MAX_RANK + 1)]
              for fam, lo in (("a", 1), ("b", 2), ("c", 3), ("d", 4), ("bc", 1))}
GRAM_KINDS["efg"] = [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
                     RootKind("f", 4), RootKind("g", 2)]


@pytest.mark.parametrize("family", sorted(GRAM_KINDS))
def test_gram_matches_fraction_construction(family):
    for kind in GRAM_KINDS[family]:
        rs = build(kind)
        g = gram(rs)
        assert len(g) == kind.rank and all(len(row) == kind.rank for row in g)
        assert all(type(x) is F for row in g for x in row)
        nonzero = {(i, j): x for i, row in enumerate(g)
                   for j, x in enumerate(row) if x}
        assert nonzero == fraction_gram(kind), kind
        m, d = cleared(g)             # (M, g) is in lowest terms
        assert rs.int_gram == (tuple(map(tuple, m)), d), kind


@pytest.mark.parametrize("family", sorted(GRAM_KINDS))
def test_diagram_matches_euclidean_realization(family):
    # The Cartan matrix and the Gram pair, both derived from roots' Dynkin
    # diagram, against the simple roots realized in R^n (Bourbaki, Lie Groups
    # and Lie Algebras, Ch. VI, Plates I-IX): M/g = G/(psi, psi) for the
    # realized Gram matrix G.
    for kind in GRAM_KINDS[family]:
        rs = build(kind)
        assert rs.cartan == cartan_matrix(kind) == realized_cartan(kind), kind
        g4 = realized_gram(kind)
        psi = np.array(rs.highest_root)
        m, g = rs.int_gram
        assert (np.array(m) * (psi @ g4 @ psi) == g * g4).all(), kind


@pytest.mark.parametrize("family", sorted(GRAM_KINDS))
def test_gram_tree_matches_int_gram(family):
    # The tree holds every nonzero entry of M: the chain's diagonal and
    # couplings, and for d and e the leaf on its fork node.
    for kind in GRAM_KINDS[family]:
        a, b, leaf, psi, g = gram_tree(kind)
        l = kind.rank
        entries = {(k, k): x for k, x in enumerate(a)}
        entries.update({(k, k + 1): x for k, x in enumerate(b)})
        if leaf:
            c, f, w = leaf
            entries.update({(l - 1, l - 1): f, (c, l - 1): w})
        assert (kind.family in ("d", "e")) == (leaf is not None), kind
        entries.update({(j, i): x for (i, j), x in list(entries.items())})
        m, h = build(kind).int_gram
        assert {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)
                if x} == entries, kind
        assert (psi, g) == (highest_root_coeffs(kind), h), kind


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_json_counts_match_enumeration(kind):
    rs = build(kind)
    d = to_json_dict(rs)
    assert d["root_count"] == len(rs.roots)
    assert d["indivisible_count"] == len(indivisible_roots(rs))


def test_build_makes_no_fractions(monkeypatch):
    # The Gram matrix is stored as integers (M, g); Fractions appear only
    # where it is printed.
    made = [0]
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    assert F(1, 2) == F(1, 2) and made[0] == 2   # the counter sees construction
    made[0] = 0
    for kinds in GRAM_KINDS.values():
        for kind in kinds[::9] + kinds[-1:]:
            m, g = build(kind).int_gram
            assert g > 0 and len(m) == kind.rank
    assert made[0] == 0


def test_roots_enumerated_on_first_access():
    rs = build("e8")
    build_polytope(rs)
    assert "roots" not in vars(rs)
    assert "positive_roots" not in vars(rs)
    assert len(rs.roots) == 240
    assert rs.roots is rs.roots
    assert rs.int_gram is rs.int_gram and rs.kernel_data is rs.kernel_data


@pytest.mark.parametrize("name", ["a21", "b15", "c15", "d16", "bc15",
                                  "a22", "b16", "c16", "d17", "bc16", "a128"])
def test_largest_enumerable_systems(name):
    # The largest systems within the former 500-root cap, the smallest past
    # it and a128: enumeration has no limit but the rank's.
    rs = build(name)
    assert len(rs.roots) == root_count(rs.kind)
    doubled = 2 * rs.rank if rs.kind.family == "bc" else 0
    assert len(indivisible_roots(rs)) == root_count(rs.kind) - doubled


def test_build_refuses_rank_past_limit():
    assert build("a128").rank == 128
    for kind in ("a129", "bc200", RootKind("d", 10 ** 11)):
        with pytest.raises(InvalidRank):
            build(kind)


def test_highest_root_lists():
    assert build("b3").highest_root == (1, 2, 2)
    assert build("e8").highest_root == (2, 3, 4, 5, 6, 4, 2, 3)
    assert build("c5").highest_root == (2, 2, 2, 2, 1)
    assert build("d6").highest_root == (1, 2, 2, 2, 1, 1)
    assert build("e6").highest_root == (1, 2, 3, 2, 1, 2)
    assert build("e7").highest_root == (1, 2, 3, 4, 3, 2, 2)
    assert build("f4").highest_root == (2, 3, 4, 2)


def test_inner_dimension_error():
    rs = build("a2")
    with pytest.raises(DimensionMismatch):
        inner(rs, (1, 0, 0), (0, 1))


def test_json_dict():
    d = to_json_dict(build("g2"))
    assert d["kind"] == "g2"
    assert d["root_count"] == 12
    assert d["highest_root"] == [2, 3]
    assert d["gram"][0] == ["1", "-1/2"]
    assert d["psi_sq"] == "1"


def test_f4_relative_lengths():
    g = gram(build("f4"))
    # (psi,psi) = (a1,a1) = (a2,a2) = 2(a3,a3) = 2(a4,a4)
    assert g[0][0] == g[1][1] == 1
    assert g[2][2] == g[3][3] == F(1, 2)


def test_b_c_lengths():
    b4 = gram(build("b4"))
    assert {b4[i][i] for i in range(3)} == {F(1)}
    assert b4[3][3] == F(1, 2)
    c4 = gram(build("c4"))
    assert {c4[i][i] for i in range(3)} == {F(1, 2)}
    assert c4[3][3] == F(1)
