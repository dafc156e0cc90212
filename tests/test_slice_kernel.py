"""The integer slice kernel against the Fraction formulas it replaced.

The reference functions below are the rational-arithmetic versions of
``dominant_representative``, ``reflect_simple``, ``classify_point`` and the
conjugacy test: Gram products in ``fractions.Fraction``, recomputed after
every reflection.  The kernel must agree with them exactly, on every kind
whose roots can be enumerated.
"""

import random
from fractions import Fraction as F

import pytest

from symspace.catalog import resolve
from symspace.geometry import cut_classify, is_conjugate
from symspace.linalg import dot
from symspace.polytope import (SliceClass, build_polytope, classify_point,
                               dominant_representative, reflect_simple)
from symspace.roots import MAX_ROOTS, RootKind, build, root_count

IN_CAP_KINDS = (
    [RootKind("a", l) for l in range(1, 22)]
    + [RootKind("b", l) for l in range(2, 16)]
    + [RootKind("c", l) for l in range(3, 16)]
    + [RootKind("d", l) for l in range(4, 17)]
    + [RootKind("bc", l) for l in range(1, 16)]
    + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
       RootKind("f", 4), RootKind("g", 2)]
)


# -- Fraction reference ------------------------------------------------------

def ref_dominant(rs, x):
    cur = list(F(c) for c in x)
    gram = rs.gram
    count = 0
    while True:
        w = gram.mul_vec(tuple(cur))
        for i, wi in enumerate(w):
            if wi < 0:
                cur[i] -= 2 * wi / gram[i, i]
                count += 1
                break
        else:
            return tuple(cur), count


def ref_reflect(rs, x, i):
    cur = list(F(c) for c in x)
    w = rs.gram.mul_vec(tuple(cur))[i]
    cur[i] -= 2 * w / rs.gram[i, i]
    return tuple(cur)


def ref_classify(p, x):
    rs = p.system
    x = tuple(F(c) for c in x)
    w = rs.gram.mul_vec(x)
    if any(wi < 0 for wi in w):
        return SliceClass.NOT_DOMINANT
    level = sum((F(di) * wi for di, wi in zip(rs.highest_root, w)), F(0))
    if level > 1:
        return SliceClass.OUTSIDE
    if level == 1:
        return SliceClass.ON_CUT_FACE
    return SliceClass.INTERIOR


def ref_conjugate(label, h):
    entry = resolve(label)
    rs = build(entry.restricted)
    w = rs.gram.scaled(entry.psi_sq_killing).mul_vec(tuple(F(c) for c in h))
    for r in sorted(rs.roots):
        v = dot(tuple(F(c) for c in r), w)
        if v != 0 and v.denominator == 1:
            return True
    return False


# -- points ------------------------------------------------------------------

def _label(kind):
    if kind.family == "bc":
        return f"AIII:p={kind.rank},q={kind.rank + 1}"
    return f"GROUP:{kind}"


def _word(rng, rank, length):
    return [rng.randrange(rank) for _ in range(length)]


def _gram_points(rs, poly, rng):
    """A random point, and cut-face and conjugate points in Gram units
    with a copy of each moved by a random Weyl word."""
    l, psi = rs.rank, rs.highest_root
    picks = rng.sample(range(l), min(l, 3))
    weights = [F(rng.randint(1, 5)) for _ in picks]
    face = tuple(sum(w * poly.vertices[j][k] for w, j in zip(weights, picks))
                 / sum(weights) for k in range(l))
    j = rng.randrange(l)
    conj = tuple(rng.randint(1, 3) * psi[j] * c for c in poly.vertices[j])
    out = [tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) / sum(psi) for _ in range(l))]
    for x in (face, conj, tuple(c / 2 for c in conj)):
        out.append(x)
        for i in _word(rng, l, 2 * l):
            x = ref_reflect(rs, x, i)
        out.append(x)
    return out


def _cases(kind):
    rs = build(kind)
    poly = build_polytope(rs)
    rng = random.Random(f"slice-kernel {kind}")
    return rs, poly, rng, _gram_points(rs, poly, rng)


# -- differential tests ------------------------------------------------------

@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_kernel_matches_fraction_reference(kind):
    rs, poly, rng, points = _cases(kind)
    label = _label(kind)
    psi_sq = resolve(label).psi_sq_killing
    assert resolve(label).restricted == kind
    for x in points:
        dom = dominant_representative(rs, x)
        assert dom == ref_dominant(rs, x)
        assert classify_point(poly, x) is ref_classify(poly, x)
        assert classify_point(poly, dom[0]) is ref_classify(poly, dom[0])
        i = rng.randrange(rs.rank)
        assert reflect_simple(rs, x, i) == ref_reflect(rs, x, i)
        h = tuple(c / psi_sq for c in x)
        assert is_conjugate(label, h) == ref_conjugate(label, h)


def test_constructed_points_reach_every_class():
    # The point sets above are not all of one kind: across the small
    # systems they hit every class and both conjugacy answers.
    classes, conj = set(), set()
    for kind in IN_CAP_KINDS[:8] + IN_CAP_KINDS[-5:]:
        rs, poly, _rng, points = _cases(kind)
        label = _label(kind)
        psi_sq = resolve(label).psi_sq_killing
        for x in points:
            classes.add(classify_point(poly, x))
            classes.add(classify_point(poly, dominant_representative(rs, x)[0]))
            conj.add(is_conjugate(label, tuple(c / psi_sq for c in x)))
    assert classes == set(SliceClass)
    assert conj == {True, False}


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_reflection_count_is_inversion_count(kind):
    # Each reflection at a violated simple wall negates exactly one
    # indivisible positive root pairing negatively with the point, so the
    # count equals the number of such roots, hence at most their number.
    # The pairings (r, x) are dot_gram's formula, one Gram product per point.
    rs, _poly, _rng, points = _cases(kind)
    positive = [r for r in rs.indivisible_roots if sum(r) > 0]
    assert len(positive) <= root_count(kind) // 2 <= MAX_ROOTS
    for x in points:
        w = rs.gram.mul_vec(x)
        negative = sum(1 for r in positive if dot(r, w) < 0)
        assert dominant_representative(rs, x)[1] == negative <= len(positive)


@pytest.mark.parametrize("label", ["BDI:p=40,q=40", "GROUP:a40", "DIII:n=80"])
def test_cut_classify_weyl_invariant_past_root_cap(label):
    entry = resolve(label)
    rs = build(entry.restricted)
    assert root_count(rs.kind) > MAX_ROOTS
    rng = random.Random(label)
    psi_sq, l = entry.psi_sq_killing, rs.rank
    # The mean of the vertices lies on the cut face and on no wall, so
    # no nontrivial Weyl element fixes it.
    verts = build_polytope(rs).vertices
    face = tuple(sum(v[k] for v in verts) / (l * psi_sq) for k in range(l))
    assert cut_classify(label, face) is SliceClass.ON_CUT_FACE
    random_point = tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) / (psi_sq * l)
                         for _ in range(l))
    for h in (face, random_point, tuple(c / 2 for c in face)):
        moved = h
        for i in _word(rng, l, 3 * l):
            moved = reflect_simple(rs, moved, i)
        assert moved != h
        assert cut_classify(label, moved) is cut_classify(label, h)
