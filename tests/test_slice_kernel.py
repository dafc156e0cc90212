"""The integer slice kernel against the Fraction formulas it replaced.

The one pass of the kernel of ``roots`` (``dominant_slice``: clear, pair,
reduce to the dominant chamber, read the level) is called here through
one helper, ``kernel``, on points in Gram units; the tests of
``test_polytope`` call it through the same helper.  Its references are
rational-arithmetic versions, ``reference.dominant_reference`` and
``reference.level_reference``, and ``ref_reflect`` below is one for
``polytope.reflect_simple``: Gram products in ``fractions.Fraction``
(``dominant_reference`` keeps its pairings current through each
reflected Gram row).  The kernel must agree with them exactly, on every
kind within the former 500-root cap.

The geometry predicates clear a point's denominators once and stay in
integers; the Fraction pipeline they replaced (convert every coordinate,
reduce, multiply by psi_sq_killing, classify) is kept below as the
reference for ``cut_classify``, ``is_conjugate`` and ``cut_details``.  It
calls no kernel function.  Conjugacy is read off the dominant level when
it can be: below the cut face no point is conjugate and at an integer
level every point is, and the tests of the three regimes check that
``roots.conjugate`` runs only past the face at a non-integer level.
There it reads one pairing vector (``reference.pairings``): by residue
classes of epsilon-coordinates for the classical families, and root by
root over the height-ordered positive roots for the exceptional ones.
The integer dot-product route it replaced,
``reference.dot_product_conjugate``, checks it on every kind within the
former root cap, and ``reference.epsilon_conjugate`` checks it from
epsilon-coordinates with no root listed, at ranks 40 and 128 too.
"""

import fractions
import random
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate
from types import SimpleNamespace

import pytest

from symspace import geometry, roots
from symspace.catalog import InvalidParams, SpaceLabel, parse_label, resolve
from symspace.geometry import CutDetails, cut_classify, cut_details, is_conjugate
from symspace.linalg import DimensionMismatch, clear_denominators
from symspace.polytope import build_polytope, reflect_simple
from symspace.roots import (InvalidRank, RootKind, SliceClass, build, conjugate, dominant_slice,
                            root_count)

from reference import (FORMER_ROOT_CAP, IN_CAP_KINDS, dominant_reference, dot,
                       dot_product_conjugate, epsilon_conjugate, epsilon_simple_roots, gram,
                       indivisible_roots, level_reference, mul_vec, pairings, positive_pairings,
                       scaled, signed_sort, to_epsilon)


def kernel(rs, x):
    """The slice kernel on a point x in Gram units, run as ``cut_details``
    runs it at scale 1: (the dominant representative, the reflection count
    that reached it, the representative's class)."""
    n, den, count, cls, _ = dominant_slice(rs, x, 1, 1)
    return tuple(F(v, den) for v in n), count, cls


# -- Fraction reference ------------------------------------------------------

def ref_reflect(rs, x, i):
    cur = list(F(c) for c in x)
    row = gram(rs)[i]
    cur[i] -= 2 * dot(row, cur) / row[i]
    return tuple(cur)


# -- the Fraction slice pipeline -----------------------------------------------

def fraction_slice_point(label, h):
    entry = resolve(label)
    rs = build(entry.restricted)
    h = tuple(F(c) for c in h)
    if len(h) != rs.rank:
        raise DimensionMismatch(f"point length {len(h)} != rank {rs.rank}")
    return entry, rs, h


def fraction_conjugate(entry, rs, h):
    w = mul_vec(scaled(gram(rs), entry.psi_sq_killing), h)
    for r in sorted(rs.roots):
        v = dot(tuple(F(c) for c in r), w)
        if v != 0 and v.denominator == 1:
            return True
    return False


def fraction_classify(entry, rs, h):
    dom, nrefl = dominant_reference(rs, h)
    return level_reference(rs, tuple(entry.psi_sq_killing * c for c in dom)), dom, nrefl


def fraction_cut_details(label, h):
    entry, rs, h = fraction_slice_point(label, h)
    conjugate = fraction_conjugate(entry, rs, h)
    cls, dom, nrefl = fraction_classify(entry, rs, h)
    return CutDetails(classification=cls, dominant_representative=dom,
                      reflections=nrefl, conjugate=conjugate)


def ref_conjugate(label, h):
    return fraction_conjugate(*fraction_slice_point(label, h))


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
    verts = poly.vertices                # formed on each read
    picks = rng.sample(range(l), min(l, 3))
    weights = [F(rng.randint(1, 5)) for _ in picks]
    face = tuple(sum(w * verts[j][k] for w, j in zip(weights, picks))
                 / sum(weights) for k in range(l))
    j = rng.randrange(l)
    conj = tuple(rng.randint(1, 3) * psi[j] * c for c in verts[j])
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
    rs, _poly, rng, points = _cases(kind)
    label = _label(kind)
    psi_sq = resolve(label).psi_sq_killing
    assert resolve(label).restricted == kind
    for x in points:
        dom, count, cls = kernel(rs, x)
        assert (dom, count) == dominant_reference(rs, x)
        assert cls is level_reference(rs, dom)
        assert (count > 0) == (level_reference(rs, x) is None)
        assert kernel(rs, dom) == (dom, 0, cls)
        i = rng.randrange(rs.rank)
        assert reflect_simple(rs, x, i) == ref_reflect(rs, x, i)
        h = tuple(c / psi_sq for c in x)
        assert is_conjugate(label, h) == ref_conjugate(label, h)


def test_constructed_points_reach_every_class():
    # The point sets above are not all of one kind: across the small
    # systems they hit every class, dominant and non-dominant points, and
    # both conjugacy answers.
    classes, dominant, conj = set(), set(), set()
    for kind in IN_CAP_KINDS[:8] + IN_CAP_KINDS[-5:]:
        rs, _poly, _rng, points = _cases(kind)
        label = _label(kind)
        psi_sq = resolve(label).psi_sq_killing
        for x in points:
            _dom, count, cls = kernel(rs, x)
            classes.add(cls)
            dominant.add(count == 0)
            conj.add(is_conjugate(label, tuple(c / psi_sq for c in x)))
    assert classes == set(SliceClass)
    assert dominant == conj == {True, False}


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_reflection_count_is_inversion_count(kind):
    # Each reflection at a violated simple wall negates exactly one
    # indivisible positive root pairing negatively with the point, so the
    # count equals the number of such roots, hence at most their number.
    # The pairings (r, x) are dot_gram's formula, one Gram product per point.
    rs, _poly, _rng, points = _cases(kind)
    positive = [r for r in indivisible_roots(rs) if sum(r) > 0]
    assert len(positive) <= root_count(kind) // 2 <= FORMER_ROOT_CAP
    for x in points:
        w = mul_vec(gram(rs), x)
        negative = sum(1 for r in positive if dot(r, w) < 0)
        assert kernel(rs, x)[1] == negative <= len(positive)


@pytest.mark.parametrize("kind", [RootKind(fam, l) for l in (40, 128)
                                  for fam in ("a", "b", "c", "d", "bc")], ids=str)
def test_dominant_is_signed_sort_past_root_cap(kind):
    # Past the root cap, in epsilon-coordinates: the dominant representative
    # is the signed sort, and the reflection count is the inversion count
    # #{indivisible alpha > 0 : (alpha, x) < 0} (Humphreys 10.3).  Random
    # points lie on no wall; points with coordinates in {-1, 0, 1} have
    # repeated and zero epsilon-coordinates, so they lie on many.
    rs = build(kind)
    simple = epsilon_simple_roots(kind)
    rng = random.Random(f"signed sort {kind}")
    l = rs.rank
    for on_wall in (False, True) * 4:
        if on_wall:
            x = tuple(F(rng.randint(-1, 1)) for _ in range(l))
        else:
            x = tuple(F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 999)) for _ in range(l))
        v = to_epsilon(simple, x)
        pairings = positive_pairings(kind.family, v)
        assert on_wall == (0 in pairings)
        y, count, _ = kernel(rs, x)
        assert to_epsilon(simple, y) == signed_sort(kind.family, v)
        assert count == sum(p < 0 for p in pairings)


@pytest.mark.parametrize("label", ["BDI:p=40,q=40", "GROUP:a40", "DIII:n=80"])
def test_cut_classify_weyl_invariant_past_root_cap(label):
    entry = resolve(label)
    rs = build(entry.restricted)
    assert root_count(rs.kind) > FORMER_ROOT_CAP
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
        assert is_conjugate(label, moved) is is_conjugate(label, h)


# -- conjugacy against the dot-product route -----------------------------------

@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_root_chain_lists_each_positive_root_once(kind):
    # The positive roots that the exceptional root test pairs, each once and
    # in order of height.
    rs = build(kind)
    l = rs.rank
    listed = rs.positive_roots
    assert listed[:l] == tuple(tuple(int(i == j) for i in range(l)) for j in range(l))
    positive = [r for r in rs.roots if sum(r) > 0]
    assert len(listed) == len(set(listed)) == len(positive)
    assert set(listed) == set(positive)
    heights = [sum(r) for r in listed]
    assert heights == sorted(heights)
    assert listed[-1] == rs.highest_root
    if kind.family == "bc":
        # The doubled roots 2r, r short, are listed with their halves.
        doubled = [r for r in listed if all(c % 2 == 0 for c in r)]
        assert len(doubled) == l
        assert all(tuple(c // 2 for c in r) in listed for r in doubled)


def _big_points(rs, poly, psi_sq, rng):
    """Killing-unit points with coordinates of several hundred digits: a
    random one; a conjugate one, (h, r) = N r_j for a 300-digit N; and
    that one moved off by small multiples of 1/K for a 300-digit K.  Each
    also moved by a Weyl word."""
    l, psi = rs.rank, rs.highest_root
    big = 10 ** 300
    rand = tuple(F(rng.randrange(-big, big), rng.randrange(1, big)) for _ in range(l))
    j = rng.randrange(l)
    n = rng.randrange(big, 10 * big)
    off = F(1, rng.randrange(big, 10 * big))
    conj = tuple(n * psi[j] * c / psi_sq for c in poly.vertices[j])
    near = tuple(c + off * rng.randint(-3, 3) for c in conj)
    out = []
    for x in (rand, conj, near):
        out.append(x)
        for i in _word(rng, l, 2 * l):
            x = reflect_simple(rs, x, i)
        out.append(x)
    return out


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_root_chain_matches_dot_product_route(kind):
    # The kernel's residue classes (classical kinds) and root-by-root
    # pairings (exceptional ones) against one dot product per enumerated
    # positive root.
    rs, poly, rng, points = _cases(kind)
    label = _label(kind)
    psi_sq = resolve(label).psi_sq_killing
    killing = [tuple(c / psi_sq for c in x) for x in points]
    killing += _big_points(rs, poly, psi_sq, rng)
    answers = set()
    for h in killing:
        n, d = clear_denominators(h)
        want = dot_product_conjugate(rs, psi_sq, n, d)
        a, den = psi_sq.numerator, psi_sq.denominator * d
        assert conjugate(rs, pairings(rs, n), a, den) is want, h
        assert is_conjugate(label, h) is want
        answers.add(want)
    assert answers == {True, False}
    # Every catalog psi_sq_killing has numerator 1; stand-ins reach the
    # a of psi_sq = a/b in the modulus.
    for stand_in in (F(3, 7), F(5, 2), F(12), F(6, 5)):
        answers = set()
        for x in points:
            n, d = clear_denominators(tuple(c / stand_in for c in x))
            want = dot_product_conjugate(rs, stand_in, n, d)
            a, den = stand_in.numerator, stand_in.denominator * d
            assert conjugate(rs, pairings(rs, n), a, den) is want, x
            answers.add(want)
        assert True in answers


# -- conjugacy against the epsilon-coordinate reference -------------------------

# Every classical family whose roots are enumerated, its largest enumerated
# rank included, and bc1 from both AIII:p=1,q=1 and FII.
EPSILON_LABELS = ("AI:n=2", "AII:n=5", "AI:n=22", "EIV", "BDI:p=2,q=5", "GROUP:b7",
                  "BDI:p=15,q=17", "CI:n=3", "DIII:n=6", "CI:n=15", "BDI:p=4,q=4",
                  "GROUP:d16", "AIII:p=1,q=1", "FII", "EIII", "AIII:p=15,q=16")


@pytest.mark.parametrize("label", EPSILON_LABELS)
def test_conjugacy_matches_epsilon_reference(label):
    # Coordinates over small denominators pair to integers often, those
    # over 7-digit ones almost never; each point mixes the two in its own
    # proportion.
    entry = resolve(label)
    kind, psi_sq = entry.restricted, entry.psi_sq_killing
    simple = epsilon_simple_roots(kind)
    rng = random.Random(f"epsilon {label}")
    answers, doubled_only = set(), 0
    for i in range(300):
        dens = [rng.randint(1, 4) if rng.random() < i % 3 / 2 else rng.randint(10 ** 6, 10 ** 7)
                for _ in range(kind.rank)]
        h = tuple(F(rng.randint(-6 * d, 6 * d), d) / psi_sq for d in dens)
        want = epsilon_conjugate(kind.family, simple, psi_sq, h)
        assert is_conjugate(label, h) is want, h
        assert cut_details(label, h).conjugate is want, h
        answers.add(want)
        # bc's indivisible roots are b's at half the scale, so this counts
        # the points that pair to an integer only with a doubled root 2 e_i.
        if kind.family == "bc":
            doubled_only += want and not epsilon_conjugate("b", simple, psi_sq / 2, h)
    assert answers == {True, False}
    assert doubled_only or kind.family != "bc"


@pytest.mark.parametrize("kind", [RootKind(fam, l) for l in (40, 128)
                                  for fam in ("a", "b", "c", "d", "bc")], ids=str)
def test_conjugacy_matches_epsilon_reference_at_high_rank(kind):
    # Past the former root cap, through a type I label and through the
    # kernel with stand-in Killing lengths whose numerator reaches the
    # modulus; bc's doubled roots decide some points alone.
    label = _space_label(kind)
    rs = build(kind)
    simple = epsilon_simple_roots(kind)
    rng = random.Random(f"epsilon high rank {kind}")
    psi_sq = resolve(label).psi_sq_killing
    answers, doubled_only = set(), 0
    for i in range(40):
        stand_in = (psi_sq, F(3, 7), F(5, 2), F(12))[i % 4]
        dens = [rng.randint(1, 4) if rng.random() < i % 3 / 2 else rng.randint(10 ** 6, 10 ** 7)
                for _ in range(kind.rank)]
        if i % 8 == 7:       # repeated and zero epsilon-coordinates
            dens = [1] * kind.rank
        h = tuple(F(rng.randint(-2 * d, 2 * d), d) / stand_in for d in dens)
        if kind.family == "bc" and i % 8 == 3:
            # Killing-scaled epsilon-coordinates (2, generic, ...): only 2 e_1
            # pairs to an integer.  x = sum x_i a_i has e_k-coordinate
            # x_k - x_{k-1}, so x is the running sum.
            eps = [F(2)] + [F(rng.randint(-10 ** 7, 10 ** 7), rng.randint(10 ** 6, 10 ** 7))
                            for _ in range(kind.rank - 1)]
            h = tuple(c / stand_in for c in accumulate(eps))
        want = epsilon_conjugate(kind.family, simple, stand_in, h)
        n, d = clear_denominators(h)
        got = conjugate(rs, pairings(rs, n), stand_in.numerator, stand_in.denominator * d)
        assert got is want, h
        if stand_in is psi_sq:
            assert is_conjugate(label, h) is want and cut_details(label, h).conjugate is want
        answers.add(want)
        if kind.family == "bc":
            doubled_only += want and not epsilon_conjugate("b", simple, stand_in / 2, h)
    assert answers == {True, False}
    assert doubled_only or kind.family != "bc"


# -- the three regimes of the dominant pass ------------------------------------

# On the dominant chamber every positive root alpha pairs with x into
# [0, (x, psi)], and the vertex e_j of the polytope pairs with alpha to
# alpha_j / psi_j.  So x = sum_j c_j psi_j e_j pairs with alpha to
# sum_j c_j alpha_j, and its level (x, psi) is sum_j c_j psi_j.

class RootTestRan(Exception):
    pass


def _moved(rs, rng, x):
    for i in _word(rng, rs.rank, rs.rank):
        x = reflect_simple(rs, x, i)
    return x


def _level_point(rs, verts, c):
    """(sum_j c_j psi_j e_j, its level) in Gram units, for c a dict {j: c_j}."""
    psi = rs.highest_root
    x = tuple(sum(cj * psi[j] * verts[j][k] for j, cj in c.items()) for k in range(rs.rank))
    return x, sum(cj * psi[j] for j, cj in c.items())


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_interior_and_integer_levels_skip_root_test(monkeypatch, kind):
    # Below the cut face nothing is conjugate, and at an integer level psi
    # itself pairs to a nonzero integer: the level decides, and the root
    # test never runs, on dominant points or on Weyl-moved copies of them.
    rs = build(kind)
    label = _space_label(kind)
    psi_sq = resolve(label).psi_sq_killing
    verts = build_polytope(rs).vertices
    rng = random.Random(f"levels {kind}")
    l, psi = rs.rank, rs.highest_root

    def raise_(*_args):
        raise RootTestRan

    monkeypatch.setattr(roots, "conjugate", raise_)
    with pytest.raises(RootTestRan):                    # past the face, level 3/2
        is_conjugate(label, tuple(F(3, 2) * c / psi_sq for c in psi))
    points = [((0,) * l, 0)]
    for t in (1, 2, 3):
        points += [(tuple(F(t, 4) * c for c in psi), F(t, 4)), (tuple(t * c for c in psi), t)]
    for j in rng.sample(range(l), min(l, 3)):
        points.append(_level_point(rs, verts, {j: 1}))                   # psi_j e_j
    for total in (F(1, 3), F(9, 10), 1, 1, 2):
        picks = rng.sample(range(l), min(l, 3))
        weights = [F(rng.randint(1, 5)) for _ in picks]
        w = sum(weights)
        face = tuple(sum(total * wi / w * verts[j][k] for wi, j in zip(weights, picks))
                     for k in range(l))                                   # level total
        points.append((face, total))
    seen = set()
    for x, level in points:
        cls = (SliceClass.INTERIOR if level < 1 else
               SliceClass.ON_CUT_FACE if level == 1 else SliceClass.OUTSIDE)
        conj = level >= 1
        for y in (x, _moved(rs, rng, x)):
            h = tuple(c / psi_sq for c in y)
            assert cut_classify(label, h) is cls, (level, h)
            assert is_conjugate(label, h) is conj, (level, h)
            d = cut_details(label, h)
            assert (d.classification, d.conjugate) == (cls, conj), (level, h)
        seen.add(cls)
    assert seen == set(SliceClass)


@pytest.mark.parametrize("kind", IN_CAP_KINDS + [RootKind(fam, 40) for fam in
                                                 ("a", "b", "c", "d", "bc")], ids=str)
def test_non_integer_level_past_face_runs_root_test(monkeypatch, kind):
    # Past the face at a non-integer level the level cannot decide: the
    # root test runs once per call, and agrees with the dot-product route,
    # or past the former root cap with the epsilon-coordinate reference.
    rs = build(kind)
    label = _space_label(kind)
    psi_sq = resolve(label).psi_sq_killing
    verts = build_polytope(rs).vertices
    rng = random.Random(f"past the face {kind}")
    l, psi = rs.rank, rs.highest_root
    points = [tuple(F(t, s) * c for c in psi) for t, s in ((3, 2), (5, 3), (7, 4), (11, 6))]
    if l > 1:
        # psi_j e_j + e_k / 2 pairs to 1 with a_j, at level psi_j + 1/2.
        j, k = rng.sample(range(l), 2)
        points.append(_level_point(rs, verts, {j: 1, k: F(1, 2 * psi[k])})[0])
    steps = (0, F(1, 2), F(1, 3), F(2, 3), 1, F(3, 2), F(5, 4))
    while len(points) < 14:
        c = {j: rng.choice(steps) for j in rng.sample(range(l), min(l, 3))}
        x, level = _level_point(rs, verts, c)
        if level > 1 and level.denominator > 1:
            points.append(x)
    calls = [0]
    root_test = roots.conjugate

    def counting(*args):
        calls[0] += 1
        return root_test(*args)

    monkeypatch.setattr(roots, "conjugate", counting)
    simple = epsilon_simple_roots(kind) if root_count(kind) > FORMER_ROOT_CAP else None
    answers = set()
    for x in points:
        for y in (x, _moved(rs, rng, x)):
            h = tuple(c / psi_sq for c in y)
            if simple is None:
                n, d = clear_denominators(h)
                want = dot_product_conjugate(rs, psi_sq, n, d)
            else:
                want = epsilon_conjugate(kind.family, simple, psi_sq, h)
            calls[0] = 0
            assert is_conjugate(label, h) is want, h
            d = cut_details(label, h)
            assert (d.classification, d.conjugate) == (SliceClass.OUTSIDE, want), h
            assert calls[0] == 2
            answers.add(want)
    assert answers == ({True, False} if l > 1 else {False})


# -- the geometry predicates against the Fraction pipeline ---------------------

def _space_label(kind):
    """A type I space whose restricted system is ``kind``."""
    fam, l = kind.family, kind.rank
    label = {"a": f"AI:n={l + 1}", "b": f"BDI:p={l},q={l + 1}", "c": f"CI:n={l}",
             "d": f"BDI:p={l},q={l}", "bc": f"AIII:p={l},q={l + 1}",
             "e": {6: "EI", 7: "EV", 8: "EVIII"}.get(l), "f": "FI", "g": "G"}[fam]
    assert resolve(label).restricted == kind
    return label


def _mixed(rng, h):
    """h with each coordinate in a random one of its exact spellings:
    Fraction, str, and int, bool or float where the value allows."""
    out = []
    for c in h:
        forms = [c, str(c)]
        if c.denominator == 1:
            forms.append(c.numerator)
            if c in (0, 1):
                forms.append(bool(c))
        if c.denominator & (c.denominator - 1) == 0 and abs(c.numerator) < 2 ** 50:
            forms.append(float(c))
        out.append(rng.choice(forms))
    return tuple(out)


# Every accepted element type, cycled through the coordinates of a point.
SPELLINGS = (True, "-7/3", 0.25, F(2, 5), -2, False)


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_predicates_match_fraction_pipeline(kind):
    rs, poly, rng, points = _cases(kind)
    label = _space_label(kind)
    psi_sq = resolve(label).psi_sq_killing
    l = rs.rank
    killing = [_mixed(rng, tuple(c / psi_sq for c in x)) for x in points]
    killing.append(_mixed(rng, tuple(F(rng.randint(-1, 1)) for _ in range(l))))
    killing += [tuple(SPELLINGS[(i + shift) % len(SPELLINGS)] for i in range(l))
                for shift in range(len(SPELLINGS))]
    for h in killing:
        lab = rng.choice([label, parse_label(label)])
        want = fraction_cut_details(label, h)
        got = cut_details(lab, h)
        assert got == want, (label, h)
        assert all(type(c) is F for c in got.dominant_representative)
        assert cut_classify(lab, h) is want.classification
        assert is_conjugate(lab, h) is want.conjugate


@pytest.mark.parametrize("psi_sq", [F(3, 7), F(5, 2), F(12)], ids=str)
def test_psi_numerator_is_folded_in(monkeypatch, psi_sq):
    # Every catalog psi_sq_killing has numerator 1, so only a stand-in
    # value reaches the a of psi_sq = a/b in the integer path.
    entry = SimpleNamespace(psi_sq_killing=psi_sq)
    for kind in IN_CAP_KINDS[::6]:
        rs, _poly, _rng, points = _cases(kind)
        monkeypatch.setattr(geometry, "_slice_data", lambda _label: (rs, psi_sq))
        for x in points:
            h = tuple(c / psi_sq for c in x)
            cls, dom, nrefl = fraction_classify(entry, rs, h)
            assert cut_details("stand-in", h) == CutDetails(
                classification=cls, dominant_representative=dom, reflections=nrefl,
                conjugate=fraction_conjugate(entry, rs, h))


@pytest.mark.parametrize("label", [
    "AI:n=1", SpaceLabel("AI", n=1), "XX:n=3", "GROUP:a200",
    SpaceLabel("GROUP", kind=RootKind("a", 200)), "AIII:p=200,q=300"], ids=str)
def test_invalid_label_raises_every_call(label):
    # A failed lookup is not cached: the same error comes back each time.
    before = geometry._slice_data.cache_info().currsize
    for _ in range(3):
        for pred in (cut_classify, is_conjugate, cut_details):
            with pytest.raises((InvalidParams, InvalidRank)):
                pred(label, (0,))
    assert geometry._slice_data.cache_info().currsize == before


# -- regression guards -------------------------------------------------------

GUARD_LABELS = ("EVIII", "EIX", "GROUP:e7", "BDI:p=6,q=9", "AIII:p=5,q=8", "G", "FII")


def _guard_points():
    rng = random.Random("fraction guard")
    out = []
    for label in GUARD_LABELS:
        entry = resolve(label)
        l = entry.restricted.rank
        for _ in range(4):
            h = tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(l))
            out.append((label, h))
            out.append((label, tuple(rng.randint(-3, 3) for _ in range(l))))
    return out


def test_warm_predicates_build_no_fractions(monkeypatch):
    points = _guard_points()
    for label, h in points:                      # warm every cache
        cut_details(label, h)
    made = [0]
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    assert F(1, 2) == F(1, 2) and made[0] == 2   # the counter sees construction
    made[0] = 0
    for label, h in points:
        cut_classify(label, h)
        is_conjugate(label, h)
    assert made[0] == 0
    for label, h in points:
        made[0] = 0
        d = cut_details(label, h)
        assert made[0] == len(h) == len(d.dominant_representative)


def test_slice_caches_pin_no_black_node_sets():
    # Each AIII:p=1,q label resolves to its own entry, with its black-node
    # set; no entry may outlive the call.
    for pred in (cut_classify, is_conjugate, cut_details):
        pred("AIII:p=1,q=3", (F(1, 3),))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(20):
            label = f"AIII:p=1,q={100_000 + 7 * i}"
            for pred in (cut_classify, is_conjugate, cut_details):
                pred(label, (F(1, 3),))
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert retained < 2 * 2 ** 20, retained
