"""Checks that scale with the system: the report against the closed forms
at restricted ranks up to MAX_RANK, and the slice predicates along rays
through the cut face.

The report test draws parameters over each series' whole domain up to
restricted rank MAX_RANK; only the number of examples is bounded.

For a simply connected compact symmetric space the cut locus in the
Cartan slice is the first conjugate locus (Crittenden, Canad. J. Math. 14,
1962; Sakai, Hokkaido Math. J. 6, 1977).  For dominant h the ray t*h
meets the cut face at t* = 1/(h, psi) in the Killing form: that point is
conjugate, no point of the ray before it is, and past it the ray leaves
the polytope.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspace.catalog import enumerate_table, resolve
from symspace.closedform import expected
from symspace.geometry import cut_classify, cut_details, is_conjugate, report
from symspace.linalg import PiSqrtValue
from symspace.polytope import build_polytope
from symspace.roots import MAX_RANK, SliceClass, build

from reference import dot_gram, gram
from test_slice_kernel import IN_CAP_KINDS

R = MAX_RANK
# q is not a rank; it runs well past MAX_RANK, as the rows allow.
Q = 8 * MAX_RANK


def _pq(series, p, q):
    return f"{series}:p={p},q={q}"


def _bdi(p, q):
    if p == 1:
        q = max(q, 2)               # BDI:p=1 needs q >= 2
    elif p == q < 4:
        q += 1                      # p = q needs p >= 4
    return _pq("BDI", p, q)


_PQ = st.integers(1, R).flatmap(lambda p: st.tuples(st.just(p), st.integers(p, Q)))

SERIES_LABELS = {
    "AI": st.integers(2, R + 1).map(lambda n: f"AI:n={n}"),
    "AII": st.integers(2, R + 1).map(lambda n: f"AII:n={n}"),
    "AIII": _PQ.map(lambda pq: _pq("AIII", *pq)),
    "CI": st.integers(1, R).map(lambda n: f"CI:n={n}"),
    "CII": _PQ.map(lambda pq: _pq("CII", *pq)),
    "BDI": _PQ.map(lambda pq: _bdi(*pq)),
    "DIII": st.integers(4, 2 * R + 1).map(lambda n: f"DIII:n={n}"),
    "exceptional": st.sampled_from(["EI", "EII", "EIII", "EIV", "EV", "EVI",
                                    "EVII", "EVIII", "EIX", "FI", "FII", "G"]),
    "GROUP": st.one_of(
        *(st.integers(lo, R).map(lambda l, fam=fam: f"GROUP:{fam}{l}")
          for fam, lo in (("a", 1), ("b", 2), ("c", 3), ("d", 4))),
        st.sampled_from(["GROUP:e6", "GROUP:e7", "GROUP:e8", "GROUP:f4",
                         "GROUP:g2"])),
}


@pytest.mark.parametrize("series", sorted(SERIES_LABELS))
def test_report_matches_closed_form(series):
    @given(SERIES_LABELS[series])
    @settings(max_examples=25, deadline=None)
    def check(label):
        entry = resolve(label)
        assert entry.restricted.rank <= MAX_RANK
        rep = report(entry)
        want = expected(entry.label)
        assert rep.psi_sq == want.psi_sq, label
        assert rep.injectivity_radius == PiSqrtValue(want.i_radicand), label
        assert rep.diameter == PiSqrtValue(want.d_radicand), label

    check()


def _type_one_labels():
    """The first table 4.1 label for each in-cap restricted kind."""
    firsts = {}
    for entry in enumerate_table("4.1", 22):    # AI:n=22 gives a21
        firsts.setdefault(entry.restricted, str(entry.label))
    return [firsts[kind] for kind in IN_CAP_KINDS]


def _dominant_rays(label, count, seed):
    """(t* h, h) for random dominant h: nonnegative combinations of the
    polytope vertices, with t* = 1/(h, psi) in the Killing form."""
    entry = resolve(label)
    rs = build(entry.restricted)
    verts = build_polytope(rs).vertices
    g = gram(rs)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in verts]
        h = tuple(sum(cj * v[i] for cj, v in zip(c, verts)) for i in range(rs.rank))
        level = entry.psi_sq_killing * dot_gram(g, h, rs.highest_root)
        if level:
            out.append(tuple(x / level for x in h))
    return out


def _scaled(point, t):
    return tuple(t * x for x in point)


def test_every_in_cap_kind_has_a_type_one_label():
    labels = _type_one_labels()
    assert len(labels) == len(IN_CAP_KINDS)
    assert all(resolve(lab).space_type == "I" for lab in labels)


@pytest.mark.parametrize("label", _type_one_labels())
def test_cut_face_is_first_conjugate_point_on_ray(label):
    rng = random.Random(label)
    for face in _dominant_rays(label, 3, label):
        j = rng.randint(1, 20)
        d = cut_details(label, face)
        assert d.classification is SliceClass.ON_CUT_FACE, (label, face)
        assert d.conjugate and d.reflections == 0, (label, face)
        assert is_conjugate(label, face)
        inside = _scaled(face, F(j, j + 1))
        d = cut_details(label, inside)
        assert d.classification is SliceClass.INTERIOR, (label, inside)
        assert not d.conjugate, (label, inside)
        assert not is_conjugate(label, inside)
        past = _scaled(face, F(j + 1, j))
        assert cut_details(label, past).classification is SliceClass.OUTSIDE
        assert cut_classify(label, past) is SliceClass.OUTSIDE


@pytest.mark.parametrize("label", ["GROUP:a40", "BDI:p=40,q=40", "DIII:n=256"])
def test_cut_classify_along_ray_past_root_cap(label):
    rng = random.Random(label)
    for face in _dominant_rays(label, 3, label):
        j = rng.randint(1, 20)
        assert cut_classify(label, face) is SliceClass.ON_CUT_FACE
        assert cut_classify(label, _scaled(face, F(j, j + 1))) is SliceClass.INTERIOR
        assert cut_classify(label, _scaled(face, F(j + 1, j))) is SliceClass.OUTSIDE
