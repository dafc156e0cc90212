import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from symspace.catalog import resolve
from symspace.closedform import d_sq_closed_form, expected
from symspace.geometry import (CutDetails, EmptyProduct, MetricSpec,
                               NoCanonicalMetric, cut_classify, cut_details,
                               is_conjugate, kappa_relation_check, product,
                               report, report_json_dict)
from symspace.linalg import DimensionMismatch, PiSqrtValue
from symspace.polytope import build_polytope, reflect_simple
from symspace.roots import SliceClass, build


def test_report_ai4():
    r = report("AI:n=4")
    assert r.injectivity_radius == PiSqrtValue(F(4))
    assert r.diameter == PiSqrtValue(F(8))
    assert r.kappa == F(1, 4)
    assert r.ricci == F(1, 2)


def test_report_group_g2():
    r = report("GROUP:g2")
    assert r.injectivity_radius == PiSqrtValue(F(8))
    assert r.diameter == PiSqrtValue(F(32, 3))


def test_report_is_linear_and_makes_no_adjugate(monkeypatch):
    # d_sq comes from the tree minors, so a cold report at rank 100-128
    # never reaches the adjugate that build_polytope makes, and its
    # continuants run over at most 3 rank nodes in all (prefix, suffix and,
    # for d, the bare chain): the cost is linear in the rank.
    import symspace.dynkin as dynkin
    import symspace.polytope as polytope

    def no_adjugate(*_args):
        raise AssertionError("tree_adjugate on the report path")

    monkeypatch.setattr(polytope, "tree_adjugate", no_adjugate)
    dynkin.farthest_vertex.cache_clear()
    assert report("GROUP:a128").d_sq_sigma == d_sq_closed_form("a", 128)
    assert report("BDI:p=100,q=120").d_sq_sigma == d_sq_closed_form("b", 100)
    with pytest.raises(AssertionError, match="tree_adjugate"):
        build_polytope(build("a3"))           # the patch is in force

    nodes = []
    continuants = dynkin._continuants
    monkeypatch.setattr(dynkin, "_continuants",
                        lambda a, b: nodes.append(len(a)) or continuants(a, b))
    for rank in (32, 64, 128):
        for label in (f"GROUP:a{rank}", f"GROUP:d{rank}", f"BDI:p={rank},q={rank + 20}",
                      f"CII:p={rank},q={rank + 3}"):
            dynkin.farthest_vertex.cache_clear()
            nodes.clear()
            report(label)
            assert 0 < sum(nodes) <= 3 * rank, (label, nodes)


# Labels that name one space: each group is one ambient Lie algebra up to
# isomorphism (su(2) = so(3) = sp(1), so(4) = su(2)+su(2), so(5) = sp(2),
# so(6) = su(4), so(8) = its triality images), so the Killing metrics, and
# with them every value a report prints at eps = 1, agree.  The printed
# restricted labels (bc1, c1 or a1; c2 or b2) still differ.
SAME_SPACE = [
    ("AI:n=2", "AIII:p=1,q=1", "CI:n=1", "BDI:p=1,q=2"),
    ("GROUP:a1", "BDI:p=1,q=3"),
    ("CII:p=1,q=1", "BDI:p=1,q=4"),
    ("AII:n=2", "BDI:p=1,q=5"),
    ("CI:n=2", "BDI:p=2,q=3"),
    ("AIII:p=2,q=2", "BDI:p=2,q=4"),
    ("DIII:n=4", "BDI:p=2,q=6"),
]


@pytest.mark.parametrize("labels", SAME_SPACE, ids=lambda g: "=".join(g))
def test_labels_of_one_space_report_the_same_geometry(labels):
    values = {(r.psi_sq, r.injectivity_radius.radicand, r.diameter.radicand)
              for r in map(report, labels)}
    assert len(values) == 1, values


def test_report_canonical_grassmannian():
    r = report("BDI:p=2,q=5", MetricSpec.canonical())
    assert r.epsilon == F(1, 10)
    assert r.injectivity_radius == PiSqrtValue(F(1, 2))
    assert r.diameter == PiSqrtValue(F(1))


def test_no_canonical_metric():
    with pytest.raises(NoCanonicalMetric):
        report("AI:n=4", MetricSpec.canonical())


def test_metric_specs():
    assert report("EI", MetricSpec.ricci(F(1, 2))).epsilon == 1
    assert report("EI", MetricSpec.ricci(F(1, 4))).epsilon == 2
    with pytest.raises(ValueError):
        MetricSpec.epsilon(0)
    with pytest.raises(ValueError):
        MetricSpec.ricci(-1)


def test_metric_covariance():
    base = report("EVII")
    for eps in (F(1, 7), F(3), F(5, 2)):
        r = report("EVII", MetricSpec.epsilon(eps))
        assert r.injectivity_radius == PiSqrtValue(base.injectivity_radius.radicand * eps)
        assert r.diameter == PiSqrtValue(base.diameter.radicand * eps)
        assert r.kappa == base.kappa / eps


def test_kappa_relation():
    assert kappa_relation_check(report("AI:n=7")) == 0
    r = report("EVIII")
    assert r.injectivity_radius == PiSqrtValue(F(30))
    assert r.kappa == F(1, 30)
    assert kappa_relation_check(r) == 0
    assert kappa_relation_check(report("FII", MetricSpec.epsilon(3))) == 0


def test_diameter_at_least_injectivity():
    for lab in ("AI:n=9", "CII:p=3,q=4", "BDI:p=1,q=6", "G", "GROUP:b4"):
        r = report(lab)
        assert r.diameter >= r.injectivity_radius


def _face_point(label):
    e = resolve(label)
    rs = build(e.restricted)
    return rs, tuple(F(c) / e.psi_sq_killing for c in rs.highest_root)


def test_is_conjugate_examples():
    rs, h = _face_point("AI:n=3")
    assert is_conjugate("AI:n=3", (0, 0)) is False
    assert is_conjugate("AI:n=3", h) is True
    assert is_conjugate("AI:n=3", tuple(c / 2 for c in h)) is False
    with pytest.raises(DimensionMismatch):
        is_conjugate("AI:n=3", (1, 2, 3))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), Decimal("Infinity"), "1/0",
                                 float("nan"), "abc"], ids=repr)
def test_unreadable_coordinate_refused_as_value_error(bad):
    # Every refused input is a ValueError: an infinity or a zero denominator
    # is named, as NaN and an unreadable str already were.
    message = {"nan": "cannot convert NaN to integer ratio",
               "'abc'": "Invalid literal for Fraction: 'abc'"}.get(
        repr(bad), f"coordinate {bad!r} is not a finite rational")
    point = (bad, F(1, 3))
    for call in (lambda: cut_details("AI:n=3", point), lambda: is_conjugate("AI:n=3", point),
                 lambda: cut_classify("AI:n=3", point),
                 lambda: reflect_simple(build("a2"), point, 0)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_cut_classify_examples():
    rs, h = _face_point("AI:n=3")
    assert cut_classify("AI:n=3", (0, 0)) is SliceClass.INTERIOR
    assert cut_classify("AI:n=3", h) is SliceClass.ON_CUT_FACE
    # a Weyl reflection of the face point classifies identically
    refl = reflect_simple(rs, h, 0)
    assert refl != h
    assert cut_classify("AI:n=3", refl) is SliceClass.ON_CUT_FACE
    d = cut_details("AI:n=3", refl)
    assert d.dominant_representative == h
    assert d.conjugate is True


def test_cut_details_fields():
    _rs, h = _face_point("AI:n=3")
    d = cut_details("AI:n=3", (0, 3))
    assert d == CutDetails(classification=SliceClass.ON_CUT_FACE,
                           dominant_representative=h, reflections=1,
                           conjugate=True)


def test_cut_classify_needs_no_roots():
    # GROUP:a30 has 930 roots, past the former enumeration cap: the cut
    # face needs only the Gram matrix, and conjugacy reads the classical
    # epsilon-coordinates, so no root is listed.  The origin pairs to 0
    # with every root.
    origin = (0,) * 30
    assert cut_classify("GROUP:a30", origin) is SliceClass.INTERIOR
    assert is_conjugate("GROUP:a30", origin) is False
    assert cut_details("GROUP:a30", origin) == CutDetails(
        classification=SliceClass.INTERIOR, dominant_representative=(F(0),) * 30,
        reflections=0, conjugate=False)


def test_cut_face_implies_conjugate_random():
    rng = random.Random(11)
    labels = ["AI:n=3", "CII:p=1,q=2", "BDI:p=2,q=5", "G", "GROUP:a2", "FII"]
    for lab in labels:
        e = resolve(lab)
        rs = build(e.restricted)
        for _ in range(40):
            h = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(rs.rank))
            cls = cut_classify(lab, h)
            conj = is_conjugate(lab, h)
            if cls is SliceClass.ON_CUT_FACE:
                assert conj
            # Weyl invariance of both predicates
            i = rng.randrange(rs.rank)
            refl = reflect_simple(rs, h, i)
            assert cut_classify(lab, refl) is cls
            assert is_conjugate(lab, refl) == conj


def test_product_laws():
    r1 = report("AI:n=4")
    r2 = report("GROUP:g2")
    inj, diam = product([r1])
    assert (inj, diam) == (r1.injectivity_radius, r1.diameter)
    inj, diam = product([r1, r1])
    assert inj == r1.injectivity_radius
    assert diam == PiSqrtValue(2 * r1.diameter.radicand)
    inj, diam = product([r1, r2])
    assert inj == PiSqrtValue(F(4))
    assert diam == PiSqrtValue(F(56, 3))
    with pytest.raises(EmptyProduct):
        product([])


def test_tables_match_closed_forms_spot():
    for lab in ("AII:n=5", "DIII:n=7", "BDI:p=4,q=9", "CII:p=2,q=2",
                "GROUP:d5", "GROUP:b2", "EIX"):
        r = report(lab)
        want = expected(resolve(lab).label)
        assert r.psi_sq == want.psi_sq
        assert r.injectivity_radius.radicand == want.i_radicand
        assert r.diameter.radicand == want.d_radicand


def test_report_json():
    d = report_json_dict(report("FII"))
    assert d["injectivity_radius"]["exact"] == "pi*sqrt(18)"
    assert d["diameter"]["radicand"] == "18"
    assert d["psi_sq"] == "1/18"
    assert d["space"]["label"] == "FII"
