"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every comparison is exact (Fraction / PiSqrtValue equality) unless the
criterion itself states a float tolerance.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from symspace.catalog import enumerate_table, resolve
from symspace.closedform import (delta_sq_closed_form, expected,
                                 grassmannian_canonical)
from symspace.geometry import (MetricSpec, cut_classify, is_conjugate,
                               kappa_relation_check, product, report)
from symspace.killing import canonical_kind, perp_kinds_formula
from symspace.linalg import PiSqrtValue
from symspace.oracle import standard_suite
from symspace.polytope import reflect_simple
from symspace.roots import MAX_RANK, RootKind, build, root_count
from symspace.verify import table_reports

from reference import (dominant_reference, gram, killing_delta_sq, killing_self_consistency,
                       mul_vec, perp_decomposition, perp_subsystem)

ALL_KINDS = (
    [RootKind("a", l) for l in range(1, 13)]
    + [RootKind("b", l) for l in range(2, 13)]
    + [RootKind("c", l) for l in range(3, 13)]
    + [RootKind("d", l) for l in range(4, 13)]
    + [RootKind("bc", l) for l in range(1, 13)]
    + [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
       RootKind("f", 4), RootKind("g", 2)]
)
REDUCED_KINDS = [k for k in ALL_KINDS if k.is_reduced]


@contextmanager
def criterion(number, description, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    dt = time.monotonic() - t0
    if budget_s is not None:
        assert dt < budget_s, f"criterion {number} took {dt:.1f}s > {budget_s}s"
    print(f"criterion {number}: PASS ({dt:.2f}s) - {description}")


def _check_table(which, bound):
    for entry in enumerate_table(which, bound):
        rep = report(entry.label)
        want = expected(entry.label)
        assert rep.psi_sq == want.psi_sq, entry.label
        assert rep.injectivity_radius == PiSqrtValue(want.i_radicand), entry.label
        assert rep.diameter == PiSqrtValue(want.d_radicand), entry.label


def test_criterion_1_table41():
    with criterion(1, "table 4.1 rows reproduce exactly for p,q,n <= 12", 10):
        _check_table("4.1", 12)


def test_criterion_2_table42():
    with criterion(2, "table 4.2 rows reproduce exactly for ranks <= 12", 5):
        _check_table("4.2", 12)


def test_table41_bound_40():
    with criterion("1b", "table 4.1 rows reproduce exactly for p,q,n <= 40"):
        _check_table("4.1", 40)


def test_table42_bound_40():
    with criterion("2b", "table 4.2 rows reproduce exactly for ranks <= 40"):
        _check_table("4.2", 40)


# SHA-256 of the table rows that `verify --max-param 128` prints for each
# table, one tsv_row() a line, recorded before the polytope's vertices came
# from the tree adjugate.
MAX_RANK_TSV_SHA256 = {
    "4.1": "58d879f8ea75078ecf75616eeb45d352db220fd69782555da88305390162ad5e",
    "4.2": "ef7c3f58cdf42f9d8fa8505931d064e7a85a43710155d2fea2cb0cf6f4d62379",
}


@pytest.mark.parametrize("which, rows", [("4.1", 25_284), ("4.2", 511)])
def test_table_reports_at_max_rank(which, rows):
    # Every row at the largest --max-param, checked against closedform
    # as verify checks it, and printed as verify prints it.
    with criterion(f"{which[-1]}c", f"table {which} rows reproduce exactly "
                                    f"for parameters <= {MAX_RANK}"):
        reports = table_reports(which, MAX_RANK)
        assert len(reports) == rows
        assert [r.name for r in reports if not r.passed] == []
        tsv = "".join(r.tsv_row() + "\n" for r in reports)
        assert hashlib.sha256(tsv.encode()).hexdigest() == MAX_RANK_TSV_SHA256[which]


def test_criterion_3_killing_closed_forms():
    with criterion(3, "highest-root Killing lengths match closed forms, ranks <= 12"):
        for kind in REDUCED_KINDS:
            assert killing_delta_sq(build(kind)) == \
                delta_sq_closed_form(kind.family, kind.rank), kind


def test_criterion_4_killing_self_consistency():
    with criterion(4, "trace-sum self-consistency is exactly 0 for all ten families"):
        families_seen = set()
        for kind in ALL_KINDS:
            assert killing_self_consistency(build(kind)) == 0, kind
            families_seen.add(kind.family if kind.family != "e"
                              else f"e{kind.rank}")
        assert families_seen == {"a", "b", "c", "d", "bc",
                                 "e6", "e7", "e8", "f", "g"}


def test_criterion_5_perp_subsystems():
    with criterion(5, "orthogonal-subsystem decompositions match the table, "
                      "including low-rank special cases"):
        for kind in REDUCED_KINDS:
            rs = build(kind)
            got = perp_decomposition(rs)
            want = tuple(sorted((canonical_kind(k.family, k.rank)
                                 for k in perp_kinds_formula(kind)),
                                key=lambda k: (k.family, k.rank)))
            assert got == want, (kind, got, want)
            assert len(perp_subsystem(rs)) == sum(root_count(k) for k in got)


def test_criterion_6_curvature_identity():
    with criterion(6, "i(M)^2 * kappa = pi^2 exactly for every entry, "
                      "eps in {1/7, 1, 3}"):
        entries = list(enumerate_table("4.1", 12)) + list(enumerate_table("4.2", 12))
        for eps in (F(1, 7), F(1), F(3)):
            metric = MetricSpec.epsilon(eps)
            for entry in entries:
                assert kappa_relation_check(report(entry.label, metric)) == 0


def test_criterion_7_canonical_grassmannian():
    with criterion(7, "canonical real Grassmannians: i and d match the "
                      "piecewise closed form for 1 <= p <= q <= 10"):
        for p in range(1, 11):
            for q in range(p, 11):
                if not ((p == 1 and q >= 2) or (2 <= p < q) or (4 <= p == q)):
                    continue
                rep = report(f"BDI:p={p},q={q}", MetricSpec.canonical())
                i_rad, d_rad = grassmannian_canonical(p, q)
                assert rep.injectivity_radius == PiSqrtValue(i_rad), (p, q)
                assert rep.diameter == PiSqrtValue(d_rad), (p, q)


def test_criterion_8_products():
    with criterion(8, "product law: min injectivity radius and "
                      "root-sum-of-squares diameter, 50 random combinations"):
        pool = ["AI:n=4", "AI:n=7", "AII:n=3", "AIII:p=2,q=5", "CI:n=4",
                "CII:p=1,q=3", "BDI:p=2,q=6", "BDI:p=4,q=4", "DIII:n=6",
                "EII", "EVII", "FII", "G", "GROUP:a3", "GROUP:b4",
                "GROUP:d5", "GROUP:e7", "GROUP:g2"]
        rng = random.Random(20260810)
        for _ in range(50):
            labels = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
            eps = F(rng.randint(1, 9), rng.randint(1, 9))
            reps = [report(lab, MetricSpec.epsilon(eps)) for lab in labels]
            inj, diam = product(reps)
            assert inj.radicand == min(r.injectivity_radius.radicand
                                       for r in reps)
            assert diam.radicand == sum(r.diameter.radicand for r in reps)


def test_criterion_9_oracles():
    with criterion(9, "oracle suite: sampled maxima, numeric inverses, and "
                      "independent closure counts all within tolerance", 60):
        reports = standard_suite(seed=20260810, samples=100_000, max_rank=8)
        for rep in reports:
            assert rep.passed, rep.tsv_row()


def test_criterion_10_predicate_coherence():
    with criterion(10, "cut-face points are conjugate and both predicates "
                       "are Weyl-invariant on random slice points", 30):
        spaces = ["AI:n=2", "AI:n=3", "AI:n=4", "AII:n=2", "AII:n=3",
                  "AIII:p=1,q=2", "AIII:p=2,q=2", "AIII:p=2,q=3", "CI:n=2",
                  "CI:n=3", "CII:p=1,q=1", "CII:p=1,q=2", "BDI:p=1,q=5",
                  "BDI:p=2,q=3", "BDI:p=2,q=5", "DIII:n=4", "FII", "G",
                  "GROUP:a2", "GROUP:g2"]
        assert len(spaces) == 20
        rng = random.Random(99)
        for lab in spaces:
            entry = resolve(lab)
            rs = build(entry.restricted)
            psi_k = tuple(F(c) / entry.psi_sq_killing for c in rs.highest_root)
            for t in range(1000):
                if t % 2 == 0:
                    h = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                              for _ in range(rs.rank))
                else:
                    # exact cut-face point: dominant-reduce, then scale the
                    # highest-root pairing to the unit level
                    raw = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                                for _ in range(rs.rank))
                    dom, _ = dominant_reference(rs, raw)
                    w = mul_vec(gram(rs), dom)
                    level = entry.psi_sq_killing * sum(
                        F(d) * wi for d, wi in zip(rs.highest_root, w))
                    h = psi_k if level == 0 else tuple(c / level for c in dom)
                cls = cut_classify(lab, h)
                conj = is_conjugate(lab, h)
                if str(cls) == "on-cut-face":
                    assert conj, (lab, h)
                refl = h
                for _ in range(2):
                    refl = reflect_simple(rs, refl, rng.randrange(rs.rank))
                assert cut_classify(lab, refl) is cls, (lab, h)
                assert is_conjugate(lab, refl) == conj, (lab, h)
