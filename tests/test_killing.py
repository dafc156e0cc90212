from fractions import Fraction as F

import pytest

from symspace.closedform import delta_sq_closed_form
from symspace.dynkin import MAX_RANK, kinds
from symspace.killing import (NonReducedInput, highest_root_neighbours, killing_data,
                              to_json_dict)
from symspace.roots import RootKind, build, root_count

from reference import (gram, killing_data_by_roots, killing_delta_sq,
                       killing_self_consistency, mul_vec, perp_decomposition,
                       perp_simple_indices_by_gram, perp_simple_indices_by_roots,
                       perp_subsystem)
from test_roots import ALL_KINDS
from test_slice_kernel import IN_CAP_KINDS

REDUCED_KINDS = [k for k in ALL_KINDS if k.is_reduced]


def _kinds(*names):
    return tuple(sorted((RootKind(f, r) for f, r in names),
                        key=lambda k: (k.family, k.rank)))


# Orthogonal decomposition of the highest root, per ambient type.
EXPECTED_PERP = {
    "a": lambda l: _kinds(("a", l - 2)) if l >= 3 else (),
    "b": lambda l: (_kinds(("a", 1)) if l == 2 else
                    _kinds(("a", 1), ("a", 1)) if l == 3 else
                    _kinds(("a", 1), ("b", l - 2)) if l >= 5 else
                    _kinds(("a", 1), ("b", 2))),
    "c": lambda l: _kinds(("b", 2)) if l == 3 else _kinds(("c", l - 1)),
    "d": lambda l: (_kinds(("a", 1), ("a", 1), ("a", 1)) if l == 4 else
                    _kinds(("a", 1), ("a", 3)) if l == 5 else
                    _kinds(("a", 1), ("d", l - 2))),
    "e": lambda l: {6: _kinds(("a", 5)), 7: _kinds(("d", 6)),
                    8: _kinds(("e", 7))}[l],
    "f": lambda l: _kinds(("c", 3)),
    "g": lambda l: _kinds(("a", 1)),
}


def test_perp_subsystem_examples():
    assert perp_subsystem(build("a2")) == frozenset()
    assert len(perp_subsystem(build("e8"))) == 126
    assert len(perp_subsystem(build("g2"))) == 2


def test_killing_delta_sq_examples():
    assert killing_delta_sq(build("g2")) == F(1, 4)
    assert killing_delta_sq(build("e8")) == F(1, 30)
    for l in range(1, 13):
        assert killing_delta_sq(build(RootKind("a", l))) == F(1, l + 1)


def test_killing_delta_sq_rejects_bc():
    with pytest.raises(NonReducedInput):
        killing_delta_sq(build("bc2"))
    with pytest.raises(NonReducedInput):
        killing_data(RootKind("bc", 2))


@pytest.mark.parametrize("kind", REDUCED_KINDS, ids=str)
def test_delta_sq_matches_closed_form(kind):
    rs = build(kind)
    want = delta_sq_closed_form(kind.family, kind.rank)
    assert killing_delta_sq(rs) == want
    assert killing_data(kind).delta_sq == want


@pytest.mark.parametrize("kind", REDUCED_KINDS, ids=str)
def test_perp_decomposition_matches_table(kind):
    got = perp_decomposition(build(kind))
    assert got == EXPECTED_PERP[kind.family](kind.rank)


def _not_perp(rs, perp) -> tuple[int, ...]:
    """The 1-based simple roots outside ``perp``, a tuple of 0-based indices."""
    return tuple(i + 1 for i in range(rs.rank) if i not in perp)


@pytest.mark.parametrize("kind", kinds(("a", "b", "c", "d", "bc"), MAX_RANK), ids=str)
def test_perp_simple_indices_equal_orthogonal_walls(kind):
    # The neighbours read off the kind are the simple roots off the walls
    # of the Gram product with the highest root, at every rank.
    rs = build(kind)
    assert highest_root_neighbours(kind) == _not_perp(rs, perp_simple_indices_by_gram(rs))


@pytest.mark.parametrize("kind", IN_CAP_KINDS, ids=str)
def test_perp_simple_indices_match_root_membership(kind):
    # The neighbours are the i with delta - a_i a root wherever the roots
    # can be listed; for a1, delta - a_1 = 0 and (a_1, delta) != 0.
    rs = build(kind)
    assert highest_root_neighbours(kind) == _not_perp(rs, perp_simple_indices_by_roots(rs))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_self_consistency_zero(kind):
    assert killing_self_consistency(build(kind)) == 0


def test_self_consistency_a1_value():
    # For a1 the rescaled sum is 2 * (1/2)^2 = 1/2 = (delta, delta).
    rs = build("a1")
    assert killing_delta_sq(rs) == F(1, 2)
    assert killing_self_consistency(rs) == 0


@pytest.mark.parametrize("kind", REDUCED_KINDS, ids=str)
def test_cartan_pairing_with_highest_root(kind):
    # 2(alpha, delta)/(delta, delta) in {0, +-1, +-2}, and +-2 only at +-delta.
    rs = build(kind)
    delta = rs.highest_root
    w = mul_vec(gram(rs), tuple(F(c) for c in delta))
    dd = sum(F(c) * wi for c, wi in zip(delta, w))
    for r in rs.roots:
        pairing = 2 * sum(F(c) * wi for c, wi in zip(r, w)) / dd
        assert pairing in (-2, -1, 0, 1, 2)
        if pairing in (2, -2):
            assert r == delta or r == tuple(-c for c in delta)


def test_killing_data_json():
    kd = killing_data(RootKind("f", 4))
    assert kd.total_roots == 48
    assert kd.perp_roots == 18
    assert kd.delta_sq == F(1, 9)
    assert kd.delta_sq == F(4, kd.total_roots - kd.perp_roots + 6)
    assert kd.perp_roots == sum(root_count(k) for k in kd.perp_subsystem)
    d = to_json_dict(kd)
    assert d["delta_sq"] == "1/9"
    assert d["perp_subsystem"] == ["c3"]


@pytest.mark.parametrize("kind", [k for k in IN_CAP_KINDS if k.is_reduced], ids=str)
def test_killing_data_matches_enumeration(kind):
    rs = build(kind)
    assert killing_data(kind) == killing_data_by_roots(rs)


@pytest.mark.parametrize("kind", ["a128", "b128", "c128", "d128"])
def test_killing_data_lists_no_roots(kind):
    rs = build(kind)
    kd = killing_data(rs.kind)
    assert "positive_roots" not in vars(rs)
    assert kd.delta_sq == delta_sq_closed_form(rs.kind.family, rs.kind.rank)
    assert kd.delta_sq == F(4, kd.total_roots - kd.perp_roots + 6)
    assert kd.perp_roots == sum(root_count(k) for k in kd.perp_subsystem)

