import random
from decimal import Decimal
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspace.linalg import (DimensionMismatch, NegativeFactor, PiSqrtValue,
                             clear_denominators, format_rational)
from symspace.roots import MAX_RANK, RootKind, build

from reference import (SingularMatrix, cleared, gauss_jordan_inverse, gram,
                       identity, int_inverse, inverse, matrix, mul_mat, mul_vec,
                       three_pass_clear_denominators)


_BIG = 10 ** 4299 + 7                  # 4,300 digits, the int-to-str limit


@pytest.mark.parametrize("xs", [
    (),
    (0,),
    (3, -5, 0),
    (True, False, 2),
    (F(1, 6), F(-2, 9), F(4)),
    ("1/3", "-0.25", "7"),
    (0.5, -0.125, 3.0),
    (Decimal("0.1"), Decimal("-2.50")),
    (1, F(2, 3), "5/4", 0.75, Decimal("1.2"), True),
    (F(_BIG, _BIG + 2), F(1, _BIG), -_BIG),
], ids=["empty", "zero", "int", "bool", "fraction", "str", "float", "decimal",
        "mixed", "4300-digit"])
def test_clear_denominators_matches_three_passes(xs):
    n, d = clear_denominators(xs)
    assert (n, d) == three_pass_clear_denominators(xs)
    assert all(type(v) is int for v in n) and type(d) is int
    # A one-shot iterable is read once.
    assert clear_denominators(iter(xs)) == (n, d)
    assert clear_denominators(x for x in xs) == (n, d)


def test_invert_scalar():
    assert inverse([[2]]) == ((F(1, 2),),)


def test_invert_identity():
    m = identity(4)
    assert inverse(m) == m


def test_invert_g2_gram():
    # (1/6)[[6,-3],[-3,2]] with (psi,psi)=1; vertex norms 1/d_j^2 * inv_jj
    # then give max 4/3.
    inv = inverse([[1, F(-1, 2)], [F(-1, 2), F(1, 3)]])
    assert inv == ((F(4), F(6)), (F(6), F(12)))
    assert max(inv[0][0] / 4, inv[1][1] / 9) == F(4, 3)


def test_singular_matrix():
    with pytest.raises(SingularMatrix):
        inverse([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        int_inverse([[0, 0], [0, 0]])


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        int_inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        mul_vec(identity(2), (1, 2, 3))


def _random_matrix(rng, n):
    return matrix([[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_invert_random_sizes(n):
    rng = random.Random(1000 + n)
    done = 0
    while done < 5:
        m = _random_matrix(rng, n)
        if gauss_jordan_inverse(m) is None:
            continue
        assert mul_mat(m, inverse(m)) == identity(n)
        done += 1


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_solve_consistent_with_invert(n, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, n)
    b = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
    if gauss_jordan_inverse(m) is None:
        return
    assert mul_vec(m, mul_vec(inverse(m), b)) == b


def _pivot_is_det(rows, det):
    """int_inverse's last pivot is +-det(N) for the cleared N = d * rows."""
    ints, d = cleared(rows)
    _, delta = int_inverse(ints)
    return abs(delta) == abs(det) * d ** len(rows)


def test_det_sign_with_pivoting():
    m = matrix([[0, 1], [1, 0]])
    assert _pivot_is_det(m, -1)
    assert inverse(m) == m


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["random", "zero-lead", "zero-mid", "swapped",
                                  "singular"]))
    if shape == "zero-lead":
        rows[0][0] = F(0)                 # row swap at the first pivot
    elif shape == "zero-mid" and n > 2 and rows[0][0]:
        # (row 1 - f * row 0) vanishes in column 1: row swap at the second pivot
        rows[1][1] = rows[0][1] * rows[1][0] / rows[0][0]
    elif shape == "swapped" and n > 1:
        rows[0], rows[1] = rows[1], rows[0]     # flips the sign of det
    elif shape == "singular":
        c = draw(rationals)
        rows[-1] = [c * x for x in rows[0]] if n > 1 else [F(0)]
    return rows


@given(square_matrices())
@settings(max_examples=400, deadline=None)
def test_invert_matches_gauss_jordan(rows):
    want = gauss_jordan_inverse(rows)
    if want is None:
        with pytest.raises(SingularMatrix):
            inverse(rows)
    else:
        assert inverse(rows) == want


@pytest.mark.parametrize("rows,det", [
    ([[0, 2], [3, 1]], -6),
    ([[0, 0, 1], [0, 2, 0], [F(1, 3), 0, 0]], F(-2, 3)),
    ([[1, 1, 0], [1, 1, F(1, 2)], [0, 1, 1]], F(-1, 2)),
])
def test_invert_row_swaps_negative_det(rows, det):
    assert _pivot_is_det(rows, det)
    assert inverse(rows) == gauss_jordan_inverse(rows)
    assert mul_mat(matrix(rows), inverse(rows)) == identity(len(rows))


@pytest.mark.parametrize("kind", [RootKind(fam, MAX_RANK)
                                  for fam in ("a", "b", "c", "d", "bc")]
                         + [RootKind("e", 8), RootKind("f", 4), RootKind("g", 2)],
                         ids=str)
def test_invert_gram_at_max_rank(kind):
    # M * M^{-1} == I, checked on the denominator-cleared integer forms.
    g = gram(build(kind))
    a, da = cleared(g)
    b, db = cleared(inverse(g))
    cols = list(zip(*b))
    n = len(a)
    assert [[sum(map(mul, r, c)) for c in cols] for r in a] == \
        [[da * db if i == j else 0 for j in range(n)] for i in range(n)]


def test_pi_sqrt_errors():
    with pytest.raises(NegativeFactor):
        PiSqrtValue(F(-1))


def test_pi_sqrt_order_total():
    vals = [PiSqrtValue(x) for x in (F(1, 3), 2, F(9, 4), 0, 2)]
    s = sorted(vals)
    assert s[0].radicand == 0 and s[-1].radicand == F(9, 4)
    assert PiSqrtValue(2) == PiSqrtValue(F(4, 2))
    assert PiSqrtValue(1) < PiSqrtValue(F(3, 2)) < PiSqrtValue(2)
    assert min(vals[:3]) == PiSqrtValue(F(1, 3))
    assert min([PiSqrtValue(F(9, 4)), PiSqrtValue(F(7, 4))]).radicand == F(7, 4)


def test_pi_sqrt_rendering():
    v = PiSqrtValue(4)
    assert v.exact_str() == "pi*sqrt(4)"
    assert v.decimal_str() == "6.28318530718"
    assert PiSqrtValue(F(1, 2)).exact_str() == "pi*sqrt(1/2)"
    assert PiSqrtValue(0).decimal_str() == "0"
    assert PiSqrtValue(1).decimal_str() == "3.14159265359"
    assert repr(PiSqrtValue(2)) == "PiSqrtValue(radicand=Fraction(2, 1))"


def test_format_rational():
    assert format_rational(F(3, 1)) == "3"
    assert format_rational(F(-4, 6)) == "-2/3"
