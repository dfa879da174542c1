import math

import pytest
from hypothesis import given, settings, strategies as st

from gl2tors.errors import PreconditionError, SingularMatrixError
from gl2tors.modarith import (
    EigenKind,
    Mat2,
    QuadExtElem,
    eigenvalues,
    element_order,
    gl2_order,
    legendre,
    mat_inv,
    mat_mul,
    primitive_root,
    sqrt_mod,
    unipotent,
)


def test_primitive_root_smallest():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2


def test_primitive_root_generates():
    for ell in (5, 7, 11, 13, 23):
        alpha = primitive_root(ell)
        assert {pow(alpha, k, ell) for k in range(ell - 1)} == set(range(1, ell))


def test_primitive_root_rejects_composite():
    with pytest.raises(PreconditionError):
        primitive_root(9)


def test_gl2_order_values():
    assert gl2_order(1) == 1
    assert gl2_order(5) == 480
    assert gl2_order(6) == 288


def _brute_gl2_order(n):
    return sum(
        1
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for d in range(n)
        if math.gcd((a * d - b * c) % n, n) == 1
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_gl2_order_matches_brute_force(n):
    assert gl2_order(n) == _brute_gl2_order(n)


def test_gl2_order_multiplicative_on_coprime():
    for m in range(1, 13):
        for n in range(1, 13):
            if math.gcd(m, n) == 1 and m * n <= 12:
                assert gl2_order(m * n) == gl2_order(m) * gl2_order(n)


def test_mat2_reduces_entries():
    x = Mat2(5, 7, -1, 10, 3)
    assert x.entries() == (2, 4, 0, 3)


def test_mat_inv_round_trip():
    x = Mat2(11, 3, 1, 4, 2)
    assert (x @ mat_inv(x)).is_identity()
    assert (mat_inv(x) @ x).is_identity()


def test_mat_inv_singular():
    with pytest.raises(SingularMatrixError):
        mat_inv(Mat2(5, 1, 2, 2, 4))


def test_pow_negative_and_order():
    x = Mat2(7, 2, 1, 0, 4)
    k = element_order(x)
    assert (x**k).is_identity()
    assert x**-1 == mat_inv(x)
    assert x ** (k - 1) == mat_inv(x)


def _validated_product(n, x, y):
    (a, b, c, d), (p, q, r, s) = x, y
    return Mat2(n, a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def _assert_same_as_validated(m, want):
    assert all(0 <= v < m.n for v in m.entries())
    assert m == want and hash(m) == hash(want)


_raw_entries = st.tuples(*[st.integers(-30, 30)] * 4)


@settings(max_examples=300)
@given(st.sampled_from([4, 5, 6, 7, 9, 11, 12]), _raw_entries, _raw_entries, st.integers(-6, 12))
def test_products_inverses_powers_equal_validated(n, raw_x, raw_y, k):
    """mat_mul, mat_inv and ** build through the trusted constructor; each
    result must equal Mat2 built from the unreduced, possibly negative,
    entries the same formula gives."""
    x, y = Mat2(n, *raw_x), Mat2(n, *raw_y)
    _assert_same_as_validated(mat_mul(x, y), _validated_product(n, raw_x, raw_y))
    if not x.is_invertible():
        k = abs(k)
        base = raw_x
    else:
        a, b, c, d = raw_x
        dinv = pow(a * d - b * c, -1, n)
        inv = Mat2(n, d * dinv, -b * dinv, -c * dinv, a * dinv)
        _assert_same_as_validated(mat_inv(x), inv)
        base = raw_x if k >= 0 else inv.entries()
    want = Mat2.identity(n)
    for _ in range(abs(k)):
        want = _validated_product(n, want.entries(), base)
    _assert_same_as_validated(x**k, want)


def test_element_order_divides_group_order():
    for ell in (5, 7):
        for a in range(ell):
            for b in range(ell):
                x = Mat2(ell, a, b, 1, 1)
                if x.is_invertible():
                    assert gl2_order(ell) % element_order(x) == 0


def test_det_is_multiplicative():
    x = Mat2(13, 2, 5, 1, 7)
    y = Mat2(13, 0, 3, 4, 6)
    assert (x @ y).det() == x.det() * y.det() % 13


def test_legendre_and_sqrt():
    assert legendre(4, 5) == 1
    assert legendre(2, 5) == -1
    assert legendre(0, 7) == 0
    r = sqrt_mod(2, 7)
    assert r is not None and r * r % 7 == 2
    assert sqrt_mod(3, 7) is None


@given(st.sampled_from([5, 7, 11]), st.integers(0, 10), st.integers(0, 10))
def test_quadext_inverse(ell, re, im):
    x = QuadExtElem(ell, re, im)
    if x.is_zero():
        return
    one = QuadExtElem(ell, 1, 0)
    assert x * x.inverse() == one


@given(
    st.sampled_from([5, 7, 11]),
    st.tuples(st.integers(0, 10), st.integers(0, 10)),
    st.tuples(st.integers(0, 10), st.integers(0, 10)),
)
def test_quadext_norm_multiplicative(ell, xs, ys):
    x = QuadExtElem(ell, *xs)
    y = QuadExtElem(ell, *ys)
    assert (x * y).norm() == x.norm() * y.norm() % ell


def test_quadext_conjugate_product_is_norm():
    x = QuadExtElem(11, 3, 5)
    prod = x * x.conjugate()
    assert prod.is_rational() and prod.re == x.norm()


def test_eigenvalues_nonsplit_case():
    res = eigenvalues(Mat2(5, 0, 2, 1, 0))
    assert res.kind is EigenKind.IRRATIONAL_CONJUGATE_PAIR
    lam = res.values[0]
    # both roots of x^2 = 2 over F_5
    assert (lam * lam).re == 2 and (lam * lam).im == 0


def test_eigenvalues_split_case():
    res = eigenvalues(Mat2(5, 0, 1, 4, 0))
    assert res.kind is EigenKind.RATIONAL_DISTINCT
    assert set(res.values) == {2, 3}


def test_eigenvalues_repeated_case():
    res = eigenvalues(unipotent(7))
    assert res.kind is EigenKind.RATIONAL_REPEATED
    assert res.values == (1, 1)


def test_eigenvalue_char_poly_consistency():
    for a in range(7):
        for b in range(7):
            x = Mat2(7, a, b, 2, 3)
            if not x.is_invertible():
                continue
            res = eigenvalues(x)
            if res.kind is EigenKind.IRRATIONAL_CONJUGATE_PAIR:
                lam = res.values[0]
                assert (lam + lam.conjugate()).re == x.trace()
                assert (lam * lam.conjugate()).re == x.det()
            else:
                v1, v2 = res.values
                assert (v1 + v2) % 7 == x.trace()
                assert v1 * v2 % 7 == x.det()
