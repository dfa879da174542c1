import math

import pytest
from hypothesis import given, settings, strategies as st

from gl2tors.errors import PreconditionError, SingularMatrixError
from gl2tors.modarith import (
    Mat2,
    element_order,
    gl2_order,
    legendre,
    mat_inv,
    mat_mul,
    primitive_root,
    sqrt_mod,
)
from gl2tors.ntheory import isprime


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


@pytest.mark.parametrize("ell", [p for p in range(3, 32) if isprime(p)])
def test_sqrt_mod_is_least_root(ell):
    """sqrt_mod returns the least r in [0, ell) with r^2 = a, and None
    exactly for the non-residues."""
    for a in range(ell):
        r = sqrt_mod(a, ell)
        assert (r is None) == (legendre(a, ell) == -1)
        if r is not None:
            assert r * r % ell == a
            assert all(s * s % ell != a for s in range(r))
