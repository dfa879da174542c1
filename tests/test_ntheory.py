"""The stdlib primality, factorization and prime-range routines, checked
against sympy as the reference."""
import math
from collections import Counter

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gl2tors.cli import main
from gl2tors.errors import ResourceLimitError
from gl2tors.ntheory import FACTOR_CAP, factorint, isprime, primerange

# Carmichael numbers: Fermat pseudoprimes to every base prime to them
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,
)
STRONG_PSEUDOPRIMES = (
    3825123056546413051,  # to every prime base up to 23
    318665857834031151167461,  # to every prime base up to 37
    3317044064679887385961981,  # to every prime base up to 41
    2**79 - 1,  # composite Mersenne numbers of prime exponent: to base 2
    2**83 - 1,
)
MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)
# a prime near 10**15, whose square and cube rho alone would not split
# within FACTOR_CAP
P15 = sympy.nextprime(10**15)
# two primes near 10**18: their product has no factor rho finds within the cap
P18, Q18 = 1000000000000000003, 2000000000000000057


def _factorint_reference(n):
    return dict(sorted(sympy.factorint(n).items()))


def _assert_factorint(n):
    got = factorint(n)
    assert got == _factorint_reference(n)
    assert list(got) == sorted(got)


def test_isprime_exhaustive_below_1e5():
    assert [isprime(n) for n in range(-5, 10**5)] == [
        sympy.isprime(n) for n in range(-5, 10**5)
    ]


def test_factorint_exhaustive_below_1e5():
    for n in range(1, 10**5):
        _assert_factorint(n)


def test_factorint_rejects_non_positive():
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorint(n)


def test_primerange_below_1e5():
    assert primerange(-3, 10**5) == list(sympy.primerange(-3, 10**5))
    for b in range(-2, 300):
        for a in range(-2, b + 2):
            assert primerange(a, b) == list(sympy.primerange(a, b))


@settings(max_examples=50, deadline=None)
@given(st.integers(-10, 10**6 + 1), st.integers(0, 10**4))
def test_primerange_windows_up_to_cap(a, width):
    b = min(a + width, 10**6 + 1)
    assert primerange(a, b) == list(sympy.primerange(a, b))


def test_primerange_past_cap_raises():
    assert primerange(999900, 10**6 + 1)[-1] == 999983
    with pytest.raises(ResourceLimitError):
        primerange(2, 10**6 + 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_isprime_below_2_64(n):
    assert isprime(n) == sympy.isprime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**40))
def test_isprime_below_1e40(n):
    assert isprime(n) == sympy.isprime(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(2**16, 10**40), st.integers(2**16, 10**20))
def test_isprime_primes_and_semiprimes(m, k):
    p, q = sympy.nextprime(m), sympy.nextprime(k)
    assert isprime(p) and isprime(q)
    assert not isprime(p * q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**64 - 1))
def test_factorint_below_2_64(n):
    _assert_factorint(n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(list(sympy.primerange(2, 2**16))), max_size=8),
    st.integers(2**16, 10**30),
)
# sympy.factorint ran for minutes in ECM on this product, which gl2tors
# factors in about 1 ms; the factors are known by construction, so they
# are the reference here
@example([63901, 60317, 64747, 60923, 64577, 63031, 61297, 63761], 561359070871757232070163684820)
def test_factorint_table_primes_times_a_large_prime(small, m):
    big = sympy.nextprime(m)
    expected = dict(Counter(small))
    expected[big] = 1
    got = factorint(big * math.prod(small))
    assert got == expected
    assert list(got) == sorted(got)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_factorint_semiprimes_near_2_32(i, j):
    p, q = sympy.prevprime(2**32 - i), sympy.prevprime(2**32 - j)
    expected = {p: 2} if p == q else {min(p, q): 1, max(p, q): 1}
    assert factorint(p * q) == expected
    assert list(factorint(p * q)) == sorted(expected)


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert not isprime(n)
    _assert_factorint(n)


def test_mersenne_primes():
    for n in MERSENNE_PRIMES:
        assert isprime(n)
        assert factorint(n) == {n: 1}


def test_perfect_powers_of_a_large_prime():
    assert sympy.isprime(P15)
    assert factorint(P15**2) == {P15: 2}
    assert factorint(P15**3) == {P15: 3}
    assert factorint(12 * P15**2) == {2: 2, 3: 1, P15: 2}


def test_factorint_past_cap_raises_and_order_exits_2(capsys):
    assert sympy.isprime(P18) and sympy.isprime(Q18)
    n = P18 * Q18
    message = f"factoring {n} needs more than {FACTOR_CAP} rho iterations"
    with pytest.raises(ResourceLimitError, match=message):
        factorint(n)
    assert main(["order", "--modulus", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
