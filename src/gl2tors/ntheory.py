"""Primality, factorization and prime ranges on the stdlib alone.

The bounds need only small exact arithmetic: primality of ell, the prime
divisors of ell - 1, of M * N_K and of the degree, and the primes below a
sieve limit. `isprime` is exact for every integer: deterministic
Miller-Rabin on the first twelve prime bases below 318665857834031151167461
(Sorenson and Webster, Math. Comp. 2017), and BPSW above it (Baillie and
Wagstaff, Math. Comp. 1980), which no known composite passes. `factorint`
runs Pollard-Brent rho under the stated cap `FACTOR_CAP`.
"""
from __future__ import annotations

import math
import operator
from itertools import compress

from .errors import ResourceLimitError

# rho iterations one factorint call may spend. Every n < 2**64 left
# composite after trial division has a prime factor p below 2**32, which rho
# finds in about sqrt(p) ~ 10**5 iterations. The cap lets Brent's search
# reach its window of 2**19, which finds any walk mod p that repeats within
# 2**20 steps; a walk runs longer with probability about
# exp(-2**40 / (2 * p)) < exp(-128).
FACTOR_CAP = 2**21

# primerange sieves at most this many integers (bounds.SIEVE_CAP + 1)
_RANGE_CAP = 10**6 + 1
_TABLE_LIMIT = 2**16
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# least strong pseudoprime to all of _MR_BASES
_MR_EXACT_BELOW = 318665857834031151167461
_RHO_BATCH = 128


def _sieve(limit: int) -> bytearray:
    """flags[i] == 1 exactly when the integer i < limit is prime, for limit >= 2."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags


_TABLE = _sieve(_TABLE_LIMIT)
_TABLE_PRIMES = tuple(compress(range(_TABLE_LIMIT), _TABLE))


def isprime(n) -> bool:
    """Whether the integer n is a prime."""
    n = operator.index(n)
    if n < _TABLE_LIMIT:
        return n >= 2 and bool(_TABLE[n])
    for p in _MR_BASES:
        if n % p == 0:
            return False
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n), for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 37 with no
    prime factor up to 37."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D below has (D / n) = -1
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0:
            return False  # 1 < gcd(|d|, n) < n, as n > |d| here
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # U_k, V_k and Q^k mod n, left to right over the bits of k
    u, v, qk = 0, 2, 1
    for bit in bin(k)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            u = (u + n if u & 1 else u) // 2
            v = (v + n if v & 1 else v) // 2
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def factorint(n) -> dict[int, int]:
    """The prime factorization {prime: exponent} of n >= 1, keyed in
    ascending prime order.

    Trial division by the primes below 2**16, then, for each composite
    cofactor, a perfect-power check and Pollard-Brent rho. Raises
    ResourceLimitError when rho would pass FACTOR_CAP iterations.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in _TABLE_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n > 1:
        _factor_large(n, factors)
    return dict(sorted(factors.items()))


def _factor_large(n: int, factors: dict[int, int]) -> None:
    """Add to factors the factorization of n > 1, whose prime factors all
    exceed 2**16."""
    budget = FACTOR_CAP
    pending = [(n, 1)]
    while pending:
        m, mult = pending.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + mult
            continue
        root, k = _perfect_power(m)
        if k > 1:
            pending.append((root, mult * k))
            continue
        c = 1
        while True:
            g, used = _brent(m, c, budget)
            budget -= used
            if g != m:
                break
            c += 1
        pending += [(g, mult), (m // g, mult)]


def _iroot(m: int, k: int) -> int:
    """The largest r with r**k <= m, for m >= 1."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m and k as large as possible; m's prime factors
    exceed 2**16, so k < m.bit_length() / 16."""
    for k in range(m.bit_length() // 16, 1, -1):
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _brent(n: int, c: int, budget: int) -> tuple[int, int]:
    """Brent's cycle search on x -> x*x + c mod n, for composite n that is no
    perfect power: a divisor g > 1 of n (g == n when this c fails) and the
    iterations spent. Raises ResourceLimitError rather than pass budget."""
    used = 0
    y, q, g, r = 2, 1, 1, 1
    while g == 1:
        if used + 2 * r > budget:
            raise ResourceLimitError(
                f"factoring {n} needs more than {FACTOR_CAP} rho iterations"
            )
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += _RHO_BATCH
        used += r + min(k, r)
        r *= 2
    if g == n:
        # the batch overshot: step again one iteration at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g, used


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, ascending, from one sieve of b integers.

    Raises ResourceLimitError for b over 10**6 + 1."""
    if b > _RANGE_CAP:
        raise ResourceLimitError(f"prime range end {b} is over the cap of {_RANGE_CAP}")
    a = max(a, 2)
    if a >= b:
        return []
    return list(compress(range(a, b), _sieve(b)[a:b]))
