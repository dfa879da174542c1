"""Independent 2x2 matrix arithmetic mod ell on plain (a, b, c, d) tuples.

The benchmark generates inputs and checks replies with this module instead of
gl2tors, so a defect in the program cannot hide itself in its own check.
"""
from __future__ import annotations

import random

Mat = tuple[int, int, int, int]


def mul(x: Mat, y: Mat, n: int) -> Mat:
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


def det(x: Mat, n: int) -> int:
    return (x[0] * x[3] - x[1] * x[2]) % n


def is_invertible(x: Mat, n: int) -> bool:
    return _gcd(det(x, n), n) == 1


def inv(x: Mat, n: int) -> Mat:
    dinv = pow(det(x, n), -1, n)
    return (x[3] * dinv % n, -x[1] * dinv % n, -x[2] * dinv % n, x[0] * dinv % n)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


IDENTITY: Mat = (1, 0, 0, 1)


def mul_order(x: Mat, n: int) -> int:
    """Least k >= 1 with x^k = I, by repeated multiplication."""
    y, k = x, 1
    while y != IDENTITY:
        y = mul(y, x, n)
        k += 1
    return k


def random_invertible(rng: random.Random, n: int) -> Mat:
    while True:
        x = tuple(rng.randrange(n) for _ in range(4))
        if is_invertible(x, n):
            return x


def factor(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; inputs here stay below 10^7."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_upto(m: int) -> list[int]:
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(m**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, m + 1, q)))
    return [q for q in range(m + 1) if sieve[q]]


def primitive_root(ell: int) -> int:
    """Smallest generator of F_ell^*."""
    qs = list(factor(ell - 1))
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // q, ell) != 1 for q in qs):
            return g
    raise ValueError(f"{ell} has no primitive root")


def gl2_order(n: int) -> int:
    """|GL2(Z/nZ)| from the product formula over prime powers."""
    total = 1
    for q, e in factor(n).items():
        total *= q ** (4 * e - 4) * (q * q - 1) * (q * q - q)
    return total


def closure(gens: list[Mat], n: int) -> set[Mat]:
    """The subgroup generated by invertible matrices, by breadth-first search."""
    elems = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g, n)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def orbit_sizes(gens: list[Mat], ell: int) -> dict[tuple[int, int], int]:
    """Size of the orbit of each nonzero row vector under right multiplication.

    By orbit-stabilizer this is the index of the vector's stabilizer.
    """
    sizes: dict[tuple[int, int], int] = {}
    for c in range(ell):
        for d in range(ell):
            if (c, d) == (0, 0) or (c, d) in sizes:
                continue
            orbit = {(c, d)}
            frontier = [(c, d)]
            while frontier:
                nxt = []
                for u, v in frontier:
                    for a, b, cc, dd in gens:
                        w = ((u * a + v * cc) % ell, (u * b + v * dd) % ell)
                        if w not in orbit:
                            orbit.add(w)
                            nxt.append(w)
                frontier = nxt
            for w in orbit:
                sizes[w] = len(orbit)
    return sizes


def cyclic_span_size(values: list[int], ell: int) -> int:
    """Order of the subgroup of F_ell^* generated by the given units."""
    span = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for v in values:
                y = x * v % ell
                if y not in span:
                    span.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(span)
