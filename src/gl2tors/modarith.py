"""Exact arithmetic mod N and in F_ell, and 2x2 matrix primitives."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError, SingularMatrixError
from .ntheory import factorint, isprime


def _check_modulus(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"modulus must be an integer >= 2, got {n!r}")


def _check_odd_prime(ell: int) -> None:
    if ell % 2 == 0 or not isprime(ell):
        raise PreconditionError(f"expected an odd prime, got {ell}")


@lru_cache(maxsize=None)
def primitive_root(ell: int) -> int:
    """Smallest generator of the multiplicative group of F_ell."""
    _check_odd_prime(ell)
    order = ell - 1
    prime_divs = list(factorint(order))
    for cand in range(2, ell):
        if all(pow(cand, order // q, ell) != 1 for q in prime_divs):
            return cand
    raise AssertionError("no generator found; unreachable for prime modulus")


@lru_cache(maxsize=None)
def gl2_order(n: int) -> int:
    """Order of the group of invertible 2x2 matrices mod n."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"modulus must be a positive integer, got {n!r}")
    total = 1
    for q, e in factorint(n).items():
        # |GL2(Z/q^e)| = q^(4e) (1 - q^-2)(1 - q^-1)
        total *= (q * q - 1) * (q * q - q) * q ** (4 * e - 4)
    return total


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over Z/nZ with entries stored reduced in [0, n)."""

    n: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        _check_modulus(self.n)
        n = self.n
        object.__setattr__(self, "a", self.a % n)
        object.__setattr__(self, "b", self.b % n)
        object.__setattr__(self, "c", self.c % n)
        object.__setattr__(self, "d", self.d % n)

    @staticmethod
    def _reduced(n: int, a: int, b: int, c: int, d: int) -> "Mat2":
        """Trusted constructor for n >= 2 and entries already in [0, n).

        It skips __post_init__, so the caller must guarantee both; Mat2(...)
        is the validated constructor. Kept on the class, not as a module
        function, so that the hot mat_mul calls no other modarith entry point.
        """
        m = object.__new__(Mat2)
        set_ = object.__setattr__
        set_(m, "n", n)
        set_(m, "a", a)
        set_(m, "b", b)
        set_(m, "c", c)
        set_(m, "d", d)
        return m

    @staticmethod
    def identity(n: int) -> "Mat2":
        return Mat2(n, 1, 0, 0, 1)

    @staticmethod
    def diag(n: int, a: int, d: int) -> "Mat2":
        return Mat2(n, a, 0, 0, d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.n

    def trace(self) -> int:
        return (self.a + self.d) % self.n

    def is_invertible(self) -> bool:
        return math.gcd(self.det(), self.n) == 1

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def is_identity(self) -> bool:
        return self == Mat2.identity(self.n)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return mat_mul(self, other)

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            return mat_inv(self) ** (-k)
        result = Mat2.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = mat_mul(result, base)
            base = mat_mul(base, base)
            k >>= 1
        return result

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.n}"


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    if x.n != y.n:
        raise PreconditionError(f"modulus mismatch: {x.n} vs {y.n}")
    n = x.n
    return Mat2._reduced(
        n,
        (x.a * y.a + x.b * y.c) % n,
        (x.a * y.b + x.b * y.d) % n,
        (x.c * y.a + x.d * y.c) % n,
        (x.c * y.b + x.d * y.d) % n,
    )


def mat_inv(x: Mat2) -> Mat2:
    det = x.det()
    if math.gcd(det, x.n) != 1:
        raise SingularMatrixError(f"matrix {x} has non-unit determinant {det}")
    n = x.n
    dinv = pow(det, -1, n)
    return Mat2._reduced(n, x.d * dinv % n, -x.b * dinv % n, -x.c * dinv % n, x.a * dinv % n)


def element_order(x: Mat2) -> int:
    """Least k >= 1 with x^k = I; divides gl2_order(n)."""
    if not x.is_invertible():
        raise PreconditionError(f"matrix {x} is not invertible")
    ident = Mat2.identity(x.n)
    power = x
    k = 1
    cap = gl2_order(x.n)
    while power != ident:
        power = mat_mul(power, x)
        k += 1
        if k > cap:
            raise AssertionError("order exceeds group order; unreachable")
    return k


def unipotent(n: int) -> Mat2:
    """The shear (1 1; 0 1)."""
    return Mat2(n, 1, 1, 0, 1)


def unipotent_lower(n: int) -> Mat2:
    """The transposed shear (1 0; 1 1)."""
    return Mat2(n, 1, 0, 1, 1)


def legendre(a: int, ell: int) -> int:
    """Legendre symbol of a mod an odd prime: 1, -1, or 0."""
    a %= ell
    if a == 0:
        return 0
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


def sqrt_mod(a: int, ell: int) -> int | None:
    """The least square root of a mod an odd prime in [0, ell), or None if a
    is a non-residue.

    The least root is part of the contract: the Cartan conjugators in lemmas
    are built from it, so another root would change every witness.
    """
    a %= ell
    if a == 0:
        return 0
    if legendre(a, ell) != 1:
        return None
    # fine at desk scale; Tonelli-Shanks would only matter for large ell
    for r in range(1, ell):
        if r * r % ell == a:
            return r
    return None
