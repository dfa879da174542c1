"""Congruence sieve, torsion-growth prime bound, and the supporting lemmas."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError
from .ntheory import factorint, isprime, primerange
from .modarith import gl2_order
from .classify import MOD36_RESIDUES, mod36_filter

# largest sieve limit; congruence_sieve takes about 0.04 s there on one Xeon core
SIEVE_CAP = 10**6
# the sieve limit of a bound report's window of surviving primes
REPORT_SIEVE_LIMIT = 100


@dataclass(frozen=True)
class FieldInput:
    """Per-field arithmetic inputs: the uniform torsion constant, the isogeny
    bound, and the list of primes carrying a Type-2 isogeny character.

    These are inputs by design; none of them is effectively computable here.
    """

    label: str
    merel_constant: int
    lv14_bound: int
    pdi2_primes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.merel_constant < 1:
            raise PreconditionError("merel_constant must be >= 1")
        if self.lv14_bound < 1:
            raise PreconditionError("lv14_bound must be >= 1")
        object.__setattr__(self, "pdi2_primes", tuple(sorted(set(self.pdi2_primes))))
        for ell in self.pdi2_primes:
            if not isprime(ell):
                raise PreconditionError(f"pdi2 entry {ell} is not prime")
            if ell % 4 != 3:
                raise PreconditionError(f"pdi2 entry {ell} is not 3 mod 4")

    @staticmethod
    def from_json(payload: object) -> "FieldInput":
        """The field input a decoded JSON value describes; `cli._read_input` decodes the file."""
        try:
            merel, lv14 = payload["merel_constant"], payload["lv14_bound"]
            pdi2 = tuple(payload.get("pdi2_primes", []))
            label = str(payload["label"])
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed field input: {exc}") from exc
        # type(...) is int also turns away JSON true/false, which Python reads as ints
        if not all(type(v) is int for v in (merel, lv14, *pdi2)):
            raise PreconditionError(
                "malformed field input: merel_constant, lv14_bound and pdi2_primes "
                "must be integers"
            )
        return FieldInput(label, merel, lv14, pdi2)

    def to_json(self) -> str:
        return json.dumps(
            {
                "label": self.label,
                "merel_constant": self.merel_constant,
                "lv14_bound": self.lv14_bound,
                "pdi2_primes": list(self.pdi2_primes),
            },
            sort_keys=True,
        )


def congruence_sieve(limit: int) -> list[int]:
    """Primes up to limit in the surviving residue classes mod 36, ascending."""
    if limit < 2:
        raise PreconditionError("limit must be >= 2")
    if limit > SIEVE_CAP:
        raise ResourceLimitError(f"sieve limit {limit} is over the cap of {SIEVE_CAP}")
    # primerange yields primes only, so the residue test needs no primality check
    return [ell for ell in primerange(5, limit + 1) if ell % 36 in MOD36_RESIDUES]


def r_set(source: FieldInput | set[int] | frozenset[int] | list[int]) -> set[int]:
    """Prime divisors of ell - 1, over the listed primes passing the sieve."""
    primes = source.pdi2_primes if isinstance(source, FieldInput) else sorted(source)
    out: set[int] = set()
    for ell in primes:
        if not isprime(ell):
            raise PreconditionError(f"{ell} is not prime")
        if mod36_filter(ell):
            out |= set(factorint(ell - 1))
    return out


def p_bound(inp: FieldInput) -> int:
    """Largest prime among the sieve divisors and the divisors of M * N_K."""
    candidates = r_set(inp) | set(factorint(inp.merel_constant * inp.lv14_bound))
    if not candidates:
        raise PreconditionError("undefined bound: trivial constants and empty sieve set")
    return max(candidates)


@dataclass(frozen=True)
class CoprimalityReport:
    modulus: int
    group_order: int
    gcd: int


def smallprime_coprimality(d: int, p: int, m: int) -> CoprimalityReport:
    """Certificate that d is coprime to |GL2(Z/NZ)| with N = M * primorial(p)."""
    if d < 1 or m < 1 or not isprime(p):
        raise PreconditionError("need d >= 1, M >= 1, p prime")
    if p < 3:
        # at p = 2 the claim is false: the modulus-2 layer contributes a
        # factor of 3 to the group order (gcd(3, |GL2(Z/2)|) = 3)
        raise PreconditionError("need p >= 3")
    if d > 1 and min(factorint(d)) <= p:
        raise PreconditionError(f"minimal prime divisor of {d} does not exceed {p}")
    if m > 1 and max(factorint(m)) > p:
        raise PreconditionError(f"{m} has a prime divisor exceeding {p}")
    n = m * math.prod(primerange(2, p + 1))
    order = gl2_order(n)
    g = math.gcd(d, order)
    if g != 1:
        # impossible under the preconditions: every prime divisor of the
        # group order is at most p
        raise LemmaViolationError(
            f"gcd({d}, |GL2(Z/{n})|) = {g}; order formula falsified"
        )
    return CoprimalityReport(n, order, g)


# ---------------------------------------------------------------------------
# abelian group lemma: torsion at a prime is determined at a finite level


@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group as a direct sum of cyclic groups.

    Elements are coordinate tuples, one entry per cyclic factor.
    """

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.cyclic_orders):
            raise PreconditionError("cyclic orders must be >= 1")

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    def add(self, v: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(v, w, self.cyclic_orders))

    def scale(self, k: int, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(k * x % n for x, n in zip(v, self.cyclic_orders))

    def torsion(self, q: int) -> frozenset[tuple[int, ...]]:
        """The subgroup of elements killed by q, as an explicit set."""
        ranges = []
        for n in self.cyclic_orders:
            g = math.gcd(n, q)
            step = n // g
            ranges.append(tuple(step * k % n for k in range(g)))
        return frozenset(product(*ranges))

    def primary_exponent(self, ell: int) -> int:
        """ell^v where v is the largest power of ell dividing the exponent."""
        e = 1
        for n in self.cyclic_orders:
            while n % (e * ell) == 0:
                e *= ell
        return e


@dataclass(frozen=True)
class Embedding:
    """A homomorphism given by the images of the source's cyclic generators."""

    src: AbelianGroupSpec
    dst: AbelianGroupSpec
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.images) != len(self.src.cyclic_orders):
            raise PreconditionError("one image per cyclic generator is required")
        for n, img in zip(self.src.cyclic_orders, self.images):
            if len(img) != len(self.dst.cyclic_orders):
                raise PreconditionError("image has the wrong number of coordinates")
            if self.dst.scale(n, img) != self.dst.zero():
                raise PreconditionError(
                    f"image {img} of an order-{n} generator is not killed by {n}"
                )

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        out = self.dst.zero()
        for k, img in zip(v, self.images):
            out = self.dst.add(out, self.dst.scale(k, img))
        return out

    def is_injective(self) -> bool:
        """Kernel triviality, tested on prime torsion.

        A nontrivial kernel contains an element of prime order, so it is
        enough that the restriction to each p-torsion layer (an F_p vector
        space of dimension at most the factor count) has full rank.
        """
        size = len(self.src.cyclic_orders)
        primes = set()
        for n in self.src.cyclic_orders:
            if n > 1:
                primes |= set(factorint(n))
        for p in primes:
            basis = [
                self.apply(tuple(n // p if j == i else 0 for j in range(size)))
                for i, n in enumerate(self.src.cyclic_orders)
                if n % p == 0
            ]
            if not _independent_mod_p(basis, self.dst, p):
                return False
        return True


def _independent_mod_p(vectors, dst: AbelianGroupSpec, p: int) -> bool:
    """Whether p-torsion elements of dst are independent over F_p, by span size."""
    span = {dst.zero()}
    for v in vectors:
        if v == dst.zero():
            return False
        new = set(span)
        for k in range(1, p):
            kv = dst.scale(k, v)
            new |= {dst.add(kv, w) for w in span}
        if len(new) != len(span) * p:
            return False
        span = new
    return True


class LPartVerdict(Enum):
    HYPOTHESIS_FAILS = "HypothesisFails"
    CONCLUSION_VERIFIED = "ConclusionVerified"


def l_part_check(
    a: AbelianGroupSpec,
    b: AbelianGroupSpec,
    embedding: Embedding,
    ell: int,
    n: int,
    n_prime: int,
) -> LPartVerdict:
    """Check that equality of torsion at level ell^n' forces equality of the
    whole ell-primary part, elementwise."""
    if not isprime(ell):
        raise PreconditionError(f"{ell} is not prime")
    if n < 0 or n_prime <= n:
        raise PreconditionError("need 0 <= n < n'")
    if embedding.src is not a or embedding.dst is not b:
        if embedding.src != a or embedding.dst != b:
            raise PreconditionError("embedding does not connect the given groups")
    if not embedding.is_injective():
        raise PreconditionError("embedding is not injective")
    image_np = frozenset(embedding.apply(v) for v in a.torsion(ell**n_prime))
    image_n = frozenset(embedding.apply(v) for v in a.torsion(ell**n))
    if b.torsion(ell**n_prime) != image_np or image_np != image_n:
        return LPartVerdict.HYPOTHESIS_FAILS
    q = max(a.primary_exponent(ell), b.primary_exponent(ell))
    image_full = frozenset(embedding.apply(v) for v in a.torsion(q))
    if b.torsion(q) != image_full:
        raise LemmaViolationError(
            "ell-primary parts differ despite matching finite-level torsion"
        )
    return LPartVerdict.CONCLUSION_VERIFIED


# ---------------------------------------------------------------------------
# assembled reports


@dataclass(frozen=True)
class BoundReport:
    label: str
    r_set: frozenset[int]
    p_k: int
    sieve_window: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "r_set": sorted(self.r_set),
            "p_k": self.p_k,
            "sieve_window": list(self.sieve_window),
        }


def bound_report(inp: FieldInput) -> BoundReport:
    return BoundReport(
        label=inp.label,
        r_set=frozenset(r_set(inp)),
        p_k=p_bound(inp),
        sieve_window=tuple(congruence_sieve(REPORT_SIEVE_LIMIT)),
    )


@dataclass(frozen=True)
class PreservationReport:
    p_k: int
    degree: int
    min_prime_divisor: int | None
    preserved: bool
    small_prime_certificate: CoprimalityReport | None
    large_prime_notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "p_k": self.p_k,
            "degree": self.degree,
            "min_prime_divisor": self.min_prime_divisor,
            "preserved": self.preserved,
            "small_prime_certificate": (
                None
                if self.small_prime_certificate is None
                else {
                    "modulus": self.small_prime_certificate.modulus,
                    "group_order": self.small_prime_certificate.group_order,
                    "gcd": self.small_prime_certificate.gcd,
                }
            ),
            "large_prime_notes": list(self.large_prime_notes),
        }


def torsion_preservation_report(inp: FieldInput, d: int) -> PreservationReport:
    """Bookkeeping for an extension of degree d: whether the prime bound
    certifies that torsion cannot grow, with the per-prime evidence."""
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    p_k = p_bound(inp)
    min_div = min(factorint(d)) if d > 1 else None
    preserved = d == 1 or min_div > p_k
    cert = None
    notes = []
    if preserved:
        m_small = math.prod(
            q**e for q, e in factorint(inp.merel_constant).items() if q <= p_k
        )
        cert = smallprime_coprimality(d, p_k, m_small)
        notes.append(
            f"primes <= {p_k}: degree {d} coprime to |GL2(Z/{cert.modulus})|"
        )
        for ell in inp.pdi2_primes:
            divisors = sorted(factorint(ell - 1))
            notes.append(
                f"prime {ell}: mod36 pass = {mod36_filter(ell)}, "
                f"divisors of {ell - 1}: {divisors}"
            )
        notes.append(f"primes > {p_k}: no rational isogeny datum; trivial torsion cited")
    return PreservationReport(
        p_k=p_k,
        degree=d,
        min_prime_divisor=min_div,
        preserved=preserved,
        small_prime_certificate=cert,
        large_prime_notes=tuple(notes),
    )
