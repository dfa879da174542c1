"""Finite subgroups of GL2(Z/NZ): closure, named subgroups, diagonal images."""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .modarith import (
    Mat2,
    _check_modulus,
    _check_odd_prime,
    gl2_order,
    mat_mul,  # not called here; bench/tests/test_bench.py reads groups.mat_mul
    primitive_root,
)

DEFAULT_CLOSURE_CAP = 10**7
# the block size from which closure multiplies in numpy. At ell = 47 a right
# product of k entries costs about 0.18k us on tuples (0.20k with the member
# set) and 2 + 0.018k us as one numpy product whose entries stay in the array,
# and a lookup on row codes costs 3-4 us against 0.05 us in a set, so a coset
# with its lookups pays in numpy from about 55 entries. A block of 64 made the
# closures faster (the seed-1 verb pool's order-168 NonsplitCartan(13) groups
# 55 -> 46 us) but the ell = 11 and 13 verbs 1-2% slower, since classify reads
# those groups' tuples back, so 128 stays.
_ARRAY_BLOCK = 128
# nonzero row vectors an exhaustive spectrum may list (ell^2 - 1); ell <= 313
EXHAUSTIVE_SPECTRUM_CAP = 10**5


class Subgroup:
    """A subgroup of GL2(Z/nZ) held as reduced (a, b, c, d) entry tuples:
    its generators' (`generator_entries`), and its elements' as tuples
    (`entries`) or as the read-only 4 x |G| int64 array with rows a, b, c, d
    (`entry_array`) that `closure` hands over once it has moved to numpy
    blocks. The other form of the elements is built on first read, the
    tuples in the array's column order.

    `Subgroup(n, generators, entries)` is the one constructor, and it is
    trusted: it checks nothing, so the caller guarantees that the generator
    and element entries are reduced into [0, n), the elements distinct and
    closed under multiplication, and the generators generate them. With
    generators None, as `subgroup_from_entries` wraps a filtered subset and
    `verify._MulTable.to_subgroup` an enumerated one, every element in entry
    order is a generator: `generator_entries` is then the entry tuples
    themselves. The entries are in the order `closure` lists them, or
    ascending for such a wrapped group; the one order that library code
    reads is that of a one-generator closure, x^0, x^1, ..., x^(m-1).
    The order is counted when the group is made; the determinant image and
    the spectra read the entry array. Membership, containment (`<=`),
    equality and hashing read the tuples; the last three use only (n, the
    entry set), so one group with two generating sets compares equal.
    The two `Mat2` views, `generators` and the element set `elements`, are
    built on first read; no library code reads `elements`.
    """

    n: int
    order: int

    def __init__(
        self,
        n: int,
        generators: Iterable[tuple[int, int, int, int]] | None,
        entries: Iterable[tuple[int, int, int, int]] | np.ndarray,
    ):
        if isinstance(entries, np.ndarray):
            entries.flags.writeable = False
            vars(self).update(n=n, order=entries.shape[1], entry_array=entries)
        else:
            entries = tuple(entries)
            vars(self).update(n=n, order=len(entries), entries=entries)
        if generators is not None:
            vars(self).update(generator_entries=tuple(generators))

    def __setattr__(self, name, value):
        raise AttributeError(f"Subgroup is immutable; cannot set {name}")

    @cached_property
    def generator_entries(self) -> tuple[tuple[int, int, int, int], ...]:
        """The generators' reduced entries; for a group made with generators
        None, its entry tuples."""
        return self.entries

    @cached_property
    def generators(self) -> tuple[Mat2, ...]:
        """The generators as Mat2, a view of `generator_entries`."""
        trusted, n = Mat2._reduced, self.n
        return tuple(trusted(n, a, b, c, d) for a, b, c, d in self.generator_entries)

    @cached_property
    def elements(self) -> frozenset[Mat2]:
        # nothing reads the order in which the element set iterates
        trusted, n = Mat2._reduced, self.n
        return frozenset(trusted(n, a, b, c, d) for a, b, c, d in self.entries)

    @cached_property
    def entries(self) -> tuple[tuple[int, int, int, int], ...]:
        """The entry tuples, read back from the entry array that closure handed over."""
        return tuple(zip(*self.entry_array.tolist()))

    @cached_property
    def _entry_set(self) -> frozenset[tuple[int, int, int, int]]:
        return frozenset(self.entries)

    @cached_property
    def entry_array(self) -> np.ndarray:
        """The entries as a read-only 4 x |G| int64 array with rows a, b, c, d."""
        # row actions sum two products below n^2, which int64 holds for n < 2^31
        if self.n >= 2**31:
            raise ResourceLimitError(f"modulus {self.n} is too large for int64 entries")
        array = _as_array(self.entries)
        array.flags.writeable = False
        return array

    def __contains__(self, x: Mat2) -> bool:
        return isinstance(x, Mat2) and x.n == self.n and x.entries() in self._entry_set

    def __le__(self, other):
        """Whether this group is a subgroup of the other, of the same modulus."""
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.n == other.n and self._entry_set <= other._entry_set

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.n == other.n and self._entry_set == other._entry_set

    def __hash__(self):
        return hash((self.n, self._entry_set))

    def __repr__(self):
        return f"Subgroup(n={self.n}, order={self.order}, generators={self.generators})"

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which makes the group abelian."""
        n, gens = self.n, self.generator_entries
        for i, (a, b, c, d) in enumerate(gens):
            for p, q, r, s in gens[i + 1 :]:
                # x y - y x = (br - qc, q(a-d) - b(p-s); r(a-d) - c(p-s), qc - br)
                ad, ps = a - d, p - s
                if (b * r - q * c) % n or (q * ad - b * ps) % n or (r * ad - c * ps) % n:
                    return False
        return True

    def det_image(self) -> frozenset[int]:
        a, b, c, d = self.entry_array
        return frozenset(np.flatnonzero(np.bincount((a * d - b * c) % self.n)).tolist())


def _as_array(entries: Sequence[tuple[int, int, int, int]]) -> np.ndarray:
    """The 4 x k int64 array with rows a, b, c, d of k entry tuples."""
    flat = itertools.chain.from_iterable(entries)
    return np.fromiter(flat, np.int64, 4 * len(entries)).reshape(-1, 4).T


def closure(
    n: int, generators: Iterable[tuple[int, int, int, int]], cap: int = DEFAULT_CLOSURE_CAP
) -> Subgroup:
    """Smallest subgroup of GL2(Z/nZ) containing the generators, given as
    (a, b, c, d) entry tuples.

    The modulus is checked first; each generator is then reduced mod n, and
    one whose determinant is not a unit raises PreconditionError. The group
    keeps the reduced generators as its `generator_entries`.

    Dimino's method on reduced (a, b, c, d) entries mod n, which computes each
    element once. A generator that is the identity or already in the group
    built so far is skipped. The first one kept, x of order m, lists
    x^0, x^1, ..., x^(m-1) in that order. Each later one, g, extends the
    group H built so far by whole right cosets: first H g, then H (r s) for
    each coset representative r in turn and each kept generator s whose
    product r s is not yet in the group. So the entries are the identity,
    the powers of x, then consecutive right cosets of the group before them.
    No Mat2 is built, and no more than `cap` entries are ever held.

    The block size picks the arithmetic, never the order. The group is held
    as tuples, with a set of them for the lookups of r s, until n < 2^31
    (where int64 products of entries stay exact) and a block of at least
    `_ARRAY_BLOCK` entries is due: once L powers of x are listed, the next
    ones are (x^0 .. x^(j-1)) x^L, where j is the place of x^-L among the
    listed powers, or L if it is not there, and a right coset H y with
    |H| >= `_ARRAY_BLOCK` is one 4 x |H| product. From then on the group is
    held as int64 blocks alone (`_Blocks`), with no tuple and no member set,
    and the group gets their concatenation as its entry array; its tuples
    are built only if something reads them. Smaller blocks and larger moduli
    stay on tuples, the reference that tests compare the blocks against.
    """
    _check_modulus(n)
    gens = tuple((a % n, b % n, c % n, d % n) for a, b, c, d in generators)
    for a, b, c, d in gens:
        if math.gcd(a * d - b * c, n) != 1:
            raise PreconditionError(f"generator [[{a},{b}],[{c},{d}]] mod {n} is not invertible")

    # int64 products of entries below n sum below 2^63 only for n < 2^31
    array_from = _ARRAY_BLOCK if n < 2**31 else math.inf
    identity = (1, 0, 0, 1)
    # the group built so far: a list of tuples with a set of them for lookups
    # (filled once a second generator comes), or int64 blocks for both
    found: list[tuple[int, int, int, int]] | _Blocks = [identity]
    members: set[tuple[int, int, int, int]] | _Blocks = set()
    kept: list[tuple[int, int, int, int]] = []
    for x in gens:
        if not kept:
            if x == identity:
                continue
            kept.append(x)
            p, q, r, s = y = x
            while y != identity and len(found) < array_from:
                if len(found) >= cap:
                    raise ResourceLimitError(f"closure exceeded cap of {cap} elements")
                found.append(y)
                a, b, c, d = y
                y = ((a * p + b * r) % n, (a * q + b * s) % n, (c * p + d * r) % n, (c * q + d * s) % n)
            if y != identity:
                powers = _as_array(found)
                while True:
                    # y = x^L for the L powers listed. x^(L+j) is the identity
                    # exactly when x^j = y^-1, so the next powers are
                    # (x^0 .. x^(j-1)) y if y^-1 is listed at j, else all L
                    a, b, c, d = y
                    e = pow(a * d - b * c, -1, n)
                    inverse = np.array((d * e % n, -b * e % n, -c * e % n, a * e % n))
                    ends = np.flatnonzero((powers == inverse[:, None]).all(axis=0))
                    k = ends[0] if ends.size else powers.shape[1]
                    if powers.shape[1] + k > cap:
                        raise ResourceLimitError(f"closure exceeded cap of {cap} elements")
                    powers = np.concatenate((powers, _right_product(powers[:, :k], y, n)), axis=1)
                    if ends.size:
                        break
                    y = ((a * a + b * c) % n, (a * b + b * d) % n, (c * a + d * c) % n, (c * b + d * d) % n)
                found = members = _Blocks(n, powers)
            continue
        if not isinstance(found, _Blocks):
            if len(found) >= array_from:
                found = members = _Blocks(n, _as_array(found))
            elif not members:
                members.update(found)
        if x in members:
            continue
        kept.append(x)
        # found is the subgroup H generated so far; from here on it grows by
        # whole right cosets H y, each disjoint from those listed, so only a
        # product r s is looked up and a new coset's elements need no lookup
        size = len(found)
        subgroup = found.array() if isinstance(found, _Blocks) else found[:]
        reps = [identity]
        for t in reps:  # grows while read: the queue of coset representatives
            a, b, c, d = t
            for p, q, r, s in kept:
                y = ((a * p + b * r) % n, (a * q + b * s) % n, (c * p + d * r) % n, (c * q + d * s) % n)
                if y in members:
                    continue
                if len(found) + size > cap:
                    raise ResourceLimitError(f"closure exceeded cap of {cap} elements")
                if isinstance(found, _Blocks):
                    found.append(_right_product(subgroup, y, n))
                else:
                    u, v, w, z = y
                    coset = [
                        ((e * u + f * w) % n, (e * v + f * z) % n, (h * u + k * w) % n, (h * v + k * z) % n)
                        for e, f, h, k in subgroup
                    ]
                    found += coset
                    members.update(coset)
                reps.append(y)
    # finite subsets closed under multiplication are closed under inverse
    return Subgroup(n, gens, found.array() if isinstance(found, _Blocks) else found)


class _Blocks:
    """A group under construction mod n < 2^31, held as 4 x k int64 entry
    blocks that concatenate to its entries in order. Membership is one
    vectorized comparison against row codes kept beside the blocks: each
    entry packs as a n + b and c n + d, both below n^2 < 2^62, so the codes
    are exact. They are packed at the first lookup, which a one-generator
    closure never makes, into a buffer that doubles as it fills."""

    def __init__(self, n: int, block: np.ndarray):
        self.n = n
        self.blocks = [block]
        self.size = block.shape[1]
        self.codes = np.empty((2, 0), np.int64)
        self.coded = 0  # the blocks, and the entries, whose codes are packed
        self.used = 0

    def __len__(self) -> int:
        return self.size

    def append(self, block: np.ndarray) -> None:
        self.blocks.append(block)
        self.size += block.shape[1]

    def array(self) -> np.ndarray:
        """The entries so far as one 4 x size array."""
        return np.concatenate(self.blocks, axis=1) if len(self.blocks) > 1 else self.blocks[0]

    def __contains__(self, y: tuple[int, int, int, int]) -> bool:
        n, codes, used = self.n, self.codes, self.used
        if used < self.size:
            if self.size > codes.shape[1]:
                codes = np.empty((2, 2 * self.size), np.int64)
                codes[:, :used] = self.codes[:, :used]
                self.codes = codes
            for block in self.blocks[self.coded :]:
                part = codes[:, used : used + block.shape[1]]
                np.multiply(block[::2], n, out=part)
                part += block[1::2]
                used += block.shape[1]
            self.coded, self.used = len(self.blocks), used
        a, b, c, d = y
        top, bottom = codes[:, :used]
        return bool(((top == a * n + b) & (bottom == c * n + d)).any())


def _right_product(h: np.ndarray, y: tuple[int, int, int, int], n: int) -> np.ndarray:
    """The 4 x k int64 entries of x y mod n for each column x of h, entries below n < 2^31."""
    p, q, r, s = y
    # the rows (a, b) and (c, d) of every x times y, as one stacked 2 x 2 product
    block = np.matmul(np.array(((p, r), (q, s))), h.reshape(2, 2, -1)).reshape(4, -1)
    block %= n
    return block


def _cyclic_subgroups(n: int, entries: Iterable[tuple[int, int, int, int]]) -> list[Subgroup]:
    """The distinct cyclic subgroups that the elements with these reduced
    entries mod n generate, in order of first appearance, each generated by
    the first element that generates it.

    One closure per group: the closure of one x of order m lists x^0, x^1,
    ..., x^(m-1) in that order, and x^k generates <x> exactly when
    gcd(k, m) = 1, so those entries are marked covered. An element that is
    not covered generates none of the groups found so far, so it is the
    first listed generator of a new group; only such elements are closed.
    """
    covered: set[tuple[int, int, int, int]] = set()
    out = []
    for e in entries:
        if e not in covered:
            h = closure(n, [e])
            covered.update(y for k, y in enumerate(h.entries) if math.gcd(k, h.order) == 1)
            out.append(h)
    return out


def _conjugation_target(
    n: int,
    t: tuple[int, int, int, int],
    xs: Sequence[tuple[int, int, int, int]],
    targets: Sequence[Subgroup],
) -> int | None:
    """Index of the first target holding t^-1 x t for every x given, or None.

    t and each x are reduced (a, b, c, d) tuples mod n, and t is invertible.
    This is the one routine that conjugates: it inverts t once, tests each
    product against the targets' entry sets in turn, and builds no Mat2.
    """
    a, b, c, d = t
    e = pow(a * d - b * c, -1, n)
    # t^-1 = e (d -b; -c a)
    ia, ib, ic, id_ = d * e % n, -b * e % n, -c * e % n, a * e % n
    for k, target in enumerate(targets):
        members = target._entry_set
        for p, q, r, s in xs:
            # (x t), then t^-1 (x t)
            u, v, w, z = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
            y = (
                (ia * u + ib * w) % n,
                (ia * v + ib * z) % n,
                (ic * u + id_ * w) % n,
                (ic * v + id_ * z) % n,
            )
            if y not in members:
                break
        else:
            return k
    return None


def subgroup_from_entries(n: int, entries: Iterable[tuple[int, int, int, int]]) -> Subgroup:
    """Wrap the reduced entries of an already-closed subset, such as one cut
    out of a group by a filter, in ascending entry order; its generators are
    every element."""
    return Subgroup(n, None, sorted(set(entries)))


class NamedGroupId(Enum):
    BOREL = "Borel"
    SPLIT_CARTAN = "SplitCartan"
    NONSPLIT_CARTAN = "NonsplitCartan"
    NORM_SPLIT = "NormSplit"
    NORM_NONSPLIT = "NormNonsplit"
    SL2 = "SL2"
    DELTA1 = "Delta1"
    DELTA2 = "Delta2"
    DELTA_U1 = "DeltaU1"
    DELTA_U2 = "DeltaU2"


@dataclass(frozen=True)
class DiagExpPair:
    """Exponent coordinates (u, t) of the diagonal matrix diag(alpha^u, alpha^t)."""

    ell: int
    u: int
    t: int

    def __post_init__(self):
        _check_odd_prime(self.ell)
        object.__setattr__(self, "u", self.u % (self.ell - 1))
        object.__setattr__(self, "t", self.t % (self.ell - 1))

    def to_matrix(self) -> Mat2:
        alpha = primitive_root(self.ell)
        return Mat2.diag(self.ell, pow(alpha, self.u, self.ell), pow(alpha, self.t, self.ell))


@lru_cache(maxsize=None)
def _dlog_table(ell: int) -> dict[int, int]:
    alpha = primitive_root(ell)
    table, x = {}, 1
    for k in range(ell - 1):
        table[x] = k
        x = x * alpha % ell
    return table


def _diag_exponents(ell: int, x: tuple[int, int, int, int]) -> tuple[int, int]:
    """(u, t) with x = diag(alpha^u, alpha^t), alpha = primitive_root(ell),
    for the reduced entries x of an invertible diagonal matrix over F_ell."""
    a, b, c, d = x
    if b != 0 or c != 0:
        raise PreconditionError(f"matrix [[{a},{b}],[{c},{d}]] mod {ell} is not diagonal")
    table = _dlog_table(ell)
    return table[a], table[d]


def diagexp_pair(x: Mat2) -> DiagExpPair:
    """Exponent coordinates of an invertible diagonal matrix over F_ell."""
    return DiagExpPair(x.n, *_diag_exponents(x.n, x.entries()))


def diagexp_span(ell: int, pairs: Iterable[tuple[int, int]]) -> Subgroup:
    """Subgroup of diagonal matrices generated by the given exponent pairs."""
    alpha = primitive_root(ell)
    return closure(ell, [(pow(alpha, u, ell), 0, 0, pow(alpha, t, ell)) for u, t in pairs])


def tau(ell: int) -> int:
    """3 when ell is 1 mod 3, else 1; undefined at multiples of 3."""
    _check_odd_prime(ell)
    if ell % 3 == 0:
        raise PreconditionError("tau is undefined for ell divisible by 3")
    if ell < 5:
        raise PreconditionError("tau requires ell >= 5")
    return 3 if ell % 3 == 1 else 1


@lru_cache(maxsize=None)
def named_group(gid: NamedGroupId, ell: int) -> Subgroup:
    """The named subgroup of GL2(F_ell), as the closure of the few generators
    listed for its family; alpha is the smallest generator of the units mod ell."""
    _check_odd_prime(ell)
    alpha = primitive_root(ell)
    if gid is NamedGroupId.BOREL:
        gens = [(alpha, 0, 0, 1), (1, 0, 0, alpha), (1, 1, 0, 1)]
    elif gid is NamedGroupId.SPLIT_CARTAN:
        gens = [(alpha, 0, 0, 1), (1, 0, 0, alpha)]
    elif gid is NamedGroupId.NONSPLIT_CARTAN:
        # (a b*alpha; b a) is a + b sqrt(alpha) acting on F_ell(sqrt(alpha)),
        # whose unit group is cyclic of order ell^2 - 1
        candidates = (
            closure(ell, [(a, b * alpha, b, a)])
            for a, b in itertools.product(range(ell), repeat=2)
            if (a, b) != (0, 0)
        )
        return next(g for g in candidates if g.order == ell * ell - 1)
    elif gid is NamedGroupId.NORM_SPLIT:
        cs = named_group(NamedGroupId.SPLIT_CARTAN, ell)
        gens = cs.generator_entries + ((0, 1, 1, 0),)
    elif gid is NamedGroupId.NORM_NONSPLIT:
        cns = named_group(NamedGroupId.NONSPLIT_CARTAN, ell)
        gens = cns.generator_entries + ((1, 0, 0, -1),)
    elif gid is NamedGroupId.SL2:
        gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    elif gid in (NamedGroupId.DELTA1, NamedGroupId.DELTA2):
        if ell < 5:
            raise PreconditionError("diagonal images require ell >= 5")
        t = tau(ell)
        half = (ell - 1) // (2 * t)
        if gid is NamedGroupId.DELTA1:
            return diagexp_span(ell, [(2 * t, 2 * t), (0, half)])
        return diagexp_span(ell, [(2 * t, 2 * t), (half, 0)])
    elif gid in (NamedGroupId.DELTA_U1, NamedGroupId.DELTA_U2):
        base = named_group(
            NamedGroupId.DELTA1 if gid is NamedGroupId.DELTA_U1 else NamedGroupId.DELTA2,
            ell,
        )
        return closure(ell, base.generator_entries + ((1, 1, 0, 1),))
    else:  # pragma: no cover
        raise PreconditionError(f"unknown named group {gid}")
    return closure(ell, gens)


def subgroup_to_json(g: Subgroup) -> str:
    payload = {
        "modulus": g.n,
        "generators": [[[a, b], [c, d]] for a, b, c, d in g.generator_entries],
    }
    return json.dumps(payload, sort_keys=True)


def _is_2x2(m) -> bool:
    return isinstance(m, list) and len(m) == 2 and all(
        isinstance(row, list) and len(row) == 2 for row in m
    )


def subgroup_from_json(payload: object) -> Subgroup:
    """Close the subgroup a decoded JSON value {"modulus": N, "generators":
    [[[a,b],[c,d]], ...]} describes; `cli._read_input` decodes the file."""
    try:
        n = payload["modulus"]
        raw = payload["generators"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed subgroup input: {exc}") from exc
    if not isinstance(raw, list) or not all(_is_2x2(m) for m in raw):
        raise PreconditionError(
            "malformed subgroup input: each generator must be two rows of two entries"
        )
    entries = [(m[0][0], m[0][1], m[1][0], m[1][1]) for m in raw]
    # type(...) is int also turns away JSON true/false, which Python reads as ints
    if not all(type(v) is int for v in (n, *(v for e in entries for v in e))):
        raise PreconditionError("malformed subgroup input: modulus and entries must be integers")
    return closure(n, entries)


def verify_named_orders(ell: int) -> dict[str, tuple[int, int]]:
    """Closure cardinality vs the closed-form order for each named subgroup."""
    expected = {
        NamedGroupId.BOREL: ell * (ell - 1) ** 2,
        NamedGroupId.SPLIT_CARTAN: (ell - 1) ** 2,
        NamedGroupId.NONSPLIT_CARTAN: ell * ell - 1,
        NamedGroupId.NORM_SPLIT: 2 * (ell - 1) ** 2,
        NamedGroupId.NORM_NONSPLIT: 2 * (ell * ell - 1),
        NamedGroupId.SL2: gl2_order(ell) // (ell - 1),
    }
    return {
        gid.value: (named_group(gid, ell).order, want)
        for gid, want in expected.items()
    }
