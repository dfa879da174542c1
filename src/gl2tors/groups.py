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
    unipotent,
    unipotent_lower,
)

DEFAULT_CLOSURE_CAP = 10**7
# the block size from which closure multiplies in numpy: about 1.5 times the
# measured crossover with tuple arithmetic (about 80 entries at ell = 47)
_ARRAY_BLOCK = 128
# nonzero row vectors an exhaustive spectrum may list (ell^2 - 1); ell <= 313
EXHAUSTIVE_SPECTRUM_CAP = 10**5


class Subgroup:
    """A subgroup of GL2(Z/nZ) held as generators plus its elements' reduced
    (a, b, c, d) tuples (`entries`).

    `Subgroup(n, generators, entries)` is the one constructor, and it is
    trusted: it checks nothing, so the caller guarantees that the entries are
    distinct, reduced into [0, n) and closed under multiplication, and that
    the generators generate them. With generators None, as
    `subgroup_from_entries` wraps a filtered subset and
    `verify._MulTable.to_subgroup` an enumerated one, every element in entry
    order is a generator, built as `Mat2` on first read. The entries are in
    the order `closure` lists them, or ascending for such a wrapped group;
    the one order that library code reads is that of a one-generator
    closure, x^0, x^1, ..., x^(m-1).
    Order, the determinant image, the entry array (built from the tuples on
    first read, unless `closure` computed it), membership, containment
    (`<=`), equality and hashing read the tuples alone; the last three use
    only (n, the entry set), so one group with two generating sets compares
    equal. The `Mat2` element set (`elements`), built on first read, is a
    view that the library never reads.
    """

    n: int
    entries: tuple[tuple[int, int, int, int], ...]

    def __init__(
        self, n: int, generators: Iterable[Mat2] | None, entries: Iterable[tuple[int, int, int, int]]
    ):
        vars(self).update(n=n, entries=tuple(entries))
        if generators is not None:
            vars(self)["generators"] = tuple(generators)

    def __setattr__(self, name, value):
        raise AttributeError(f"Subgroup is immutable; cannot set {name}")

    @cached_property
    def generators(self) -> tuple[Mat2, ...]:
        """Every element, in entry order, for a group made with generators None."""
        trusted, n = Mat2._reduced, self.n
        return tuple(trusted(n, a, b, c, d) for a, b, c, d in self.entries)

    @cached_property
    def elements(self) -> frozenset[Mat2]:
        # nothing reads the order in which the element set iterates
        trusted, n = Mat2._reduced, self.n
        return frozenset(trusted(n, a, b, c, d) for a, b, c, d in self.entries)

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

    @property
    def order(self) -> int:
        return len(self.entries)

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
        n = self.n
        gens = [x.entries() for x in self.generators]
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
    n: int, generators: Iterable[Mat2], cap: int = DEFAULT_CLOSURE_CAP
) -> Subgroup:
    """Smallest subgroup of GL2(Z/nZ) containing the generators.

    Dimino's method on reduced (a, b, c, d) tuples mod n, which computes each
    element once. A generator that is the identity or already in the group
    built so far is skipped. The first one kept, x of order m, lists
    x^0, x^1, ..., x^(m-1) in that order. Each later one, g, extends the
    group H built so far by whole right cosets: first H g, then H (r s) for
    each coset representative r in turn and each kept generator s whose
    product r s is not yet in the group. So the entries are the identity,
    the powers of x, then consecutive right cosets of the group before them.
    No Mat2 is built until the element set is read, and no more than `cap`
    entries are ever held.

    The block size picks the arithmetic, never the order. For n < 2^31,
    where int64 products of entries stay exact, a block of at least
    `_ARRAY_BLOCK` entries is one numpy product read back as tuples: once L
    powers of x are listed, the next L are (x^0 .. x^(L-1)) x^L, cut at the
    first identity, and a right coset H y with |H| >= `_ARRAY_BLOCK` is one
    4 x |H| product. At ell = 47 that wins from about 80 entries up (tuple
    arithmetic about 0.18 us an entry; one product about 9 us plus 0.06 us
    an entry). Smaller blocks and larger moduli stay on tuples. When every
    entry came from such blocks, the group gets their concatenation as its
    `entry_array`, with no rebuild from the tuples.
    """
    gens = tuple(generators)
    for g in gens:
        if g.n != n:
            raise PreconditionError(f"generator modulus {g.n} != {n}")
        if not g.is_invertible():
            raise PreconditionError(f"generator {g} is not invertible")
    _check_modulus(n)

    # int64 products of entries below n sum below 2^63 only for n < 2^31
    array_from = _ARRAY_BLOCK if n < 2**31 else math.inf
    identity = (1, 0, 0, 1)
    found = [identity]
    blocks: list[np.ndarray] = []  # once started, 4 x k int64 blocks that concatenate to found
    kept: list[tuple[int, int, int, int]] = []
    members: set[tuple[int, int, int, int]] = set()  # filled once a second generator comes
    for g in gens:
        x = g.entries()
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
                # y = x^L for the L powers listed: the next L powers are
                # (x^0 .. x^(L-1)) y, up to the first identity among them
                powers = _as_array(found)
                while True:
                    # one product past the cap shows whether the group fits in it
                    block = _right_product(powers[:, : cap + 1 - len(found)], y, n)
                    a, b, c, d = block
                    ends = np.flatnonzero((a == 1) & (b == 0) & (c == 0) & (d == 1))
                    if ends.size:
                        block = block[:, : ends[0]]
                    if len(found) + block.shape[1] > cap:
                        raise ResourceLimitError(f"closure exceeded cap of {cap} elements")
                    found += zip(*block.tolist())
                    powers = np.concatenate((powers, block), axis=1)
                    if ends.size:
                        break
                    a, b, c, d = y
                    y = ((a * a + b * c) % n, (a * b + b * d) % n, (c * a + d * c) % n, (c * b + d * d) % n)
                blocks.append(powers)
            continue
        if not members:
            members.update(found)
        if x in members:
            continue
        kept.append(x)
        # found is the subgroup H generated so far; from here on it grows by
        # whole right cosets H y, each disjoint from those listed, so only a
        # product r s is looked up and a new coset's elements need no lookup
        size = len(found)
        if size >= array_from:
            if not blocks:
                blocks.append(_as_array(found))
            subgroup = np.concatenate(blocks, axis=1)
        else:
            subgroup = found[:]
        reps = [identity]
        for t in reps:  # grows while read: the queue of coset representatives
            a, b, c, d = t
            for p, q, r, s in kept:
                y = ((a * p + b * r) % n, (a * q + b * s) % n, (c * p + d * r) % n, (c * q + d * s) % n)
                if y in members:
                    continue
                if len(found) + size > cap:
                    raise ResourceLimitError(f"closure exceeded cap of {cap} elements")
                if blocks:
                    block = _right_product(subgroup, y, n)
                    blocks.append(block)
                    coset = list(zip(*block.tolist()))
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
    group = Subgroup(n, gens, found)
    if blocks:
        array = np.concatenate(blocks, axis=1)
        array.flags.writeable = False
        vars(group)["entry_array"] = array
    return group


def _right_product(h: np.ndarray, y: tuple[int, int, int, int], n: int) -> np.ndarray:
    """The 4 x k int64 entries of x y mod n for each column x of h, entries below n < 2^31."""
    a, b, c, d = h
    p, q, r, s = y
    block = np.stack((a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s))
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
    trusted = Mat2._reduced
    covered: set[tuple[int, int, int, int]] = set()
    out = []
    for e in entries:
        if e not in covered:
            h = closure(n, [trusted(n, *e)])
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
    every element, built on first read."""
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


def diagexp_pair(x: Mat2) -> DiagExpPair:
    """Exponent coordinates of an invertible diagonal matrix over F_ell."""
    if x.b != 0 or x.c != 0:
        raise PreconditionError(f"matrix {x} is not diagonal")
    table = _dlog_table(x.n)
    return DiagExpPair(x.n, table[x.a], table[x.d])


def diagexp_span(ell: int, pairs: Iterable[tuple[int, int]]) -> Subgroup:
    """Subgroup of diagonal matrices generated by the given exponent pairs."""
    gens = [DiagExpPair(ell, u, t).to_matrix() for u, t in pairs]
    return closure(ell, gens)


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
        gens = [Mat2.diag(ell, alpha, 1), Mat2.diag(ell, 1, alpha), unipotent(ell)]
    elif gid is NamedGroupId.SPLIT_CARTAN:
        gens = [Mat2.diag(ell, alpha, 1), Mat2.diag(ell, 1, alpha)]
    elif gid is NamedGroupId.NONSPLIT_CARTAN:
        # (a b*alpha; b a) is a + b sqrt(alpha) acting on F_ell(sqrt(alpha)),
        # whose unit group is cyclic of order ell^2 - 1
        candidates = (
            closure(ell, [Mat2(ell, a, b * alpha, b, a)])
            for a, b in itertools.product(range(ell), repeat=2)
            if (a, b) != (0, 0)
        )
        return next(g for g in candidates if g.order == ell * ell - 1)
    elif gid is NamedGroupId.NORM_SPLIT:
        cs = named_group(NamedGroupId.SPLIT_CARTAN, ell)
        gens = cs.generators + (Mat2(ell, 0, 1, 1, 0),)
    elif gid is NamedGroupId.NORM_NONSPLIT:
        cns = named_group(NamedGroupId.NONSPLIT_CARTAN, ell)
        gens = cns.generators + (Mat2.diag(ell, 1, -1),)
    elif gid is NamedGroupId.SL2:
        gens = [unipotent(ell), unipotent_lower(ell)]
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
        return closure(ell, base.generators + (unipotent(ell),))
    else:  # pragma: no cover
        raise PreconditionError(f"unknown named group {gid}")
    return closure(ell, gens)


def subgroup_to_json(g: Subgroup) -> str:
    payload = {
        "modulus": g.n,
        "generators": [[[x.a, x.b], [x.c, x.d]] for x in g.generators],
    }
    return json.dumps(payload, sort_keys=True)


def _is_2x2(m) -> bool:
    return isinstance(m, list) and len(m) == 2 and all(
        isinstance(row, list) and len(row) == 2 for row in m
    )


def subgroup_from_json(text: str) -> Subgroup:
    """Parse {"modulus": N, "generators": [[[a,b],[c,d]], ...]} and close it."""
    try:
        payload = json.loads(text)
        n = payload["modulus"]
        raw = payload["generators"]
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"malformed subgroup input: {exc}") from exc
    if not isinstance(raw, list) or not all(_is_2x2(m) for m in raw):
        raise PreconditionError(
            "malformed subgroup input: each generator must be two rows of two entries"
        )
    entries = [(m[0][0], m[0][1], m[1][0], m[1][1]) for m in raw]
    # type(...) is int also turns away JSON true/false, which Python reads as ints
    if not all(type(v) is int for v in (n, *(v for e in entries for v in e))):
        raise PreconditionError("malformed subgroup input: modulus and entries must be integers")
    return closure(n, [Mat2(n, *e) for e in entries])


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
