"""Finite subgroups of GL2(Z/NZ): closure, named subgroups, diagonal images."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .errors import PreconditionError, ResourceLimitError
from .modarith import (
    Mat2,
    _check_odd_prime,
    gl2_order,
    mat_inv,
    mat_mul,
    primitive_root,
    unipotent,
)

DEFAULT_CLOSURE_CAP = 10**7
# nonzero row vectors an exhaustive spectrum may list (ell^2 - 1); ell <= 313
EXHAUSTIVE_SPECTRUM_CAP = 10**5


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of GL2(Z/nZ) held as generators plus its full element set.

    The generators generate the element set. Equality and hashing use only
    (n, elements), so one group with two generating sets compares equal.
    """

    n: int
    generators: tuple[Mat2, ...] = field(compare=False)
    elements: frozenset[Mat2]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Mat2) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __le__(self, other: "Subgroup") -> bool:
        return is_subgroup_of(self, other)

    def sorted_elements(self) -> list[Mat2]:
        return sorted(self.elements, key=Mat2.entries)

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which makes the group abelian."""
        gens = self.generators
        for i, x in enumerate(gens):
            for y in gens[i + 1 :]:
                if mat_mul(x, y) != mat_mul(y, x):
                    return False
        return True

    def det_image(self) -> frozenset[int]:
        return frozenset(x.det() for x in self.elements)


def closure(
    n: int, generators: Iterable[Mat2], cap: int = DEFAULT_CLOSURE_CAP
) -> Subgroup:
    """Smallest subgroup of GL2(Z/nZ) containing the generators.

    The breadth-first search multiplies reduced (a, b, c, d) tuples mod n and
    builds each element's Mat2 once, at the end, in discovery order.
    """
    gens = tuple(generators)
    for g in gens:
        if g.n != n:
            raise PreconditionError(f"generator modulus {g.n} != {n}")
        if not g.is_invertible():
            raise PreconditionError(f"generator {g} is not invertible")
    ident = Mat2.identity(n)
    steps = [g.entries() for g in gens]
    found = [ident.entries()]
    seen = set(found)
    # the loop also visits the elements it appends, which makes it the BFS queue
    for a, b, c, d in found:
        for p, q, r, s in steps:
            y = (
                (a * p + b * r) % n,
                (a * q + b * s) % n,
                (c * p + d * r) % n,
                (c * q + d * s) % n,
            )
            if y not in seen:
                seen.add(y)
                found.append(y)
                if len(found) > cap:
                    raise ResourceLimitError(
                        f"closure exceeded cap of {cap} elements"
                    )
    trusted = Mat2._reduced
    elements = [ident] + [trusted(n, a, b, c, d) for a, b, c, d in found[1:]]
    # finite subsets closed under multiplication are closed under inverse.
    # The set is grown one element at a time in discovery order and then
    # frozen, so the group iterates in the same order as the reference Mat2
    # search in the tests; a frozenset built straight from the list sizes its
    # table differently and iterates in another order.
    return Subgroup(n, gens, frozenset(set(elements)))


def subgroup_from_elements(n: int, elements: Iterable[Mat2]) -> Subgroup:
    """Wrap an already-closed element set, using it as its own generating set."""
    elems = frozenset(elements)
    return Subgroup(n, tuple(sorted(elems, key=Mat2.entries)), elems)


def is_subgroup_of(h: Subgroup, g: Subgroup) -> bool:
    if h.n != g.n:
        raise PreconditionError(f"modulus mismatch: {h.n} vs {g.n}")
    return h.elements <= g.elements


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
    """The named subgroup of GL2(F_ell), as an explicit element set."""
    _check_odd_prime(ell)
    alpha = primitive_root(ell)
    units = [x for x in range(1, ell)]
    if gid is NamedGroupId.BOREL:
        elems = [
            Mat2(ell, a, b, 0, d) for a in units for d in units for b in range(ell)
        ]
    elif gid is NamedGroupId.SPLIT_CARTAN:
        elems = [Mat2.diag(ell, a, d) for a in units for d in units]
    elif gid is NamedGroupId.NONSPLIT_CARTAN:
        elems = [
            Mat2(ell, a, b * alpha, b, a)
            for a in range(ell)
            for b in range(ell)
            if (a, b) != (0, 0)
        ]
    elif gid is NamedGroupId.NORM_SPLIT:
        cs = named_group(NamedGroupId.SPLIT_CARTAN, ell)
        flip = Mat2(ell, 0, 1, 1, 0)
        elems = list(cs.elements) + [mat_mul(x, flip) for x in cs.elements]
    elif gid is NamedGroupId.NORM_NONSPLIT:
        cns = named_group(NamedGroupId.NONSPLIT_CARTAN, ell)
        sign = Mat2.diag(ell, 1, -1)
        elems = list(cns.elements) + [mat_mul(x, sign) for x in cns.elements]
    elif gid is NamedGroupId.SL2:
        elems = [
            Mat2(ell, a, b, c, d)
            for a in range(ell)
            for b in range(ell)
            for c in range(ell)
            for d in range(ell)
            if (a * d - b * c) % ell == 1
        ]
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
    return subgroup_from_elements(ell, elems)


def delta_flip(delta: Subgroup) -> Subgroup:
    """Swap the diagonal entries of every element; an involution on diagonal groups."""
    flipped = []
    for x in delta.elements:
        if x.b != 0 or x.c != 0:
            raise PreconditionError(f"non-diagonal element {x} in flip input")
        flipped.append(Mat2.diag(x.n, x.d, x.a))
    return subgroup_from_elements(delta.n, flipped)


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


def subgroup_from_json(text: str, cap: int = DEFAULT_CLOSURE_CAP) -> Subgroup:
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
    return closure(n, [Mat2(n, *e) for e in entries], cap=cap)


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
