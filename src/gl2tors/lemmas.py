"""Constructive structure lemmas, each returning an independently checkable witness."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError
from .modarith import (
    Mat2,
    _check_odd_prime,
    element_order,
    legendre,
    mat_mul,
    primitive_root,
    sqrt_mod,
    unipotent,
    unipotent_lower,
)
from .groups import (
    NamedGroupId,
    Subgroup,
    _conjugation_target,
    closure,
    named_group,
    subgroup_from_entries,
)
from .stabilizers import sl_part

NORMALIZER_SCAN_CAP = 13


@dataclass(frozen=True)
class Conjugation:
    """A conjugator t with t^-1 h t inside the named target group.

    The one witness for every placement up to conjugation: a Cartan
    subgroup, a Cartan normalizer or the Borel subgroup.
    """

    conjugator: Mat2
    target: NamedGroupId

    def verify(self, h: Subgroup) -> bool:
        target = named_group(self.target, h.n)
        return _conjugation_target(h.n, self.conjugator.entries(), h.entries, [target]) == 0

    def to_dict(self) -> dict:
        return {
            "target": self.target.value,
            "conjugator": list(self.conjugator.entries()),
        }


# ---------------------------------------------------------------------------
# word decomposition in the two shears


@dataclass(frozen=True)
class SL2Word:
    """A product of powers of the shears (1 1; 0 1) and (1 0; 1 1)."""

    ell: int
    letters: tuple[tuple[str, int], ...]  # ("U"|"L", exponent mod ell)

    def evaluate(self) -> Mat2:
        result = Mat2.identity(self.ell)
        for letter, exp in self.letters:
            base = unipotent(self.ell) if letter == "U" else unipotent_lower(self.ell)
            result = mat_mul(result, base ** (exp % self.ell))
        return result

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        if not self.letters:
            return "I"
        return " ".join(f"{letter}^{exp % self.ell}" for letter, exp in self.letters)


def _word(ell: int, parts: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    return tuple((letter, exp % ell) for letter, exp in parts if exp % ell != 0)


def _antidiag_word(ell: int, s: int) -> list[tuple[str, int]]:
    # (0 -1/s; s 0) as a three-shear product
    sinv = pow(s, -1, ell)
    return [("U", -sinv), ("L", s), ("U", -sinv)]


def decompose_sl2(x: Mat2) -> SL2Word:
    """Write a determinant-1 matrix over F_ell as a short word in the two shears."""
    ell = x.n
    _check_odd_prime(ell)
    if x.det() != 1:
        raise PreconditionError(f"matrix {x} has determinant {x.det()}, expected 1")
    a, b, c, d = x.a, x.b, x.c, x.d
    if c == 0 and a == 1:
        parts = [("U", b)]
    elif b == 0 and a == 1:
        parts = [("L", c)]
    elif c != 0:
        cinv = pow(c, -1, ell)
        parts = [("U", a * cinv), ("L", -c * d)] + _antidiag_word(ell, c)
    else:
        # c = 0 forces a invertible; peel off the diagonal part
        parts = [("U", a * b)] + [("L", -1), ("U", 1), ("L", -1)] + _antidiag_word(ell, a)
    word = SL2Word(ell, _word(ell, parts))
    if word.evaluate() != x:
        raise LemmaViolationError(f"shear word {word} does not evaluate to {x}")
    return word


# ---------------------------------------------------------------------------
# conjugation into Cartan subgroups


@lru_cache(maxsize=None)
def _gl2_elements(ell: int) -> tuple[Mat2, ...]:
    return tuple(
        Mat2(ell, a, b, c, d)
        for a in range(ell)
        for b in range(ell)
        for c in range(ell)
        for d in range(ell)
        if (a * d - b * c) % ell != 0
    )


def brute_force_cartan_conjugator(h: Subgroup) -> Conjugation | None:
    """Scan conjugators over the whole group; the oracle for the constructive path.

    The first t in _gl2_elements order wins, with the split Cartan tried
    before the non-split one at the same t.
    """
    gids = (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN)
    targets = [named_group(gid, h.n) for gid in gids]
    gens = [x.entries() for x in h.generators] or h.entries
    for t in _gl2_elements(h.n):
        k = _conjugation_target(h.n, t.entries(), gens, targets)
        if k is not None:
            return Conjugation(t, gids[k])
    return None


def _discriminant(x: Mat2) -> int:
    return (x.trace() ** 2 - 4 * x.det()) % x.n


def _eigencolumn(x: Mat2, lam: int) -> tuple[int, int]:
    """A nonzero column v with (x - lam I) v = 0, for x not scalar."""
    ell = x.n
    a, b = (x.a - lam) % ell, x.b
    if (a, b) != (0, 0):
        return (b, -a % ell)
    return ((x.d - lam) % ell, -x.c % ell)


def _split_conjugator(x: Mat2) -> Mat2:
    """t = (v1 | v2), eigencolumns of x at its eigenvalues lam1 < lam2, for x
    with a nonzero square discriminant: t^-1 x t = diag(lam1, lam2)."""
    ell = x.n
    root, half = sqrt_mod(_discriminant(x), ell), pow(2, -1, ell)
    lam1, lam2 = sorted((x.trace() + sign * root) * half % ell for sign in (1, -1))
    (p, r), (q, s) = _eigencolumn(x, lam1), _eigencolumn(x, lam2)
    return Mat2(ell, p, q, r, s)


def _nonsplit_conjugator(g: Mat2) -> Mat2:
    """t with t^-1 g t = (a b*alpha; b a), for g = (p q; r s) with a non-residue
    discriminant.

    a = tr/2 and b = sqrt(disc/alpha)/2, with alpha = primitive_root(ell) and
    the least square root, so g has eigenvalues a +- b sqrt(alpha); then
    t = (q/(b alpha) 0; (a - p)/(b alpha) 1). This is P Q^-1 for P = (q q;
    mu - p mu' - p) and Q = (b alpha b alpha; b sqrt(alpha) -b sqrt(alpha)),
    with mu, mu' = a +- b sqrt(alpha), worked out over F_ell. q != 0 because
    a triangular matrix has rational eigenvalues, and b != 0 because
    disc != 0.
    """
    ell = g.n
    alpha, half = primitive_root(ell), pow(2, -1, ell)
    a = g.trace() * half % ell
    b = sqrt_mod(_discriminant(g) * pow(alpha, -1, ell), ell) * half % ell
    e = pow(b * alpha, -1, ell)
    return Mat2(ell, g.b * e, 0, (a - g.a) * e, 1)


def conjugate_into_cartan(h: Subgroup) -> Conjugation:
    """Conjugator into the split or non-split Cartan for an abelian prime-to-ell group.

    The witness is read off the generators alone. Elements of order prime
    to ell are semisimple. A generator x with a non-residue discriminant
    tr^2 - 4 det lies in exactly one non-split Cartan, and
    _nonsplit_conjugator(x) conjugates it into the standard one; failing
    that, the eigencolumns of the first non-scalar generator (its two
    eigenvalues differ) conjugate it into the split Cartan; if every
    generator is scalar, so is h, and the identity places it there. One
    generator is enough: in GL2(F_ell) the centralizer of a non-scalar
    element x of either Cartan is F_ell[x]^*, that Cartan, so h, which is
    abelian and holds x, lies in the Cartan of x, and a t placing x in the
    standard Cartan of that kind places all of h. The choice does not depend
    on the order of h.entries. A witness that fails its check raises
    LemmaViolationError.
    """
    ell = h.n
    _check_odd_prime(ell)
    if h.order % ell == 0:
        raise PreconditionError("group order is divisible by the characteristic")
    if not h.is_abelian():
        raise PreconditionError("group is not abelian")

    x = next((x for x in h.generators if legendre(_discriminant(x), ell) == -1), None)
    if x is not None:
        emb = Conjugation(_nonsplit_conjugator(x), NamedGroupId.NONSPLIT_CARTAN)
    else:
        x = next((x for x in h.generators if not x.is_scalar()), None)
        t = Mat2.identity(ell) if x is None else _split_conjugator(x)
        emb = Conjugation(t, NamedGroupId.SPLIT_CARTAN)
    if not emb.verify(h):
        raise LemmaViolationError(
            f"conjugator {emb.conjugator} does not place a group of order {h.order} "
            f"in {emb.target.value}"
        )
    return emb


# ---------------------------------------------------------------------------
# cyclicity, normalizers


def cyclic_generator(h: Subgroup) -> Mat2:
    """A single generator of an odd-order prime-to-ell subgroup of SL2(F_ell)."""
    ell = h.n
    _check_odd_prime(ell)
    if h.det_image() != {1}:
        raise PreconditionError("group is not contained in SL2")
    if h.order % 2 == 0:
        raise PreconditionError("group order is even")
    if h.order % ell == 0:
        raise PreconditionError("group order is divisible by the characteristic")
    for e in h.entries:
        x = Mat2(ell, *e)
        if element_order(x) == h.order:
            return x
    raise LemmaViolationError(
        f"odd-order prime-to-{ell} subgroup of SL2 of order {h.order} is not cyclic"
    )


def normalizer_in_gl2(h: Subgroup) -> Subgroup:
    """The full normalizer, by scanning the ambient group."""
    ell = h.n
    _check_odd_prime(ell)
    if ell > NORMALIZER_SCAN_CAP:
        raise ResourceLimitError(
            f"normalizer scan is capped at ell <= {NORMALIZER_SCAN_CAP}"
        )
    gens = [x.entries() for x in h.generators] or h.entries
    # h is finite, so t^-1 h t lies in h exactly when t normalizes h
    ts = (t.entries() for t in _gl2_elements(ell))
    out = [t for t in ts if _conjugation_target(ell, t, gens, [h]) == 0]
    return subgroup_from_entries(ell, out)


def conjugate_into_normalizer(h: Subgroup) -> Conjugation:
    """Conjugator into a Cartan normalizer for groups with odd prime-to-ell SL2 part."""
    ell = h.n
    h0 = sl_part(h)
    minus_i = Mat2.diag(ell, -1, -1)
    odd_up_to_scalars = h0.order % 2 == 1 or (h0.order % 4 == 2 and minus_i in h0)
    if not odd_up_to_scalars or h0.order % ell == 0:
        raise PreconditionError(
            "the determinant-1 part must have odd order prime to ell, up to the scalar -1"
        )
    if h0 <= closure(ell, [minus_i]):
        emb = conjugate_into_cartan(h)
    else:
        emb = conjugate_into_cartan(h0)
    target = (
        NamedGroupId.NORM_SPLIT
        if emb.target is NamedGroupId.SPLIT_CARTAN
        else NamedGroupId.NORM_NONSPLIT
    )
    result = Conjugation(emb.conjugator, target)
    if not result.verify(h):
        raise LemmaViolationError(
            "conjugated group escapes the Cartan normalizer predicted by its SL2 part"
        )
    return result
