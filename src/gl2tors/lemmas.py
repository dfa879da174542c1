"""Constructive structure lemmas, each returning an independently checkable witness."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError
from .modarith import (
    Mat2,
    _check_modulus,
    _check_odd_prime,
    element_order,
    legendre,
    primitive_root,
    sqrt_mod,
)
from .groups import (
    NamedGroupId,
    Subgroup,
    _conjugation_target,
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
        """Whether t^-1 h t lies in the target. Conjugation is a homomorphism
        and the target a group, so the generators that h was made with are
        enough; a group wrapped with generators None is checked on every
        entry tuple."""
        t, target = self.conjugator.entries(), named_group(self.target, h.n)
        return _conjugation_target(h.n, t, h.generator_entries, [target]) == 0

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
        """The product, multiplied out on entries: U^e = (1 e; 0 1) and
        L^e = (1 0; e 1), so each letter updates one column."""
        ell = self.ell
        _check_modulus(ell)
        a, b, c, d = 1, 0, 0, 1
        for letter, exp in self.letters:
            if letter == "U":
                b, d = (a * exp + b) % ell, (c * exp + d) % ell
            else:
                a, c = (a + b * exp) % ell, (c + d * exp) % ell
        return Mat2._reduced(ell, a, b, c, d)

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
def _gl2_elements(ell: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every element of GL2(F_ell) as its reduced (a, b, c, d) entry tuple, in
    lexicographic order: the one list that the GL2 scans and table read."""
    return tuple(e for e in product(range(ell), repeat=4) if (e[0] * e[3] - e[1] * e[2]) % ell)


def brute_force_cartan_conjugator(h: Subgroup) -> Conjugation | None:
    """Scan conjugators over the whole group; the oracle for the constructive path.

    The first t in _gl2_elements order wins, with the split Cartan tried
    before the non-split one at the same t; only that t is built as a Mat2.
    """
    gids = (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN)
    targets = [named_group(gid, h.n) for gid in gids]
    for t in _gl2_elements(h.n):
        k = _conjugation_target(h.n, t, h.generator_entries, targets)
        if k is not None:
            return Conjugation(Mat2._reduced(h.n, *t), gids[k])
    return None


def _discriminant(n: int, x: tuple[int, int, int, int]) -> int:
    a, b, c, d = x
    return ((a + d) ** 2 - 4 * (a * d - b * c)) % n


def _eigencolumn(ell: int, x: tuple[int, int, int, int], lam: int) -> tuple[int, int]:
    """A nonzero column v with (x - lam I) v = 0, for reduced entries x of a
    matrix that is not scalar."""
    p, q, r, s = x
    a = (p - lam) % ell
    if (a, q) != (0, 0):
        return (q, -a % ell)
    return ((s - lam) % ell, -r % ell)


def _split_conjugator(ell: int, x: tuple[int, int, int, int]) -> Mat2:
    """t = (v1 | v2), eigencolumns of x at its eigenvalues lam1 < lam2, for
    reduced entries x with a nonzero square discriminant: t^-1 x t =
    diag(lam1, lam2)."""
    root, half = sqrt_mod(_discriminant(ell, x), ell), pow(2, -1, ell)
    lam1, lam2 = sorted((x[0] + x[3] + sign * root) * half % ell for sign in (1, -1))
    (p, r), (q, s) = _eigencolumn(ell, x, lam1), _eigencolumn(ell, x, lam2)
    return Mat2(ell, p, q, r, s)


def _nonsplit_conjugator(ell: int, x: tuple[int, int, int, int]) -> Mat2:
    """t with t^-1 x t = (a b*alpha; b a), for reduced entries x = (p q; r s)
    with a non-residue discriminant.

    a = tr/2 and b = sqrt(disc/alpha)/2, with alpha = primitive_root(ell) and
    the least square root, so x has eigenvalues a +- b sqrt(alpha); then
    t = (q/(b alpha) 0; (a - p)/(b alpha) 1). This is P Q^-1 for P = (q q;
    mu - p mu' - p) and Q = (b alpha b alpha; b sqrt(alpha) -b sqrt(alpha)),
    with mu, mu' = a +- b sqrt(alpha), worked out over F_ell. q != 0 because
    a triangular matrix has rational eigenvalues, and b != 0 because
    disc != 0.
    """
    p, q, _, s = x
    alpha, half = primitive_root(ell), pow(2, -1, ell)
    a = (p + s) * half % ell
    b = sqrt_mod(_discriminant(ell, x) * pow(alpha, -1, ell), ell) * half % ell
    e = pow(b * alpha, -1, ell)
    return Mat2(ell, q * e, 0, (a - p) * e, 1)


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

    x = next((x for x in h.generator_entries if legendre(_discriminant(ell, x), ell) == -1), None)
    if x is not None:
        t = _nonsplit_conjugator(ell, x)
        emb = Conjugation(t, NamedGroupId.NONSPLIT_CARTAN)
    else:
        # the first non-scalar generator: b or c nonzero, or a != d
        x = next((x for x in h.generator_entries if x[1] or x[2] or x[0] != x[3]), None)
        t = Mat2.identity(ell) if x is None else _split_conjugator(ell, x)
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
    # the order tests read h.order alone, so they come before the det pass
    if h.order % 2 == 0:
        raise PreconditionError("group order is even")
    if h.order % ell == 0:
        raise PreconditionError("group order is divisible by the characteristic")
    if h.det_image() != {1}:
        raise PreconditionError("group is not contained in SL2")
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
    gens = h.generator_entries
    # h is finite, so t^-1 h t lies in h exactly when t normalizes h
    out = [t for t in _gl2_elements(ell) if _conjugation_target(ell, t, gens, [h]) == 0]
    return subgroup_from_entries(ell, out)


def conjugate_into_normalizer(h: Subgroup) -> Conjugation:
    """Conjugator into a Cartan normalizer for groups with odd prime-to-ell SL2 part."""
    ell = h.n
    h0 = sl_part(h)
    minus_i = (ell - 1, 0, 0, ell - 1)
    odd_up_to_scalars = h0.order % 2 == 1 or (h0.order % 4 == 2 and minus_i in h0._entry_set)
    if not odd_up_to_scalars or h0.order % ell == 0:
        raise PreconditionError(
            "the determinant-1 part must have odd order prime to ell, up to the scalar -1"
        )
    # h0 lies in {I, -I}
    if h0.order == 1 or (h0.order == 2 and minus_i in h0._entry_set):
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
