"""Constructive structure lemmas, each returning an independently checkable witness."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError
from .modarith import (
    EigenKind,
    Mat2,
    QuadExtElem,
    _check_odd_prime,
    eigenvalues,
    element_order,
    mat_mul,
    primitive_root,
    unipotent,
    unipotent_lower,
)
from .groups import (
    NamedGroupId,
    Subgroup,
    _conjugation_target,
    named_group,
    subgroup_from_elements,
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
    assert word.evaluate() == x
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


def _eigencolumn(x: Mat2, lam: int) -> tuple[int, int]:
    """A nonzero column v with (x - lam I) v = 0."""
    ell = x.n
    a, b, c, d = (x.a - lam) % ell, x.b, x.c, (x.d - lam) % ell
    if b != 0 or a != 0:
        v = (b, (-a) % ell)
        if v != (0, 0):
            return v
    if d != 0 or c != 0:
        return (d, (-c) % ell)
    return (1, 0)  # x is scalar lam


def conjugate_into_cartan(h: Subgroup) -> Conjugation:
    """Conjugator into the split or non-split Cartan for an abelian prime-to-ell group."""
    ell = h.n
    _check_odd_prime(ell)
    if h.order % ell == 0:
        raise PreconditionError("group order is divisible by the characteristic")
    if not h.is_abelian():
        raise PreconditionError("group is not abelian")

    eigs = {x: eigenvalues(x) for x in h.elements}
    irrational = [x for x, e in eigs.items() if e.kind is EigenKind.IRRATIONAL_CONJUGATE_PAIR]

    if not irrational:
        emb = _split_embedding(h, eigs)
    else:
        emb = _nonsplit_embedding(h)
    if emb is None or not emb.verify(h):
        # degenerate representative; fall back to the exhaustive scan
        emb = brute_force_cartan_conjugator(h)
        if emb is None:
            raise LemmaViolationError(
                f"no conjugator into either Cartan for a group of order {h.order}"
            )
    return emb


def _split_embedding(h: Subgroup, eigs) -> Conjugation | None:
    ell = h.n
    witness = None
    for x, e in eigs.items():
        if e.kind is EigenKind.RATIONAL_DISTINCT and not x.is_scalar():
            witness = (x, e)
            break
    if witness is None:
        # all elements scalar (repeated-eigenvalue non-scalars cannot occur in
        # an abelian group of order prime to ell)
        return Conjugation(Mat2.identity(ell), NamedGroupId.SPLIT_CARTAN)
    x, e = witness
    v1 = _eigencolumn(x, e.values[0])
    v2 = _eigencolumn(x, e.values[1])
    t = Mat2(ell, v1[0], v2[0], v1[1], v2[1])
    if not t.is_invertible():
        return None
    return Conjugation(t, NamedGroupId.SPLIT_CARTAN)


def _qmat_mul(x, y):
    return [
        [x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)]
        for i in range(2)
    ]


def _qmat_inv(x):
    det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    dinv = det.inverse()
    return [[x[1][1] * dinv, -x[0][1] * dinv], [-x[1][0] * dinv, x[0][0] * dinv]]


def _nonsplit_embedding(h: Subgroup) -> Conjugation | None:
    """The simultaneous-diagonalization construction over the quadratic extension.

    The group is cyclic here; for a generator with irrational eigenvalue
    a + b sqrt(alpha) the two change-of-basis matrices built from the
    generator's top-right entry and from b are invertible, and their quotient
    is Galois-invariant, hence the conjugator.
    """
    ell = h.n
    gen = None
    for x in h.elements:
        if element_order(x) == h.order:
            gen = x
            break
    if gen is None:
        return None
    eig = eigenvalues(gen)
    if eig.kind is not EigenKind.IRRATIONAL_CONJUGATE_PAIR:
        return None
    mu: QuadExtElem = eig.values[0]
    a, b = mu.re, mu.im
    t_, u = gen.a, gen.b
    if u == 0:
        return None  # triangular generator cannot have irrational eigenvalues
    alpha = primitive_root(ell)
    sqrt_alpha = QuadExtElem(ell, 0, 1)
    q_u = QuadExtElem(ell, u, 0)
    p = [
        [q_u, q_u],
        [mu - QuadExtElem(ell, t_, 0), mu.conjugate() - QuadExtElem(ell, t_, 0)],
    ]
    bq = QuadExtElem(ell, b, 0)
    balpha = QuadExtElem(ell, b * alpha, 0)
    q = [[balpha, balpha], [bq * sqrt_alpha, -(bq * sqrt_alpha)]]
    t_mat = _qmat_mul(p, _qmat_inv(q))
    if any(not t_mat[i][j].is_rational() for i in range(2) for j in range(2)):
        return None
    t = Mat2(ell, t_mat[0][0].re, t_mat[0][1].re, t_mat[1][0].re, t_mat[1][1].re)
    if not t.is_invertible():
        return None
    return Conjugation(t, NamedGroupId.NONSPLIT_CARTAN)


# ---------------------------------------------------------------------------
# cyclicity, normalizers


def cyclic_generator(h: Subgroup) -> Mat2:
    """A single generator of an odd-order prime-to-ell subgroup of SL2(F_ell)."""
    ell = h.n
    _check_odd_prime(ell)
    if any(x.det() != 1 for x in h.elements):
        raise PreconditionError("group is not contained in SL2")
    if h.order % 2 == 0:
        raise PreconditionError("group order is even")
    if h.order % ell == 0:
        raise PreconditionError("group order is divisible by the characteristic")
    for x in h.elements:
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
    out = [
        t for t in _gl2_elements(ell) if _conjugation_target(ell, t.entries(), gens, [h]) == 0
    ]
    return subgroup_from_elements(ell, out)


def conjugate_into_normalizer(h: Subgroup) -> Conjugation:
    """Conjugator into a Cartan normalizer for groups with odd prime-to-ell SL2 part."""
    ell = h.n
    h0 = sl_part(h)
    minus_i = Mat2.diag(ell, -1, -1)
    odd_up_to_scalars = h0.order % 2 == 1 or (
        h0.order % 4 == 2 and minus_i in h0.elements
    )
    if not odd_up_to_scalars or h0.order % ell == 0:
        raise PreconditionError(
            "the determinant-1 part must have odd order prime to ell, up to the scalar -1"
        )
    if h0.elements <= {Mat2.identity(ell), minus_i}:
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
