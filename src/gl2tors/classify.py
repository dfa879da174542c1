"""Image classification for Borel / Cartan-normalizer shapes and its consequences."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LemmaViolationError, PreconditionError
from .ntheory import isprime
from .modarith import Mat2, mat_inv, primitive_root, unipotent
from .groups import (
    NamedGroupId,
    Subgroup,
    _cyclic_subgroups,
    closure,
    diagexp_pair,
    named_group,
    subgroup_from_entries,
    tau,
)
from .lemmas import Conjugation, conjugate_into_normalizer
from .stabilizers import ProjPoint, act_row, exhaustive_spectrum, orbit_size

INERTIA_EXPONENTS = (1, 2, 3, 4, 6)
MOD36_RESIDUES = frozenset({7, 11, 23, 31, 35})


def mod36_filter(ell: int) -> bool:
    """Whether ell lies in the surviving residue classes mod 36."""
    if not isprime(ell):
        raise PreconditionError(f"{ell} is not prime")
    return ell % 36 in MOD36_RESIDUES


def cong_check(delta: Subgroup) -> bool:
    """The exponent congruence 12u = 12t = 6(u+t) mod (ell-1) on a diagonal group.

    It reads 6(u - t) = 0 mod (ell - 1), which cuts out a subgroup of the
    exponent pairs, so it holds on the group exactly when it holds on the
    generators; a non-diagonal group has a non-diagonal generator.
    """
    modulus = delta.n - 1
    for x in delta.generators:
        pair = diagexp_pair(x)  # raises on non-diagonal input
        if 6 * (pair.u - pair.t) % modulus:
            return False
    return True


def _require_full_determinant(g: Subgroup) -> None:
    """The determinant hypothesis of not_bl_check and derive_delta."""
    if len(g.det_image()) != g.n - 1:
        raise PreconditionError("determinant image is not the full unit group")


def _invariant_line_conjugator(g: Subgroup) -> Mat2 | None:
    """T with the conjugated group upper triangular, from a stable projective line."""
    ell = g.n
    for p in ProjPoint.all_points(ell):
        if all(
            ProjPoint.from_vector(ell, *act_row(p.c, p.d, x)) == p for x in g.generators
        ):
            # second row of T^-1 spans the stable line
            tinv = (
                Mat2(ell, 0, 1, p.c, p.d)
                if p.d != 0 or p.c == 0
                else Mat2(ell, 0, 1, 1, 0)
            )
            if not tinv.is_invertible():
                tinv = Mat2(ell, 1, 0, p.c, p.d)
            return mat_inv(tinv)
    return None


def classify_image(g: Subgroup, witness: ProjPoint) -> Conjugation:
    """Place g inside a Borel or a Cartan normalizer, given an odd-index witness."""
    ell = g.n
    if ell < 5:
        raise PreconditionError("classification requires ell >= 5")
    if witness.ell != ell:
        raise PreconditionError(f"modulus mismatch: {ell} vs {witness.ell}")
    idx = orbit_size(g, witness.c, witness.d)
    if idx % 2 == 0:
        raise PreconditionError(f"witness index {idx} is even")
    if g.order % ell == 0:
        t = _invariant_line_conjugator(g)
        if t is None:
            raise LemmaViolationError(
                "group of order divisible by ell has no stable projective line"
            )
        verdict = Conjugation(t, NamedGroupId.BOREL)
        if not verdict.verify(g):
            raise LemmaViolationError("stable-line conjugator misses the Borel group")
        return verdict
    # verified against the same group before it is returned
    return conjugate_into_normalizer(g)


# ---------------------------------------------------------------------------
# inertia realizability: which ramification shapes an image can carry


def admissible_inertia_exponents(g: Subgroup) -> list[int]:
    """Exponents e for which g contains a plausible inertia image: a cyclic
    subgroup with full determinant image carrying the e-shaped ramification
    datum (an element with eigenvalues {1, alpha^e}, or a conjugate of the
    e-th power of the non-split Cartan).

    One pass over the distinct cyclic subgroups reads both shapes off their
    (trace, det) pairs. Sharing a pair with a generator y of <gamma^e>, for
    gamma generating the non-split Cartan, is exact: an x with y's
    characteristic polynomial is conjugate to y, unless y = lam*I and x is
    lam times a shear, and then x^ell = lam*I lies in the same cyclic group.
    """
    ell = g.n
    alpha = primitive_root(ell)
    (gamma,) = named_group(NamedGroupId.NONSPLIT_CARTAN, ell).generators
    shapes = []
    for e in INERTIA_EXPONENTS:
        ae = pow(alpha, e, ell)
        # a one-generator closure finds y^0, y^1, ... in that order
        powers = closure(ell, [gamma**e]).entries
        generators = (y for k, y in enumerate(powers) if math.gcd(k, len(powers)) == 1)
        shapes.append((e, ((1 + ae) % ell, ae), {_trace_det(ell, y) for y in generators}))
    found = set()
    for cyc in _cyclic_subgroups(ell, g.entries):
        pairs = {_trace_det(ell, x) for x in cyc.entries}
        if len({det for _, det in pairs}) == ell - 1:
            found.update(
                e
                for e, eigenpair, nonsplit in shapes
                if eigenpair in pairs or not nonsplit.isdisjoint(pairs)
            )
    return [e for e in INERTIA_EXPONENTS if e in found]


def _trace_det(n: int, x: tuple[int, int, int, int]) -> tuple[int, int]:
    a, b, c, d = x
    return (a + d) % n, (a * d - b * c) % n


def _cartan_power(cart: Subgroup, e: int) -> Subgroup:
    """The e-th powers of an abelian group, such as a Cartan subgroup: x -> x^e
    is then a homomorphism, so they are the closure of the generators' powers."""
    return closure(cart.n, [x**e for x in cart.generators])


@dataclass(frozen=True)
class NotBlReport:
    ambient: str  # "NormSplit" or "NormNonsplit"
    exponent: int
    table: dict[tuple[int, int], tuple[int, int]]  # vector -> (index, small divisor)


def not_bl_check(g: Subgroup, e: int) -> NotBlReport:
    """Verify that every vector-stabilizer index is divisible by 2 or 3, for
    an image with inertia exponent e."""
    if e not in INERTIA_EXPONENTS:
        raise PreconditionError(f"inertia exponent must be one of {INERTIA_EXPONENTS}")
    ell = g.n
    ns = named_group(NamedGroupId.NORM_SPLIT, ell)
    nns = named_group(NamedGroupId.NORM_NONSPLIT, ell)
    cs = named_group(NamedGroupId.SPLIT_CARTAN, ell)
    if g <= nns and not g <= cs:
        ambient = "NormNonsplit"
        cart = named_group(NamedGroupId.NONSPLIT_CARTAN, ell)
    elif g <= ns and not g <= cs:
        ambient = "NormSplit"
        cart = cs
    else:
        raise PreconditionError(
            "group must lie in a Cartan normalizer without being inside the split Cartan"
        )
    _require_full_determinant(g)
    if not _cartan_power(cart, e) <= g:
        raise PreconditionError(
            f"the {e}-th power of the ambient Cartan is not contained in the group"
        )
    if ambient == "NormSplit" and e not in admissible_inertia_exponents(g):
        # no cyclic full-determinant subgroup of g realizes this ramification
        # shape, so g cannot occur as an image under the hypotheses
        raise PreconditionError(
            f"no admissible inertia image with exponent {e} inside the group"
        )
    table = {}
    for vec, idx in exhaustive_spectrum(g).items():
        if idx % 2 == 0:
            table[vec] = (idx, 2)
        elif idx % 3 == 0:
            table[vec] = (idx, 3)
        else:
            raise LemmaViolationError(
                f"stabilizer index {idx} at vector {vec} is coprime to 6"
            )
    return NotBlReport(ambient, e, table)


@dataclass(frozen=True)
class BlVerdict:
    delta_kind: NamedGroupId  # DELTA1 or DELTA2
    divisor: int
    congruence_ok: bool
    mod36_class: int

    def to_dict(self) -> dict:
        return {
            "delta_kind": self.delta_kind.value,
            "divisor": self.divisor,
            "congruence_ok": self.congruence_ok,
            "mod36_class": self.mod36_class,
        }


def stripped_diagonal(g: Subgroup) -> Subgroup:
    """Image of an upper-triangular group under the diagonal projection.

    The projection is a homomorphism on upper-triangular matrices, and the
    image of a group under a homomorphism is the set of its elements'
    images, already a group: so the diagonals of the entries are wrapped
    as they are, with no closure and no Mat2 per element.
    """
    for entry in g.entries:
        if entry[2] != 0:
            raise PreconditionError(f"element with entries {entry} is not upper triangular")
    return subgroup_from_entries(g.n, ((a, 0, 0, d) for a, _, _, d in g.entries))


def derive_delta(g: Subgroup) -> BlVerdict:
    """Identify the diagonal part of a Borel image as one of the two derived
    diagonal groups, and verify its consequences."""
    return _delta_verdict(g, _bl_candidate_spectrum(g))


def _bl_candidate_spectrum(g: Subgroup) -> dict[tuple[int, int], int]:
    """Check the hypotheses of derive_delta on g, in order, and return the
    exhaustive spectrum of g, which the last of them reads."""
    ell = g.n
    if not g <= named_group(NamedGroupId.BOREL, ell):
        raise PreconditionError("group is not contained in the Borel subgroup")
    if ell < 11:
        raise PreconditionError("derivation requires ell >= 11")
    _require_full_determinant(g)
    if not cong_check(stripped_diagonal(g)):
        raise PreconditionError("exponent congruence fails on the diagonal image")
    spectrum = exhaustive_spectrum(g)
    if not any(math.gcd(idx, 6) == 1 for idx in spectrum.values()):
        raise PreconditionError("no stabilizer index coprime to 6")
    return spectrum


def _delta_verdict(g: Subgroup, spectrum: dict[tuple[int, int], int]) -> BlVerdict:
    """derive_delta on a group that passed _bl_candidate_spectrum, which
    returned this spectrum."""
    ell = g.n
    if unipotent(ell) not in g:
        if not admissible_inertia_exponents(g):
            raise PreconditionError(
                "no admissible inertia image; the group cannot occur as a"
                " Galois image under the hypotheses"
            )
        raise LemmaViolationError(
            "shear absent from a Borel image despite an admissible inertia shape"
        )
    delta = {x for x in g.entries if x[1] == 0 and x[2] == 0}
    if delta == set(named_group(NamedGroupId.DELTA1, ell).entries):
        kind = NamedGroupId.DELTA1
    elif delta == set(named_group(NamedGroupId.DELTA2, ell).entries):
        kind = NamedGroupId.DELTA2
    else:
        raise LemmaViolationError(
            f"diagonal part of order {len(delta)} matches neither derived group"
        )
    divisor = (ell - 1) // (2 * tau(ell))
    for vec, idx in spectrum.items():
        if idx % divisor != 0:
            raise LemmaViolationError(
                f"index {idx} at {vec} is not divisible by {divisor}"
            )
    congruence_ok = ell % 4 == 3 and ell % 9 != 1
    if not congruence_ok:
        raise LemmaViolationError(f"residue conditions fail for ell = {ell}")
    mod36_class = ell % 36
    if mod36_class not in MOD36_RESIDUES:
        raise LemmaViolationError(f"mod-36 class {mod36_class} outside expected set")
    return BlVerdict(kind, divisor, congruence_ok, mod36_class)
