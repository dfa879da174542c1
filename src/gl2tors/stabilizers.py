"""Right action on row vectors: stabilizers and degree spectra."""
from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice, product

import numpy as np

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError
from .modarith import Mat2, _check_odd_prime
from .groups import EXHAUSTIVE_SPECTRUM_CAP, Subgroup, subgroup_from_entries


@dataclass(frozen=True, order=True)
class ProjPoint:
    """A point of the projective line over F_ell, held as a canonical row vector.

    The representative is (1, s) for affine points and (0, 1) for the point
    at infinity of the row action.
    """

    ell: int
    c: int
    d: int

    def __post_init__(self):
        _check_odd_prime(self.ell)
        if not ((self.c == 1 and 0 <= self.d < self.ell) or (self.c, self.d) == (0, 1)):
            raise PreconditionError(f"({self.c},{self.d}) is not a canonical representative")

    @staticmethod
    def from_vector(ell: int, c: int, d: int) -> "ProjPoint":
        _check_odd_prime(ell)
        c, d = c % ell, d % ell
        if (c, d) == (0, 0):
            raise PreconditionError("the zero vector spans no projective point")
        if c == 0:
            return ProjPoint(ell, 0, 1)
        return ProjPoint(ell, 1, d * pow(c, -1, ell) % ell)

    @staticmethod
    def all_points(ell: int) -> list["ProjPoint"]:
        """The ell + 1 points in sorted order, (0:1) first. ell is checked
        once, and the points, canonical by construction, skip __post_init__."""
        _check_odd_prime(ell)
        points = []
        for c, d in [(0, 1), *((1, s) for s in range(ell))]:
            p = object.__new__(ProjPoint)
            vars(p).update(ell=ell, c=c, d=d)
            points.append(p)
        return points

    def __repr__(self):
        return f"({self.c}:{self.d})"


def vector_stabilizer(g: Subgroup, c: int, d: int) -> Subgroup:
    """Elements of g fixing the row vector (c d) itself, not just its line."""
    _check_odd_prime(g.n)
    n = g.n
    c, d = c % n, d % n
    fixed = [
        e for e in g.entries if (c * e[0] + d * e[2]) % n == c and (c * e[1] + d * e[3]) % n == d
    ]
    return subgroup_from_entries(n, fixed)


def stabilizer(g: Subgroup, p: ProjPoint) -> Subgroup:
    if g.n != p.ell:
        raise PreconditionError(f"modulus mismatch: {g.n} vs {p.ell}")
    return vector_stabilizer(g, p.c, p.d)


def sl_part(g: Subgroup) -> Subgroup:
    """Intersection with the determinant-1 subgroup."""
    _check_odd_prime(g.n)
    n = g.n
    det1 = [(a, b, c, d) for a, b, c, d in g.entries if (a * d - b * c) % n == 1]
    return subgroup_from_entries(n, det1)


class UnipotentClass(Enum):
    TRIVIAL = "Trivial"
    ORDER_ELL = "OrderEll"


@dataclass(frozen=True)
class UnipotentResult:
    kind: UnipotentClass
    conjugator: Mat2 | None  # T with T^-1 <U> T equal to the stabilizer, if non-trivial


def unipotent_class(g: Subgroup, p: ProjPoint) -> UnipotentResult:
    """Classify the det-1 vector stabilizer: trivial, or order ell conjugate to the shear."""
    if g.n != p.ell:
        raise PreconditionError(f"modulus mismatch: {g.n} vs {p.ell}")
    _check_odd_prime(g.n)
    ell = g.n
    c, d = p.c, p.d
    # one pass over the group's entries: the det-1 elements fixing (c d)
    det1 = [
        e
        for e in g.entries
        if (c * e[0] + d * e[2]) % ell == c
        and (c * e[1] + d * e[3]) % ell == d
        and (e[0] * e[3] - e[1] * e[2]) % ell == 1
    ]
    if len(det1) == 1:
        return UnipotentResult(UnipotentClass.TRIVIAL, None)
    if len(det1) != ell:
        raise LemmaViolationError(
            f"det-1 stabilizer of {p} in a group of order {g.order} has order {len(det1)}"
        )
    gen = next(e for e in det1 if e != (1, 0, 0, 1))
    # det 1 and trace 2 give (gen - I)^2 = 0 by Cayley-Hamilton, so
    # gen^k = I + k (gen - I) and gen != I has order ell
    if (gen[0] + gen[3]) % ell != 2:
        a, b, c_, d_ = gen
        raise LemmaViolationError(
            f"non-unipotent generator [[{a},{b}],[{c_},{d_}]] mod {ell} in det-1 stabilizer"
        )
    return UnipotentResult(UnipotentClass.ORDER_ELL, _unipotent_conjugator(ell, gen))


def _unipotent_conjugator(ell: int, gen: tuple[int, int, int, int]) -> Mat2:
    """T with T^-1 gen T = (1 1; 0 1), built from the nilpotent part of gen,
    the reduced entries of a unipotent element other than I.

    gen - I is rank one and squares to zero, so T = (Ms2 | s2) for any column
    s2 outside the kernel of M := gen - I. Only the T returned is built as a
    Mat2.
    """
    a, b, c, d = gen
    m_a, m_b, m_c, m_d = a - 1, b, c, d - 1
    for s2 in ((1, 0), (0, 1)):
        s1 = ((m_a * s2[0] + m_b * s2[1]) % ell, (m_c * s2[0] + m_d * s2[1]) % ell)
        if s1 != (0, 0) and (s1[0] * s2[1] - s2[0] * s1[1]) % ell:
            return Mat2._reduced(ell, s1[0], s2[0], s1[1], s2[1])
    raise LemmaViolationError(f"no conjugator onto the shear for [[{a},{b}],[{c},{d}]] mod {ell}")


@dataclass(frozen=True)
class DegreeSpectrum:
    """Stabilizer indices over the projective line plus the det-1 index."""

    group_order: int
    entries: dict[ProjPoint, int]
    sl_index: int

    def odd_index_point(self) -> ProjPoint | None:
        """The first point, in sorted order, whose stabilizer index is odd."""
        return next((p for p in sorted(self.entries) if self.entries[p] % 2 == 1), None)


def _orbit_indices(ell: int, entries: np.ndarray) -> array:
    """[G : Stab(v)] at the representative v of each projective point, in
    ProjPoint.all_points order, for the group G with these entries.

    By orbit-stabilizer the index is the size of v's orbit, and it is the
    same for every vector in that orbit. The labels are indexed by the row
    vector code c*ell + d. The representatives (0, 1) and (1, s) have codes
    1 and ell..2ell-1, so labels below 2ell, -1 at the codes 0 and 2..ell-1
    (which a pass may overwrite), cover them in O(ell) memory. One numpy
    pass over the elements gives the images of the next seed, the first 0
    label, which `labels.index` finds in one C scan; numpy labels every
    image coded below 2ell with the index, so each orbit costs one pass and
    no Python step per representative. No generating set is used: a
    filtered group carries every element as a generator.
    """
    a, b, c, d = entries
    order = entries.shape[1]
    labels = array("q", [-1, 0]) + array("q", [-1]) * (ell - 2) + array("q", [0]) * ell
    marks = np.frombuffer(labels, dtype=np.int64)
    # the first seed is (0 1), whose image under x is the reduced second row
    # of x; a later seed is some (1 s), whose image is (a + s c, b + s d)
    v, images = 1, c * ell + d
    while True:
        marks[images[images < 2 * ell]] = order // int(np.count_nonzero(images == v))
        try:
            v = labels.index(0, v)
        except ValueError:  # every representative is labelled
            return labels[1:2] + labels[ell:]
        s = v - ell
        images = (a + s * c) % ell * ell + (b + s * d) % ell


def orbit_size(g: Subgroup, c: int, d: int) -> int:
    """[g : Stab(v)] for the nonzero row vector v = (c d): the size of v's orbit."""
    _check_odd_prime(g.n)
    c, d = c % g.n, d % g.n
    if (c, d) == (0, 0):
        raise PreconditionError("the zero vector has no degree")
    a, b, c_, d_ = g.entry_array
    fixed = ((c * a + d * c_) % g.n == c) & ((c * b + d * d_) % g.n == d)
    return g.order // int(np.count_nonzero(fixed))


def line_indices(g: Subgroup) -> array:
    """[g : Stab(v)] at the representative v of each projective point, in
    ProjPoint.all_points order.

    The index is the same at every vector of a line, since Stab(lam v) =
    Stab(v), so these are the degrees of all the points of E[ell].
    """
    _check_odd_prime(g.n)
    return _orbit_indices(g.n, g.entry_array)


def degree_spectrum(g: Subgroup) -> DegreeSpectrum:
    """Index of each projective-representative stabilizer, plus [g : g ∩ SL2]."""
    entries = dict(zip(ProjPoint.all_points(g.n), line_indices(g)))
    # g / (g ∩ SL2) is the determinant image
    return DegreeSpectrum(g.order, entries, len(g.det_image()))


@functools.cache
def _vector_lines(ell: int) -> np.ndarray:
    """The place in ProjPoint.all_points of the line of each nonzero row
    vector (c d), in ascending (c, d) order: 0 for c = 0, else 1 + d/c."""
    inverses = np.array([pow(c, -1, ell) for c in range(1, ell)])
    affine = np.outer(inverses, np.arange(ell)) % ell + 1
    lines = np.concatenate((np.zeros(ell - 1, np.intp), affine.ravel()))
    lines.flags.writeable = False
    return lines


def exhaustive_indices(g: Subgroup) -> array:
    """[g : Stab(v)] for every nonzero row vector v = (c d), in ascending (c, d) order.

    The cap is checked before any work. Each vector reads its line's index
    from line_indices, the passes that degree_spectrum makes.
    """
    _check_odd_prime(g.n)
    ell = g.n
    if ell * ell - 1 > EXHAUSTIVE_SPECTRUM_CAP:
        raise ResourceLimitError(
            f"exhaustive spectrum mod {ell} has {ell * ell - 1} vectors,"
            f" over the cap of {EXHAUSTIVE_SPECTRUM_CAP}"
        )
    lines = np.frombuffer(line_indices(g), dtype=np.int64)
    return array("q", lines[_vector_lines(ell)].tobytes())


def exhaustive_spectrum(g: Subgroup) -> dict[tuple[int, int], int]:
    """Stabilizer index for every nonzero row vector, not just line
    representatives, keyed in ascending (c, d) order."""
    return dict(zip(islice(product(range(g.n), repeat=2), 1, None), exhaustive_indices(g)))
