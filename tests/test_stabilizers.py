from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gl2tors import stabilizers
from gl2tors.errors import LemmaViolationError, PreconditionError, ResourceLimitError
from gl2tors.modarith import Mat2, element_order, mat_inv, mat_mul, unipotent
from gl2tors.groups import (
    EXHAUSTIVE_SPECTRUM_CAP,
    NamedGroupId,
    closure,
    named_group,
    subgroup_from_entries,
)
from gl2tors.stabilizers import (
    ProjPoint,
    UnipotentClass,
    UnipotentResult,
    degree_spectrum,
    exhaustive_indices,
    exhaustive_spectrum,
    orbit_size,
    sl_part,
    stabilizer,
    unipotent_class,
    vector_stabilizer,
)
from gl2tors.verify import _gl2_table, _gl2_two_generated


def _exhaustive_spectrum_reference(g):
    """Stabilizer index of every nonzero row vector, counting the elements that
    fix each vector in turn: the slow reference for the orbit routine."""
    ell = g.n
    elems = list(g.elements)
    a = np.array([x.a for x in elems], dtype=np.int64)
    b = np.array([x.b for x in elems], dtype=np.int64)
    c_ = np.array([x.c for x in elems], dtype=np.int64)
    d_ = np.array([x.d for x in elems], dtype=np.int64)
    out = {}
    for c in range(ell):
        for d in range(ell):
            if (c, d) == (0, 0):
                continue
            fixed = np.count_nonzero(
                ((c * a + d * c_) % ell == c) & ((c * b + d * d_) % ell == d)
            )
            out[(c, d)] = g.order // int(fixed)
    return out


def _vector_orbit_indices(g):
    """[g : Stab(v)] for every nonzero row vector v, in ascending (c, d)
    order, from one numpy pass per orbit of all ell^2 - 1 vectors, each
    labelling every vector of its orbit: the reference for
    exhaustive_indices, which makes the passes of the ell + 1 line
    representatives alone and reads each vector's index off its line."""
    ell = g.n
    a, b, c_, d_ = g.entry_array
    labels = np.zeros(ell * ell, np.int64)
    for v in range(1, ell * ell):
        if labels[v] == 0:
            c, d = divmod(v, ell)
            images = (c * a + d * c_) % ell * ell + (c * b + d * d_) % ell
            labels[images] = g.order // int(np.count_nonzero(images == v))
    return array("q", labels[1:].tobytes())


def _enumerated_groups():
    """Every two-generated subgroup of GL2(F_5) and GL2(F_7), as the easy-d
    and classify harnesses enumerate them (461 and 1704)."""
    for ell in (5, 7):
        table = _gl2_table(ell)
        for ids in _gl2_two_generated(ell):
            yield table.to_subgroup(ids)


def _gl2(ell):
    return subgroup_from_entries(
        ell,
        [
            (a, b, c, d)
            for a in range(ell)
            for b in range(ell)
            for c in range(ell)
            for d in range(ell)
            if (a * d - b * c) % ell != 0
        ],
    )


def test_proj_points_count():
    """all_points lists the ell + 1 points once each, in sorted order: the
    order in which odd_index_point and the classify harness look for a witness."""
    for ell in (5, 7, 11, 13):
        pts = ProjPoint.all_points(ell)
        assert len(pts) == ell + 1
        assert len(set(pts)) == ell + 1
        assert pts == sorted(pts)


def test_proj_point_normalization():
    assert ProjPoint.from_vector(5, 2, 3) == ProjPoint(5, 1, 4)
    assert ProjPoint.from_vector(5, 0, 2) == ProjPoint(5, 0, 1)
    with pytest.raises(PreconditionError):
        ProjPoint.from_vector(5, 0, 0)


def test_borel_stabilizer_example():
    borel = named_group(NamedGroupId.BOREL, 5)
    stab = stabilizer(borel, ProjPoint(5, 0, 1))
    assert stab.order == 20
    assert all(x.d == 1 for x in stab.elements)
    assert borel.order // stab.order == 4


def test_stabilizer_fixes_vector_not_line():
    borel = named_group(NamedGroupId.BOREL, 5)
    stab = stabilizer(borel, ProjPoint(5, 0, 1))
    for x in stab.elements:
        # the row vector (0 1) times x is the second row of x
        assert (x.c, x.d) == (0, 1)


def test_trivial_group_stabilizer():
    g = subgroup_from_entries(7, [(1, 0, 0, 1)])
    for p in ProjPoint.all_points(7):
        assert stabilizer(g, p).order == 1


def test_sl_part_gl2():
    g = _gl2(5)
    part = sl_part(g)
    assert g.order // part.order == 4
    assert part.elements == named_group(NamedGroupId.SL2, 5).elements


def test_sl_part_shear():
    g = closure(7, [(1, 1, 0, 1)])
    assert sl_part(g).elements == g.elements


def test_sl_part_nonsplit_normalizer():
    g = named_group(NamedGroupId.NORM_NONSPLIT, 5)
    assert g.order // sl_part(g).order == 4


def test_sl_index_equals_det_image_size():
    for gid in (NamedGroupId.BOREL, NamedGroupId.NORM_SPLIT, NamedGroupId.SL2):
        g = named_group(gid, 7)
        assert g.order // sl_part(g).order == len(g.det_image())


def test_unipotent_class_borel():
    borel = named_group(NamedGroupId.BOREL, 5)
    res = unipotent_class(borel, ProjPoint(5, 0, 1))
    assert res.kind is UnipotentClass.ORDER_ELL
    # conjugator witness really maps onto the shear
    t = res.conjugator
    stab_det1 = [
        x for x in stabilizer(borel, ProjPoint(5, 0, 1)).elements if x.det() == 1
    ]
    conj = {mat_mul(mat_mul(mat_inv(t), x), t) for x in stab_det1}
    assert conj == {unipotent(5) ** k for k in range(5)}


def test_unipotent_class_split_cartan():
    cs = named_group(NamedGroupId.SPLIT_CARTAN, 5)
    res = unipotent_class(cs, ProjPoint(5, 0, 1))
    assert res.kind is UnipotentClass.TRIVIAL


def test_degree_spectrum_gl2():
    spec = degree_spectrum(_gl2(5))
    assert set(spec.entries.values()) == {24}
    assert spec.sl_index == 4


def test_degree_spectrum_delta_u1():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    spec = degree_spectrum(g)
    assert spec.entries[ProjPoint(11, 0, 1)] == 10
    for k in range(11):
        assert spec.entries[ProjPoint(11, 1, k)] == 55
    assert spec.sl_index == 10


def test_degree_spectrum_trivial():
    g = subgroup_from_entries(7, [(1, 0, 0, 1)])
    assert set(degree_spectrum(g).entries.values()) == {1}


def test_orbit_stabilizer_identity():
    for gid in (NamedGroupId.BOREL, NamedGroupId.NORM_NONSPLIT, NamedGroupId.DELTA_U1):
        g = named_group(gid, 11)
        for p in ProjPoint.all_points(11):
            stab = stabilizer(g, p)
            assert stab.order * (g.order // stab.order) == g.order


def test_exhaustive_spectrum_scaling_can_differ_from_representative():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    spec = exhaustive_spectrum(g)
    assert len(spec) == 120
    assert spec[(0, 1)] == 10
    assert spec[(1, 0)] == 55


def test_exhaustive_spectrum_agrees_with_vector_stabilizer():
    g = named_group(NamedGroupId.NORM_SPLIT, 5)
    spec = exhaustive_spectrum(g)
    for (c, d), idx in spec.items():
        assert idx == g.order // vector_stabilizer(g, c, d).order


def _matrix(ell: int):
    entry = st.integers(0, ell - 1)
    return st.builds(lambda a, b, c, d: Mat2(ell, a, b, c, d), entry, entry, entry, entry).filter(
        Mat2.is_invertible
    ).map(Mat2.entries)


@st.composite
def _two_generated_group(draw):
    """⟨x, y⟩ ≤ GL2(F_ell) for ell in {5, 7, 11}."""
    ell = draw(st.sampled_from([5, 7, 11]))
    return closure(ell, [draw(_matrix(ell)), draw(_matrix(ell))])


@settings(max_examples=40, deadline=None)
@given(_two_generated_group())
def test_spectra_match_reference(g):
    reference = _exhaustive_spectrum_reference(g)
    # the closure keeps two generators; the rebuilt group has every element as one
    for h in (g, subgroup_from_entries(g.n, g.entries)):
        assert exhaustive_spectrum(h) == reference
        spec = degree_spectrum(h)
        assert spec.entries == {p: reference[(p.c, p.d)] for p in ProjPoint.all_points(g.n)}
        # a numpy integer here would reach the CLI's JSON as a string
        assert type(spec.sl_index) is int and spec.sl_index == g.order // sl_part(g).order


@st.composite
def _many_orbit_group(draw):
    """A cyclic or scalar subgroup of GL2(F_ell) for ell in {5, 7, 11, 13}:
    small groups with many orbits of different sizes on the nonzero vectors."""
    ell = draw(st.sampled_from([5, 7, 11, 13]))
    if draw(st.booleans()):
        return closure(ell, [draw(_matrix(ell))])
    lam = draw(st.integers(1, ell - 1))
    return closure(ell, [(lam, 0, 0, lam)])


@settings(max_examples=60, deadline=None)
@given(_many_orbit_group())
def test_spectra_of_many_orbit_groups_match_reference(g):
    """Each orbit is labelled once and read back at its other vectors, so a
    vector must get the index of its own orbit, not of the orbit labelled
    before it."""
    reference = _exhaustive_spectrum_reference(g)
    spectrum = exhaustive_spectrum(g)
    assert spectrum == reference and list(spectrum) == sorted(reference)
    spec = degree_spectrum(g)
    assert spec.entries == {p: reference[(p.c, p.d)] for p in ProjPoint.all_points(g.n)}
    for (c, d), idx in reference.items():
        assert orbit_size(g, c, d) == idx


@st.composite
def _exhaustive_group(draw):
    """A subgroup of GL2(F_ell) for ell in {3, 5, 7, 11, 13}: the trivial
    group (one orbit per nonzero vector), the non-split Cartan (one orbit
    of all of them), a split Cartan power, or the closure of one to three
    drawn matrices."""
    ell = draw(st.sampled_from([3, 5, 7, 11, 13]))
    kind = draw(st.sampled_from(["trivial", "nonsplit", "split power", "drawn"]))
    if kind == "trivial":
        return closure(ell, [])
    if kind == "nonsplit":
        return named_group(NamedGroupId.NONSPLIT_CARTAN, ell)
    if kind == "split power":
        k = draw(st.integers(1, ell - 1))
        split = named_group(NamedGroupId.SPLIT_CARTAN, ell)
        return closure(ell, [(x**k).entries() for x in split.generators])
    return closure(ell, draw(st.lists(_matrix(ell), min_size=1, max_size=3)))


@settings(max_examples=80, deadline=None)
@given(_exhaustive_group())
@example(closure(13, []))
@example(named_group(NamedGroupId.NONSPLIT_CARTAN, 13))
def test_exhaustive_indices_match_reference(g):
    """exhaustive_indices, which finds each orbit's seed by a C scan of its
    labels, lists the reference index of every nonzero vector in ascending
    (c, d) order, as plain ints, on the group and on its wrapped entries.
    The examples are the two ends: one pass per vector, and one pass for
    all of them."""
    reference = _exhaustive_spectrum_reference(g)
    for h in (g, subgroup_from_entries(g.n, g.entries)):
        indices = exhaustive_indices(h)
        assert list(indices) == [reference[v] for v in sorted(reference)]
        assert {type(i) for i in indices} == {int}


def test_exhaustive_spectrum_of_the_trivial_group_at_the_cap():
    """The trivial group at ell = 313 has 97,968 orbits of one vector each,
    the most passes an exhaustive spectrum can take: one per orbit."""
    spec = exhaustive_spectrum(closure(313, []))
    assert len(spec) == 313 * 313 - 1 and set(spec.values()) == {1}


@settings(max_examples=30, deadline=None)
@given(_two_generated_group())
def test_unipotent_class_matches_stabilizer_reference(g):
    ell = g.n
    shear_group = {unipotent(ell) ** k for k in range(ell)}
    for p in ProjPoint.all_points(ell):
        # the det-1 stabilizer from a scan of the Mat2 elements is the reference
        det1 = {
            x
            for x in g.elements
            if ((p.c * x.a + p.d * x.c) % ell, (p.c * x.b + p.d * x.d) % ell) == (p.c, p.d)
            and x.det() == 1
        }
        assert sl_part(stabilizer(g, p)).elements == det1
        for h in (g, subgroup_from_entries(ell, g.entries)):
            res = unipotent_class(h, p)
            if len(det1) == 1:
                assert res.kind is UnipotentClass.TRIVIAL and res.conjugator is None
            else:
                assert res.kind is UnipotentClass.ORDER_ELL
                t = res.conjugator
                assert {mat_mul(mat_mul(mat_inv(t), x), t) for x in det1} == shear_group


def test_orbit_size_matches_vector_stabilizer():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    for c, d in ((1, 0), (0, 1), (3, 7), (-1, 12)):
        assert orbit_size(g, c, d) == g.order // vector_stabilizer(g, c, d).order
    with pytest.raises(PreconditionError):
        orbit_size(g, 11, 0)


def test_exhaustive_spectrum_cap():
    ell = 317  # the least prime with ell^2 - 1 over the cap
    assert ell * ell - 1 > EXHAUSTIVE_SPECTRUM_CAP > 313 * 313 - 1
    g = closure(ell, [(1, 1, 0, 1)])
    with pytest.raises(ResourceLimitError):
        exhaustive_spectrum(g)
    assert len(exhaustive_spectrum(closure(313, [(1, 1, 0, 1)]))) == 313 * 313 - 1
    spec = degree_spectrum(g)
    assert spec.entries[ProjPoint(ell, 0, 1)] == 1
    assert set(spec.entries.values()) == {1, ell}


def test_exhaustive_indices_match_vector_orbits_on_enumerated_groups():
    """On every enumerated subgroup mod 5 and 7, the line-based indices
    equal the vector-orbit reference, as an array('q') of plain ints."""
    count = 0
    for g in _enumerated_groups():
        indices = exhaustive_indices(g)
        assert type(indices) is array and indices.typecode == "q"
        assert indices == _vector_orbit_indices(g)
        count += 1
    assert count == 461 + 1704


@st.composite
def _line_group(draw):
    """A subgroup of GL2(F_ell) for ell in {3, 11, 13, 47, 313}: the
    closure of one or two drawn matrices at 3, 11 and 13; at 47 and 313,
    where two random matrices generate groups of 10^5 elements and more, the
    closure of one drawn matrix, the trivial group, or a named group."""
    ell = draw(st.sampled_from([3, 11, 13, 47, 313]))
    if ell <= 13:
        return closure(ell, draw(st.lists(_matrix(ell), min_size=1, max_size=2)))
    kind = draw(st.sampled_from(["cyclic", "trivial", "named"]))
    if kind == "cyclic":
        return closure(ell, [draw(_matrix(ell))])
    if kind == "trivial":
        return closure(ell, [])
    gid = draw(st.sampled_from([NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN]))
    return named_group(gid, ell)


@settings(max_examples=60, deadline=None)
@given(_line_group())
@example(closure(13, [(2, 0, 0, 1)]))
def test_exhaustive_indices_match_vector_orbits(g):
    """The line-based indices equal the vector-orbit reference on drawn
    groups up to the cap's ell = 313. The example, <diag(2, 1)> mod 13, has
    25 vector orbits and 3 line orbits."""
    assert exhaustive_indices(g) == _vector_orbit_indices(g)


def test_exhaustive_indices_check_the_cap_before_any_pass(monkeypatch):
    """Past EXHAUSTIVE_SPECTRUM_CAP exhaustive_indices raises before any
    orbit pass, before it reads the group's entries and before it builds the
    per-ell map from vectors to lines."""

    def forbidden(*args):
        raise AssertionError("work done past the cap")

    g = closure(317, [(1, 1, 0, 1)])
    monkeypatch.setattr(stabilizers, "_orbit_indices", forbidden)
    monkeypatch.setattr(stabilizers, "_vector_lines", forbidden)
    monkeypatch.setattr(type(g), "entry_array", property(forbidden))
    with pytest.raises(ResourceLimitError, match="over the cap"):
        exhaustive_indices(g)


def _unipotent_class_reference(g, p):
    """unipotent_class on the Mat2 path: the generator built as a Mat2, its
    order found by element_order, and the conjugator built before its
    invertibility is tested."""
    ell = g.n
    det1 = [
        x
        for x in g.entries
        if ((p.c * x[0] + p.d * x[2]) % ell, (p.c * x[1] + p.d * x[3]) % ell) == (p.c, p.d)
        and (x[0] * x[3] - x[1] * x[2]) % ell == 1
    ]
    if len(det1) == 1:
        return UnipotentResult(UnipotentClass.TRIVIAL, None)
    if len(det1) != ell:
        raise LemmaViolationError("det-1 stabilizer of the wrong order")
    gen = Mat2(ell, *next(e for e in det1 if e != (1, 0, 0, 1)))
    if gen.trace() != 2 or element_order(gen) != ell:
        raise LemmaViolationError("non-unipotent generator")
    for s2 in ((1, 0), (0, 1)):
        s1 = (
            ((gen.a - 1) * s2[0] + gen.b * s2[1]) % ell,
            (gen.c * s2[0] + (gen.d - 1) * s2[1]) % ell,
        )
        if s1 != (0, 0):
            t = Mat2(ell, s1[0], s2[0], s1[1], s2[1])
            if t.is_invertible():
                return UnipotentResult(UnipotentClass.ORDER_ELL, t)
    raise LemmaViolationError("no conjugator")


def test_unipotent_class_matches_the_mat2_path_on_enumerated_groups():
    """On every enumerated subgroup mod 5 and 7 and at every point, the
    order-ell decision on the entry tuple gives the Mat2 path's kind and the
    same conjugator."""
    kinds = {UnipotentClass.TRIVIAL: 0, UnipotentClass.ORDER_ELL: 0}
    for g in _enumerated_groups():
        for p in ProjPoint.all_points(g.n):
            res = unipotent_class(g, p)
            assert res == _unipotent_class_reference(g, p)
            kinds[res.kind] += 1
    assert all(kinds.values())
