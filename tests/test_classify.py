import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy import primerange

from gl2tors import classify
from gl2tors.errors import PreconditionError
from gl2tors.modarith import Mat2, element_order, mat_inv, mat_mul, primitive_root, unipotent
from gl2tors.groups import (
    NamedGroupId,
    Subgroup,
    closure,
    diagexp_pair,
    diagexp_span,
    named_group,
    subgroup_from_entries,
)
from gl2tors.lemmas import (
    Conjugation,
    _gl2_elements,
    conjugate_into_cartan,
    conjugate_into_normalizer,
)
from gl2tors.stabilizers import ProjPoint, sl_part
from gl2tors.verify import (
    _MulTable,
    _gl2_table,
    _gl2_two_generated,
    _subgroups_between,
    run_harness,
)
from gl2tors.classify import (
    INERTIA_EXPONENTS,
    _cartan_power,
    admissible_inertia_exponents,
    classify_image,
    cong_check,
    derive_delta,
    mod36_filter,
    not_bl_check,
    stripped_diagonal,
)


def test_mod36_examples():
    assert mod36_filter(11) is True
    assert mod36_filter(19) is False
    assert mod36_filter(43) is True


def test_mod36_rejects_composite():
    with pytest.raises(PreconditionError):
        mod36_filter(15)


def test_mod36_equivalent_descriptions():
    for ell in primerange(5, 10**4):
        direct = ell % 36 in {7, 11, 23, 31, 35}
        residues = ell % 4 == 3 and ell % 9 != 1 and ell != 3
        assert direct == residues


def test_cong_check_examples():
    assert cong_check(named_group(NamedGroupId.DELTA1, 11)) is True
    assert cong_check(named_group(NamedGroupId.SPLIT_CARTAN, 11)) is False
    trivial = subgroup_from_entries(11, [(1, 0, 0, 1)])
    assert cong_check(trivial) is True


def test_cong_check_rejects_nondiagonal():
    with pytest.raises(PreconditionError):
        cong_check(closure(11, [(1, 1, 0, 1)]))


def _cong_check_reference(delta: Subgroup) -> bool:
    """The congruence on every element: the reference for cong_check, which
    reads the generators only."""
    modulus = delta.n - 1
    for x in delta.elements:
        pair = diagexp_pair(x)
        u, t = pair.u, pair.t
        if (12 * u - 6 * (u + t)) % modulus or (12 * t - 6 * (u + t)) % modulus:
            return False
    return True


@st.composite
def _diagonal_group(draw):
    ell = draw(st.sampled_from([5, 7, 11, 13, 23, 29]))
    exponent = st.integers(0, ell - 2)
    g = diagexp_span(ell, draw(st.lists(st.tuples(exponent, exponent), max_size=3)))
    if draw(st.booleans()):
        # every element is a generator, as in the groups the bl harness enumerates
        g = subgroup_from_entries(ell, g.entries)
    return g


@settings(max_examples=100, deadline=None)
@given(_diagonal_group())
def test_cong_check_matches_elementwise(g):
    assert cong_check(g) == _cong_check_reference(g)


def _normalizer_reference(h: Subgroup) -> Conjugation:
    """conjugate_into_normalizer on the Mat2 path: -I built as a Mat2 and
    looked up in the determinant-1 part."""
    ell, h0 = h.n, sl_part(h)
    minus_i = Mat2.diag(ell, -1, -1)
    if not (h0.order % 2 == 1 or (h0.order % 4 == 2 and minus_i in h0)) or h0.order % ell == 0:
        raise PreconditionError("determinant-1 part refused")
    emb = conjugate_into_cartan(h if h0.order == 1 or (h0.order == 2 and minus_i in h0) else h0)
    split = emb.target is NamedGroupId.SPLIT_CARTAN
    return Conjugation(emb.conjugator, NamedGroupId.NORM_SPLIT if split else NamedGroupId.NORM_NONSPLIT)


def _cong_check_mat2(delta: Subgroup) -> bool:
    """cong_check on the Mat2 path: diagexp_pair on each Mat2 generator in
    turn, so a non-diagonal generator raises only if no earlier one fails."""
    for x in delta.generators:
        pair = diagexp_pair(x)
        if 6 * (pair.u - pair.t) % (delta.n - 1):
            return False
    return True


def _outcome(f, *args):
    """f(*args), or the PreconditionError class if it raises one."""
    try:
        return f(*args)
    except PreconditionError:
        return PreconditionError


def test_tuple_decisions_match_the_mat2_path_on_enumerated_groups():
    """On every two-generated subgroup of GL2(F_5) and GL2(F_7): cong_check,
    which reads generator entries through _dlog_table, agrees with
    diagexp_pair on the Mat2 generators, on the group's diagonal part and on
    the group itself (both raise on a non-diagonal group); the shear test
    of _delta_verdict and the -I test of conjugate_into_normalizer, entry
    tuples looked up in the entry set, agree with Mat2 membership, and the
    normalizer lemma returns the Mat2 path's conjugator."""
    placed = 0
    for ell in (5, 7):
        table = _gl2_table(ell)
        for ids in _gl2_two_generated(ell):
            g = table.to_subgroup(ids)
            diagonal = subgroup_from_entries(ell, (x for x in g.entries if x[1] == x[2] == 0))
            for delta in (diagonal, g):
                assert _outcome(cong_check, delta) == _outcome(_cong_check_mat2, delta)
            assert ((1, 1, 0, 1) in g._entry_set) == (unipotent(ell) in g)
            h0 = sl_part(g)
            assert ((ell - 1, 0, 0, ell - 1) in h0._entry_set) == (Mat2.diag(ell, -1, -1) in h0)
            got = _outcome(conjugate_into_normalizer, g)
            assert got == _outcome(_normalizer_reference, g)
            placed += got is not PreconditionError
    assert placed > 0


def test_classify_rejects_even_witness():
    borel = named_group(NamedGroupId.BOREL, 11)
    with pytest.raises(PreconditionError):
        classify_image(borel, ProjPoint(11, 0, 1))


def test_classify_borel_case():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    verdict = classify_image(g, ProjPoint(11, 1, 0))  # index 55, odd
    assert verdict.target is NamedGroupId.BOREL
    assert verdict.verify(g)


def test_classify_split_case():
    alpha = primitive_root(11)
    g = closure(11, [(alpha, 0, 0, 1)])
    verdict = classify_image(g, ProjPoint(11, 0, 1))  # the fixed vector, index 1
    assert verdict.target is NamedGroupId.NORM_SPLIT
    assert verdict.verify(g)


def test_classify_nonsplit_case():
    cns = named_group(NamedGroupId.NONSPLIT_CARTAN, 11)
    gen = next(x for x in cns.elements if element_order(x) == 120)
    t = Mat2(11, 2, 3, 1, 4)
    h = closure(11, [(gen**8).entries()])  # order 15
    conj = subgroup_from_entries(
        11, [mat_mul(mat_mul(t, x), mat_inv(t)).entries() for x in h.elements]
    )
    verdict = classify_image(conj, ProjPoint(11, 1, 0))
    assert verdict.target is NamedGroupId.NORM_NONSPLIT
    assert verdict.verify(conj)


def _invariant_line_reference(g: Subgroup) -> Mat2 | None:
    """The stable-line conjugator as it was first written: the first point p
    of ProjPoint.all_points whose line every Mat2 generator x maps to itself,
    the image (c d)·x read back through ProjPoint.from_vector, and T the
    inverse of a T^-1 whose second row spans the line. The reference for the
    cross-product scan on entry tuples."""
    ell = g.n
    for p in ProjPoint.all_points(ell):
        if all(
            ProjPoint.from_vector(ell, p.c * x.a + p.d * x.c, p.c * x.b + p.d * x.d) == p
            for x in g.generators
        ):
            tinv = Mat2(ell, 0, 1, p.c, p.d) if p.d != 0 or p.c == 0 else Mat2(ell, 0, 1, 1, 0)
            if not tinv.is_invertible():
                tinv = Mat2(ell, 1, 0, p.c, p.d)
            return mat_inv(tinv)
    return None


@pytest.mark.parametrize("ell, count", [(5, 461), (7, 1704)])
def test_invariant_line_conjugator_matches_line_scan_reference(ell, count):
    """On every two-generated subgroup of GL2(F_ell), the stable-line
    conjugator equals the reference scan's, None included, and each one
    returned conjugates the group into the Borel subgroup."""
    table, subgroups = _gl2_table(ell), _gl2_two_generated(ell)
    assert len(subgroups) == count
    borel = named_group(NamedGroupId.BOREL, ell)
    placed = 0
    for ids in subgroups:
        g = table.to_subgroup(ids)
        t = classify._invariant_line_conjugator(g)
        assert t == _invariant_line_reference(g)
        if t is not None:
            placed += 1
            assert {mat_mul(mat_mul(mat_inv(t), x), t) for x in g.elements} <= borel.elements
    assert 0 < placed < count


def test_stripped_diagonal_is_projection():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    assert stripped_diagonal(g).elements == named_group(NamedGroupId.DELTA1, 11).elements


_BOREL_11 = st.builds(
    lambda a, b, d: (a, b, 0, d), st.integers(1, 10), st.integers(0, 10), st.integers(1, 10)
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_BOREL_11, max_size=3), st.booleans())
def test_stripped_diagonal_matches_elementwise_projection(gens, by_elements):
    g = closure(11, gens)
    if by_elements:
        # every element is a generator, as in the groups the bl harness enumerates
        g = subgroup_from_entries(11, g.entries)
    assert stripped_diagonal(g).elements == {Mat2.diag(11, x.a, x.d) for x in g.elements}


def test_stripped_diagonal_rejects_non_triangular():
    for g in (
        closure(11, [(1, 1, 0, 1), (1, 0, 1, 1)]),
        named_group(NamedGroupId.NORM_SPLIT, 11),
    ):
        with pytest.raises(PreconditionError, match="not upper triangular"):
            stripped_diagonal(g)


@pytest.mark.parametrize("ell", [11, 13])
def test_cartan_power_matches_elementwise(ell):
    for gid in (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN):
        cart = named_group(gid, ell)
        for e in INERTIA_EXPONENTS:
            assert _cartan_power(cart, e).elements == {x**e for x in cart.elements}


def test_derive_delta_examples():
    g1 = named_group(NamedGroupId.DELTA_U1, 11)
    v1 = derive_delta(g1)
    assert v1.delta_kind is NamedGroupId.DELTA1
    assert (v1.divisor, v1.congruence_ok, v1.mod36_class) == (5, True, 11)

    g2 = named_group(NamedGroupId.DELTA_U2, 11)
    v2 = derive_delta(g2)
    assert v2.delta_kind is NamedGroupId.DELTA2
    assert (v2.divisor, v2.congruence_ok, v2.mod36_class) == (5, True, 11)

    g3 = closure(23, named_group(NamedGroupId.DELTA1, 23).generator_entries + ((1, 1, 0, 1),))
    v3 = derive_delta(g3)
    assert v3.delta_kind is NamedGroupId.DELTA1
    assert (v3.divisor, v3.congruence_ok, v3.mod36_class) == (11, True, 23)


def test_derive_delta_rejects_small_prime():
    g = named_group(NamedGroupId.BOREL, 7)
    with pytest.raises(PreconditionError):
        derive_delta(g)


def test_derive_delta_rejects_cong_failure():
    g = named_group(NamedGroupId.BOREL, 11)
    with pytest.raises(PreconditionError):
        derive_delta(g)


def test_derive_delta_rejects_shearless_group_without_inertia_shape():
    # the diagonal group alone satisfies every surface-level hypothesis but
    # carries no plausible ramification datum, so it is rejected up front
    g = named_group(NamedGroupId.DELTA1, 11)
    with pytest.raises(PreconditionError):
        derive_delta(g)


# one group per precondition of derive_delta, in the order they are checked,
# each failing it and passing those before; the first five fail the next one
# too, so the order is pinned. The last is checked when the verdict is
# derived from the spectrum.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: closure(7, [(0, 1, 6, 0)]), "not contained in the Borel subgroup"),
        (lambda: closure(7, [(1, 1, 0, 1)]), "derivation requires ell >= 11"),
        (
            lambda: closure(11, [(2, 0, 0, 6)]),
            "determinant image is not the full unit group",
        ),
        (lambda: named_group(NamedGroupId.BOREL, 11), "exponent congruence fails"),
        (
            lambda: closure(11, [(1, 0, 0, 10), (2, 0, 0, 2)]),
            "no stabilizer index coprime to 6",
        ),
        (lambda: named_group(NamedGroupId.DELTA1, 11), "no admissible inertia image"),
    ],
    ids=["borel", "ell", "det", "congruence", "coprime", "inertia"],
)
def test_derive_delta_precondition_order(build, message):
    with pytest.raises(PreconditionError, match=message):
        derive_delta(build())


def test_hypotheses_reject_bad_exponent():
    g = named_group(NamedGroupId.NORM_SPLIT, 11)
    message = r"inertia exponent must be one of \(1, 2, 3, 4, 6\)"
    with pytest.raises(PreconditionError, match=message):
        not_bl_check(g, 5)


def test_not_bl_nonsplit_cartan_13():
    g = named_group(NamedGroupId.NONSPLIT_CARTAN, 13)
    report = not_bl_check(g, 1)
    assert report.ambient == "NormNonsplit"
    assert {idx for idx, _ in report.table.values()} == {168}


def test_not_bl_norm_split_11():
    g = named_group(NamedGroupId.NORM_SPLIT, 11)
    report = not_bl_check(g, 1)
    assert report.table[(1, 0)] == (20, 2)


def test_not_bl_norm_nonsplit_5():
    g = named_group(NamedGroupId.NORM_NONSPLIT, 5)
    report = not_bl_check(g, 1)
    assert len(report.table) == 24
    assert all(idx % 2 == 0 for idx, _ in report.table.values())


def test_not_bl_rejects_group_outside_normalizers():
    g = named_group(NamedGroupId.BOREL, 11)
    with pytest.raises(PreconditionError):
        not_bl_check(g, 1)


def test_not_bl_rejects_partial_determinant():
    # diag(2, 2^-1) and the flip of determinant 1 generate a subgroup of
    # SL2 in NormSplit(11), outside the split Cartan
    g = closure(11, [(2, 0, 0, 6), (0, 1, 10, 0)])
    with pytest.raises(PreconditionError, match="determinant image is not the full unit group"):
        not_bl_check(g, 1)


def test_not_bl_rejects_unrealizable_inertia():
    # index 25 would appear at (1,1) here; the precondition must exclude it
    cs = named_group(NamedGroupId.SPLIT_CARTAN, 11)
    flip = (0, 1, 1, 0)
    squares = sorted({(x**2).entries() for x in cs.elements})
    g = closure(11, tuple(squares) + (flip,))
    for e in (1, 2, 3, 4, 6):
        with pytest.raises(PreconditionError):
            not_bl_check(g, e)


def test_not_bl_reads_group_in_both_normalizers_in_nonsplit():
    """Mod 13 one group of full determinant above the 6-th power of the
    split Cartan also lies in NormNonsplit: not_bl_check reads it there and
    refuses it on the non-split Cartan's 6-th power, and read in NormSplit,
    where it passes the determinant and Cartan-power hypotheses, inertia
    would refuse it."""
    ns, nns, cs = (
        named_group(gid, 13)
        for gid in (NamedGroupId.NORM_SPLIT, NamedGroupId.NORM_NONSPLIT, NamedGroupId.SPLIT_CARTAN)
    )
    above = _subgroups_between(_MulTable(13, sorted(ns.entries)), _cartan_power(cs, 6))
    both = [g for g in above if g <= nns and not g <= cs and len(g.det_image()) == 12]
    assert [g.order for g in both] == [48]
    message = "^the 6-th power of the ambient Cartan is not contained in the group$"
    with pytest.raises(PreconditionError, match=message):
        not_bl_check(both[0], 6)
    assert 6 not in admissible_inertia_exponents(both[0])


def test_admissible_inertia_exponents_full_normalizer():
    g = named_group(NamedGroupId.NORM_SPLIT, 11)
    assert 1 in admissible_inertia_exponents(g)


# the inertia test as it read element by element, with the order test for the
# non-split shape: the reference for admissible_inertia_exponents


def _has_eigenpair_one_alpha_e(x: Mat2, e: int) -> bool:
    # char poly (lam - 1)(lam - alpha^e): semisimple conjugacy test by trace/det
    ae = pow(primitive_root(x.n), e, x.n)
    return x.trace() == (1 + ae) % x.n and x.det() == ae


def _contains_nonsplit_power(cyclic: list[Mat2], e: int) -> bool:
    """Whether the cyclic group (as element list) contains a conjugate of the
    e-th power subgroup of the non-split Cartan."""
    (gen,) = named_group(NamedGroupId.NONSPLIT_CARTAN, cyclic[0].n).generators
    power = gen**e
    target_order = element_order(power)
    if len(cyclic) % target_order != 0:
        return False
    charpolys = {
        ((power**k).trace(), (power**k).det())
        for k in range(1, target_order + 1)
        if math.gcd(k, target_order) == 1
    }
    return any(
        element_order(x) == target_order and (x.trace(), x.det()) in charpolys
        for x in cyclic
    )


def _admissible_inertia_exponents_reference(g: Subgroup) -> list[int]:
    ell = g.n
    out = []
    for e in INERTIA_EXPONENTS:
        found = False
        for b in g.elements:
            order = element_order(b)
            cyc = [b**k for k in range(1, order + 1)]
            if len({x.det() for x in cyc}) != ell - 1:
                continue
            if any(_has_eigenpair_one_alpha_e(x, e) for x in cyc) or (
                _contains_nonsplit_power(cyc, e)
            ):
                found = True
                break
        if found:
            out.append(e)
    return out


@pytest.mark.parametrize("harness, calls", [("not-bl", 32), ("bl", 22)])
def test_admissible_inertia_matches_reference_on_harness_groups(harness, calls, monkeypatch):
    seen = []

    def recording(g):
        seen.append(g)
        return admissible_inertia_exponents(g)

    monkeypatch.setattr(classify, "admissible_inertia_exponents", recording)
    assert run_harness(harness).ok
    assert len(seen) == calls
    for g in seen:
        assert admissible_inertia_exponents(g) == _admissible_inertia_exponents_reference(g)


def _element_entries(gid: NamedGroupId | None, ell: int) -> list[tuple[int, int, int, int]]:
    if gid is None:
        return list(_gl2_elements(ell))
    return list(named_group(gid, ell).entries)


_INERTIA_AMBIENTS = [
    (gid, ell)
    for gid in (NamedGroupId.BOREL, NamedGroupId.NORM_SPLIT, NamedGroupId.NORM_NONSPLIT)
    for ell in (5, 7, 11, 13)
] + [(None, 5), (None, 7)]  # None: all of GL2(F_ell)


@st.composite
def _two_generated_in_ambient(draw):
    gid, ell = draw(st.sampled_from(_INERTIA_AMBIENTS))
    entry = st.sampled_from(_element_entries(gid, ell))
    return closure(ell, [draw(entry), draw(entry)])


@settings(max_examples=60, deadline=None)
@given(_two_generated_in_ambient())
def test_admissible_inertia_matches_reference(g):
    assert admissible_inertia_exponents(g) == _admissible_inertia_exponents_reference(g)
