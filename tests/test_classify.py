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
from gl2tors.lemmas import _gl2_elements
from gl2tors.stabilizers import ProjPoint
from gl2tors.verify import run_harness
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
        cong_check(closure(11, [unipotent(11)]))


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
    g = closure(11, [Mat2.diag(11, alpha, 1)])
    verdict = classify_image(g, ProjPoint(11, 0, 1))  # the fixed vector, index 1
    assert verdict.target is NamedGroupId.NORM_SPLIT
    assert verdict.verify(g)


def test_classify_nonsplit_case():
    cns = named_group(NamedGroupId.NONSPLIT_CARTAN, 11)
    gen = next(x for x in cns.elements if element_order(x) == 120)
    t = Mat2(11, 2, 3, 1, 4)
    h = closure(11, [gen**8])  # order 15
    conj = subgroup_from_entries(
        11, [mat_mul(mat_mul(t, x), mat_inv(t)).entries() for x in h.elements]
    )
    verdict = classify_image(conj, ProjPoint(11, 1, 0))
    assert verdict.target is NamedGroupId.NORM_NONSPLIT
    assert verdict.verify(conj)


def test_stripped_diagonal_is_projection():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    assert stripped_diagonal(g).elements == named_group(NamedGroupId.DELTA1, 11).elements


_BOREL_11 = st.builds(
    lambda a, b, d: Mat2(11, a, b, 0, d), st.integers(1, 10), st.integers(0, 10), st.integers(1, 10)
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
        closure(11, [unipotent(11), Mat2(11, 1, 0, 1, 1)]),
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

    g3 = closure(23, named_group(NamedGroupId.DELTA1, 23).generators + (unipotent(23),))
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
        (lambda: closure(7, [Mat2(7, 0, 1, 6, 0)]), "not contained in the Borel subgroup"),
        (lambda: closure(7, [unipotent(7)]), "derivation requires ell >= 11"),
        (
            lambda: closure(11, [Mat2(11, 2, 0, 0, 6)]),
            "determinant image is not the full unit group",
        ),
        (lambda: named_group(NamedGroupId.BOREL, 11), "exponent congruence fails"),
        (
            lambda: closure(11, [Mat2(11, 1, 0, 0, 10), Mat2(11, 2, 0, 0, 2)]),
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
    g = closure(11, [Mat2(11, 2, 0, 0, 6), Mat2(11, 0, 1, 10, 0)])
    with pytest.raises(PreconditionError, match="determinant image is not the full unit group"):
        not_bl_check(g, 1)


def test_not_bl_rejects_unrealizable_inertia():
    # index 25 would appear at (1,1) here; the precondition must exclude it
    cs = named_group(NamedGroupId.SPLIT_CARTAN, 11)
    flip = Mat2(11, 0, 1, 1, 0)
    squares = sorted({x**2 for x in cs.elements}, key=Mat2.entries)
    g = closure(11, tuple(squares) + (flip,))
    for e in (1, 2, 3, 4, 6):
        with pytest.raises(PreconditionError):
            not_bl_check(g, e)


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
        return [x.entries() for x in _gl2_elements(ell)]
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
    return closure(ell, [Mat2(ell, *draw(entry)), Mat2(ell, *draw(entry))])


@settings(max_examples=60, deadline=None)
@given(_two_generated_in_ambient())
def test_admissible_inertia_matches_reference(g):
    assert admissible_inertia_exponents(g) == _admissible_inertia_exponents_reference(g)
