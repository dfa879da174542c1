import pytest
from hypothesis import assume, given, settings, strategies as st

from gl2tors.errors import PreconditionError, ResourceLimitError
from gl2tors.modarith import Mat2, mat_mul, unipotent, unipotent_lower
from gl2tors.groups import (
    NamedGroupId,
    closure,
    delta_flip,
    diagexp_pair,
    diagexp_span,
    named_group,
    subgroup_from_json,
    subgroup_to_json,
    tau,
    verify_named_orders,
)


def test_closure_of_shears_is_sl2():
    g = closure(5, [unipotent(5), unipotent_lower(5)])
    assert g.order == 120
    assert all(x.det() == 1 for x in g.elements)


def test_closure_cap():
    with pytest.raises(ResourceLimitError):
        closure(5, [unipotent(5), unipotent_lower(5)], cap=50)


def test_closure_rejects_singular_generator():
    with pytest.raises(PreconditionError):
        closure(5, [Mat2(5, 1, 2, 2, 4)])


def test_equality_ignores_generators():
    u = unipotent(11)
    g, h = closure(11, [u]), closure(11, [u**2])
    assert g.generators != h.generators
    assert g == h and hash(g) == hash(h)
    assert g != closure(11, [Mat2.diag(11, 2, 1)])


def _is_abelian_elementwise(g):
    return all(mat_mul(x, y) == mat_mul(y, x) for x in g.elements for y in g.elements)


@st.composite
def _small_groups(draw):
    """1- or 2-generated subgroups mod 5 or 7; the second generator is often a
    polynomial s + t*x in the first, so that abelian groups are common."""
    ell = draw(st.sampled_from([5, 7]))
    entries = st.tuples(*[st.integers(0, ell - 1)] * 4)
    x = Mat2(ell, *draw(entries))
    assume(x.is_invertible())
    gens = [x]
    kind = draw(st.sampled_from(["one", "commuting", "random"]))
    if kind == "commuting":
        s, t = draw(st.integers(0, ell - 1)), draw(st.integers(0, ell - 1))
        gens.append(Mat2(ell, s + t * x.a, t * x.b, t * x.c, s + t * x.d))
    elif kind == "random":
        gens.append(Mat2(ell, *draw(entries)))
    assume(all(y.is_invertible() for y in gens))
    return closure(ell, gens)


@settings(max_examples=150, deadline=None)
@given(_small_groups())
def test_is_abelian_matches_elementwise(g):
    assert g.is_abelian() == _is_abelian_elementwise(g)


def test_named_orders_ell5():
    got = verify_named_orders(5)
    assert got["Borel"] == (80, 80)
    assert got["SplitCartan"] == (16, 16)
    assert got["NonsplitCartan"] == (24, 24)
    assert got["NormSplit"] == (32, 32)
    assert got["NormNonsplit"] == (48, 48)
    assert got["SL2"] == (120, 120)


def test_cartans_are_abelian():
    for ell in (5, 7, 11):
        assert named_group(NamedGroupId.SPLIT_CARTAN, ell).is_abelian()
        assert named_group(NamedGroupId.NONSPLIT_CARTAN, ell).is_abelian()


def test_normalizers_contain_cartans():
    for ell in (5, 7):
        assert named_group(NamedGroupId.SPLIT_CARTAN, ell) <= named_group(
            NamedGroupId.NORM_SPLIT, ell
        )
        assert named_group(NamedGroupId.NONSPLIT_CARTAN, ell) <= named_group(
            NamedGroupId.NORM_NONSPLIT, ell
        )


def test_tau():
    assert tau(11) == 1
    assert tau(7) == 3
    assert tau(13) == 3
    with pytest.raises(PreconditionError):
        tau(3)


def test_delta1_order_and_flip():
    d1 = named_group(NamedGroupId.DELTA1, 11)
    d2 = named_group(NamedGroupId.DELTA2, 11)
    assert d1.order == 10 and d2.order == 10
    assert delta_flip(d1).elements == d2.elements
    assert delta_flip(d2).elements == d1.elements


def test_delta_orders_larger():
    # |Delta_i| = ell - 1 in every case
    for ell in (11, 13, 23, 47):
        assert named_group(NamedGroupId.DELTA1, ell).order == ell - 1


def test_diagexp_pair_round_trip():
    for u in range(10):
        for t in range(10):
            span = diagexp_span(11, [(u, t)])
            x = sorted(span.elements, key=Mat2.entries)[0]
            pair = diagexp_pair(x)
            assert pair.to_matrix() == x


def test_diagexp_pair_rejects_nondiagonal():
    with pytest.raises(PreconditionError):
        diagexp_pair(unipotent(11))


def test_delta_u1_order():
    g = named_group(NamedGroupId.DELTA_U1, 11)
    assert g.order == 110
    assert unipotent(11) in g


def test_json_round_trip():
    g = closure(7, [unipotent(7), Mat2.diag(7, 3, 1)])
    back = subgroup_from_json(subgroup_to_json(g))
    assert back.elements == g.elements


def test_json_malformed():
    with pytest.raises(PreconditionError):
        subgroup_from_json('{"modulus": 5}')
    with pytest.raises(PreconditionError):
        subgroup_from_json("not json")


@pytest.mark.parametrize(
    "text",
    [
        '{"modulus": 5, "generators": [[[1.0, 1], [0, 1]]]}',
        '{"modulus": 5, "generators": [[[1, true], [0, 1]]]}',
        '{"modulus": 5.0, "generators": [[[1, 1], [0, 1]]]}',
        '{"modulus": true, "generators": [[[1, 1], [0, 1]]]}',
    ],
)
def test_json_rejects_non_integers(text):
    with pytest.raises(PreconditionError, match="malformed subgroup input"):
        subgroup_from_json(text)


def test_det_image():
    sl2 = named_group(NamedGroupId.SL2, 5)
    assert sl2.det_image() == frozenset({1})
    gl_like = named_group(NamedGroupId.BOREL, 5)
    assert gl_like.det_image() == frozenset({1, 2, 3, 4})
