import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gl2tors.errors import PreconditionError, ResourceLimitError
from gl2tors.modarith import Mat2, mat_mul, primitive_root, unipotent, unipotent_lower
from gl2tors.groups import (
    NamedGroupId,
    closure,
    diagexp_pair,
    diagexp_span,
    named_group,
    subgroup_from_entries,
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
    # trivial groups mod 5 and mod 7 hold the same entries
    assert closure(5, []) != closure(7, [])


def _closure_reference(n, generators) -> frozenset[Mat2]:
    """The Mat2 element set found by a breadth-first search over Mat2 values,
    every product built by the validated constructor: the slow reference
    for closure."""
    gens = tuple(generators)
    ident = Mat2.identity(n)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = Mat2(
                    n,
                    x.a * g.a + x.b * g.c,
                    x.a * g.b + x.b * g.d,
                    x.c * g.a + x.d * g.c,
                    x.c * g.b + x.d * g.d,
                )
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elements)


def _invertible_residues(n):
    return [
        (a, b, c, d)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for d in range(n)
        if math.gcd(a * d - b * c, n) == 1
    ]


_GL2_ENTRIES = {n: _invertible_residues(n) for n in (5, 7, 11, 4, 6, 9, 12)}


@st.composite
def _two_generators(draw):
    """Two invertible matrices mod a prime or composite modulus, each built
    from entries shifted by random multiples of n, some of them negative."""
    n = draw(st.sampled_from(sorted(_GL2_ENTRIES)))
    gens = []
    for _ in range(2):
        entries = draw(st.sampled_from(_GL2_ENTRIES[n]))
        shifts = draw(st.tuples(*[st.integers(-2, 2)] * 4))
        gens.append(Mat2(n, *(v + k * n for v, k in zip(entries, shifts))))
    return n, gens


@settings(max_examples=80, deadline=None)
@given(_two_generators())
def test_closure_matches_reference(args):
    n, gens = args
    g, ref = closure(n, gens), _closure_reference(n, gens)
    assert g.elements == ref
    # same iteration order, so every choice made by iterating a group stays put
    assert list(g.elements) == list(ref)
    assert g.generators == tuple(gens)
    if g.order > 1:
        with pytest.raises(ResourceLimitError):
            closure(n, gens, cap=g.order - 1)
    assert closure(n, gens, cap=g.order).elements == ref
    for x in g.elements:
        assert all(0 <= v < n for v in x.entries())
        validated = Mat2(n, *x.entries())
        assert x == validated and hash(x) == hash(validated)


def _check_entry_views(g, ref):
    """Order, membership, determinant image, entry array, equality and hash of
    g against the reference Mat2 element set."""
    n = g.n
    assert g.order == len(ref)
    assert g.det_image() == frozenset(x.det() for x in ref)
    assert all(x in g for x in ref)
    for entries in _GL2_ENTRIES[n][::37]:
        x = Mat2(n, *entries)
        assert (x in g) == (x in ref)
    assert Mat2(n + 1, 1, 0, 0, 1) not in g and (1, 0, 0, 1) not in g
    array = g.entry_array
    assert array.shape == (4, g.order) and array.dtype == np.int64
    assert not array.flags.writeable
    assert sorted(map(tuple, array.T.tolist())) == sorted(x.entries() for x in ref)
    filtered = subgroup_from_entries(n, [x.entries() for x in ref])
    assert g == filtered and hash(g) == hash(filtered)


@settings(max_examples=60, deadline=None)
@given(_two_generators())
def test_entry_views_match_element_set(args):
    n, gens = args
    ref = _closure_reference(n, gens)
    g = closure(n, gens)
    _check_entry_views(g, ref)
    # none of the views built the Mat2 element set
    assert "elements" not in vars(g)
    assert g.elements == ref
    _check_entry_views(g, ref)
    # a filtered group holds every element as a generator, in entry order
    filtered = subgroup_from_entries(n, [x.entries() for x in ref])
    assert list(filtered.entries) == sorted(x.entries() for x in ref)
    assert [x.entries() for x in filtered.generators] == list(filtered.entries)
    _check_entry_views(filtered, ref)


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
@given(_small_groups(), st.booleans())
def test_is_abelian_matches_elementwise(g, filtered):
    """Pairwise commutation of the generators, on entry tuples, against every
    pair of elements; a filtered group holds every element as a generator."""
    if filtered:
        g = subgroup_from_entries(g.n, g.entries)
    assert g.is_abelian() == _is_abelian_elementwise(g)


@settings(max_examples=150, deadline=None)
@given(_small_groups(), st.data())
def test_le_matches_element_sets(g, data):
    """Containment reads entry sets; the Mat2 element sets are the reference.
    The second group is a random one (often of the other modulus), a subgroup
    or supergroup of the first, or a named group mod 5 or 7, and is built
    either by closure or by subgroup_from_entries."""
    kind = data.draw(st.sampled_from(["random", "sub", "super", "named"]))
    other = data.draw(_small_groups())
    if kind == "sub":
        h = closure(g.n, g.generators[:1])
    elif kind == "super" and other.n == g.n:
        h = closure(g.n, g.generators + other.generators)
    elif kind == "named":
        gid = data.draw(st.sampled_from(list(NamedGroupId)))
        h = named_group(gid, data.draw(st.sampled_from([5, 7])))
    else:
        h = other
    if data.draw(st.booleans()):
        h = subgroup_from_entries(h.n, h.entries)
    assert (g <= h) == (g.elements <= h.elements)
    assert (h <= g) == (h.elements <= g.elements)
    assert g <= g and h <= h


_SIX_NAMED = (
    NamedGroupId.BOREL,
    NamedGroupId.SPLIT_CARTAN,
    NamedGroupId.NONSPLIT_CARTAN,
    NamedGroupId.NORM_SPLIT,
    NamedGroupId.NORM_NONSPLIT,
    NamedGroupId.SL2,
)


def _named_group_reference(gid, ell):
    """The named group from its element formula: the reference for the
    closure that named_group builds."""
    alpha = primitive_root(ell)
    units = range(1, ell)
    if gid is NamedGroupId.BOREL:
        elems = [Mat2(ell, a, b, 0, d) for a in units for d in units for b in range(ell)]
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
        cs = _named_group_reference(NamedGroupId.SPLIT_CARTAN, ell).elements
        flip = Mat2(ell, 0, 1, 1, 0)
        elems = list(cs) + [mat_mul(x, flip) for x in cs]
    elif gid is NamedGroupId.NORM_NONSPLIT:
        cns = _named_group_reference(NamedGroupId.NONSPLIT_CARTAN, ell).elements
        sign = Mat2.diag(ell, 1, -1)
        elems = list(cns) + [mat_mul(x, sign) for x in cns]
    else:
        elems = [
            Mat2(ell, *e) for e in _invertible_residues(ell) if (e[0] * e[3] - e[1] * e[2]) % ell == 1
        ]
    return subgroup_from_entries(ell, [x.entries() for x in elems])


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_named_groups_match_element_formulas(ell):
    for gid in _SIX_NAMED:
        g = named_group(gid, ell)
        ref = _named_group_reference(gid, ell)
        assert g == ref and g.elements == ref.elements
        assert closure(ell, g.generators) == g
        assert len(g.generators) <= 3


def _counted_mat2_builds(monkeypatch) -> list:
    """Wrap both Mat2 constructors; the list returned grows by one per Mat2 built."""
    built = []
    post_init, reduced = Mat2.__post_init__, Mat2._reduced

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_reduced(*args):
        built.append(args)
        return reduced(*args)

    monkeypatch.setattr(Mat2, "__post_init__", counted_post_init)
    monkeypatch.setattr(Mat2, "_reduced", staticmethod(counted_reduced))
    return built


@pytest.mark.parametrize("gid", _SIX_NAMED)
def test_named_group_builds_few_mat2(gid, monkeypatch):
    """A named group is the closure of a few generators, so building one
    constructs O(ell) Mat2 values, not one per element (2116 to 103776 at
    ell = 47)."""
    ell = 47
    built = _counted_mat2_builds(monkeypatch)
    named_group.cache_clear()
    g = named_group(gid, ell)
    assert Mat2.identity(ell) in g
    assert 0 < len(built) <= 3 * ell


def test_one_generator_closure_builds_no_mat2(monkeypatch):
    (gamma,) = named_group(NamedGroupId.NONSPLIT_CARTAN, 47).generators
    built = _counted_mat2_builds(monkeypatch)
    assert closure(47, [gamma]).order == 47 * 47 - 1
    assert built == []


@pytest.mark.parametrize("n", [1, 0])
def test_closure_rejects_bad_modulus(n):
    with pytest.raises(PreconditionError, match="modulus must be an integer >= 2"):
        closure(n, [])


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
        assert named_group(NamedGroupId.SPLIT_CARTAN, ell).elements <= named_group(
            NamedGroupId.NORM_SPLIT, ell
        ).elements
        assert named_group(NamedGroupId.NONSPLIT_CARTAN, ell).elements <= named_group(
            NamedGroupId.NORM_NONSPLIT, ell
        ).elements


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
    # swapping the diagonal entries carries Delta1 onto Delta2 and back
    assert all(x.b == 0 and x.c == 0 for x in d1.elements | d2.elements)
    assert {Mat2.diag(11, x.d, x.a) for x in d1.elements} == d2.elements
    assert {Mat2.diag(11, x.d, x.a) for x in d2.elements} == d1.elements


def test_delta_orders_larger():
    # |Delta_i| = ell - 1 in every case
    for ell in (11, 13, 23, 47):
        assert named_group(NamedGroupId.DELTA1, ell).order == ell - 1
        assert named_group(NamedGroupId.DELTA2, ell).order == ell - 1


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


@pytest.mark.parametrize(
    "generators",
    [
        "[[[1, 1, 7], [0, 1, 9], [3, 3]]]",
        "[[[1, 1], [0, 1], [0, 0]]]",
        "[[[1, 1], [0, 1, 4]]]",
        "[[[1, 1]]]",
        "[[1, 1, 0, 1]]",
        '{"x": [[1, 1], [0, 1]]}',
    ],
)
def test_json_rejects_malformed_matrices(generators):
    with pytest.raises(PreconditionError, match="malformed subgroup input"):
        subgroup_from_json(f'{{"modulus": 5, "generators": {generators}}}')


def test_det_image():
    sl2 = named_group(NamedGroupId.SL2, 5)
    assert sl2.det_image() == frozenset({1})
    gl_like = named_group(NamedGroupId.BOREL, 5)
    assert gl_like.det_image() == frozenset({1, 2, 3, 4})
