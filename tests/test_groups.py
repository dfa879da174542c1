import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gl2tors import groups
from gl2tors.errors import PreconditionError, ResourceLimitError
from gl2tors.modarith import Mat2, mat_inv, mat_mul, primitive_root, unipotent, unipotent_lower
from gl2tors.groups import (
    _ARRAY_BLOCK,
    NamedGroupId,
    _cyclic_subgroups,
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


def _entries(matrices) -> list[tuple[int, int, int, int]]:
    """The entry tuples of Mat2 values, the form closure takes its generators in."""
    return [x.entries() for x in matrices]


def test_closure_of_shears_is_sl2():
    g = closure(5, [(1, 1, 0, 1), (1, 0, 1, 1)])
    assert g.order == 120
    assert all(x.det() == 1 for x in g.elements)


def test_closure_cap():
    with pytest.raises(ResourceLimitError):
        closure(5, [(1, 1, 0, 1), (1, 0, 1, 1)], cap=50)


def test_closure_rejects_singular_generator():
    with pytest.raises(PreconditionError):
        closure(5, [(1, 2, 2, 4)])


def test_equality_ignores_generators():
    u = unipotent(11)
    g, h = closure(11, [u.entries()]), closure(11, [(u**2).entries()])
    assert g.generators != h.generators
    assert g == h and hash(g) == hash(h)
    assert g != closure(11, [(2, 0, 0, 1)])
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


def _powers(x: Mat2) -> list[tuple[int, int, int, int]]:
    """x^0, x^1, ..., x^(m-1) for x of order m, by validated products."""
    ident = Mat2.identity(x.n)
    out, y = [ident.entries()], x
    while y != ident:
        out.append(y.entries())
        y = mat_mul(y, x)
    return out


def _right_coset(n, h, y) -> set[tuple[int, int, int, int]]:
    """The right coset H y of the entries h, by validated products."""
    t = Mat2(n, *y)
    return {mat_mul(Mat2(n, *e), t).entries() for e in h}


def _check_entry_order(n, gens, entries):
    """The order closure lists its entries in: the identity first, all
    distinct, the powers of the first non-identity generator in order, then
    for each later generator that enlarges the group H generated by the ones
    before it, consecutive blocks of |H| entries, each the right coset of H
    by its first entry, which together fill up the next group."""
    assert entries[0] == (1, 0, 0, 1)
    assert len(set(entries)) == len(entries)
    done = 1
    for k in range(1, len(gens) + 1):
        stage = {x.entries() for x in _closure_reference(n, gens[:k])}
        if len(stage) == done:
            continue
        if done == 1:
            assert list(entries[: len(stage)]) == _powers(gens[k - 1])
        else:
            h = entries[:done]
            for start in range(done, len(stage), done):
                block = entries[start : start + done]
                assert set(block) == _right_coset(n, h, block[0])
        assert set(entries[: len(stage)]) == stage
        done = len(stage)
    assert done == len(entries)


@settings(max_examples=80, deadline=None)
@given(_two_generators())
def test_closure_matches_reference(args):
    n, gens = args
    g, ref = closure(n, _entries(gens)), _closure_reference(n, gens)
    assert g.elements == ref
    _check_entry_order(n, gens, g.entries)
    assert g.generators == tuple(gens)
    if g.order > 1:
        with pytest.raises(ResourceLimitError):
            closure(n, _entries(gens), cap=g.order - 1)
    assert closure(n, _entries(gens), cap=g.order).elements == ref
    for x in g.elements:
        assert all(0 <= v < n for v in x.entries())
        validated = Mat2(n, *x.entries())
        assert x == validated and hash(x) == hash(validated)


def _invertible_entries(n):
    """Random invertible entries mod n, drawn without listing GL2(Z/nZ)."""
    return st.tuples(*[st.integers(0, n - 1)] * 4).filter(
        lambda e: math.gcd(e[0] * e[3] - e[1] * e[2], n) == 1
    )


@pytest.mark.parametrize("n", sorted(_GL2_ENTRIES) + [13, 47])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_generator_closure_lists_powers(n, data):
    """closure(n, [x]) lists x^0, x^1, ..., x^(m-1) in that order, the
    contract that _cyclic_subgroups and admissible_inertia_exponents read.
    Element orders reach _ARRAY_BLOCK only mod 13 (up to 168) and mod 47
    (up to 2208), where the powers past it are listed by doubling."""
    if n in _GL2_ENTRIES:
        entries = data.draw(st.sampled_from(_GL2_ENTRIES[n]))
    else:
        entries = data.draw(_invertible_entries(n))
    shifts = data.draw(st.tuples(*[st.integers(-2, 2)] * 4))
    shifted = tuple(v + k * n for v, k in zip(entries, shifts))
    x = Mat2(n, *shifted)
    g = closure(n, [shifted])
    assert list(g.entries) == _powers(x)
    _check_entry_array(g)


def _nonsplit_generator(ell):
    """1 + b sqrt(alpha), as (1, b alpha; b, 1), a generator of F_ell^2^*
    of order ell^2 - 1 (120, 168 and 2208)."""
    b = {11: 5, 13: 2, 47: 4}[ell]
    return Mat2(ell, 1, b * primitive_root(ell), b, 1)


def _norm_nonsplit_47():
    """Generators of NormNonsplit(47): a generator of the non-split Cartan
    and (a, -b alpha; b, -a), both conjugated by t as in the verb benchmark."""
    flip = Mat2(47, 3, -5 * primitive_root(47), 5, -3)
    t = Mat2(47, 2, 7, 1, 9)
    return [mat_mul(mat_mul(mat_inv(t), g), t) for g in (_nonsplit_generator(47), flip)]


def _check_entry_array(g):
    """g.entry_array is read-only and equal, byte for byte, to the array
    built from the entry tuples, whether closure handed it over or not."""
    flat = itertools.chain.from_iterable(g.entries)
    want = np.fromiter(flat, np.int64, 4 * g.order).reshape(-1, 4).T
    array = g.entry_array
    assert array.dtype == want.dtype and array.shape == want.shape
    assert array.tobytes() == want.tobytes()
    assert not array.flags.writeable


@pytest.mark.parametrize(
    "n, x, order",
    [
        (127, Mat2(127, 1, 1, 0, 1), 127),
        (128, Mat2(128, 1, 1, 0, 1), 128),
        (129, Mat2(129, 1, 1, 0, 1), 129),
        (256, Mat2(256, 1, 1, 0, 1), 256),
        (11, _nonsplit_generator(11), 120),
        (13, _nonsplit_generator(13), 168),
        (47, _nonsplit_generator(47), 2208),
    ],
    ids=["shear127", "shear128", "shear129", "shear256", "cartan11", "cartan13", "cartan47"],
)
def test_one_generator_closure_across_the_array_block(n, x, order):
    """Orders below, at and above _ARRAY_BLOCK: the powers are listed in
    order either way, and past it closure hands over its entry array. At
    order 256 one doubling ends exactly on the identity."""
    g = closure(n, [x.entries()])
    assert g.order == order and list(g.entries) == _powers(x)
    assert ("entry_array" in vars(g)) == (order > _ARRAY_BLOCK)
    _check_entry_array(g)


@pytest.mark.parametrize(
    "ell, gens",
    [
        (13, [Mat2.diag(13, 2, 1), Mat2.diag(13, 1, 2), unipotent(13)]),
        (13, [_nonsplit_generator(13), Mat2.diag(13, 1, -1)]),
        (47, _norm_nonsplit_47()),
    ],
    ids=["Borel13", "NormNonsplit13", "NormNonsplit47"],
)
def test_cosets_of_a_large_subgroup_match_reference(ell, gens):
    """Right cosets of a subgroup H with |H| >= _ARRAY_BLOCK, whether H came
    from tuple cosets (Borel(13): |H| = 144) or from doubled powers, are
    listed in closure's entry order and close the group."""
    g = closure(ell, _entries(gens))
    assert g.elements == _closure_reference(ell, gens)
    _check_entry_order(ell, gens, g.entries)
    assert "entry_array" in vars(g)
    _check_entry_array(g)


def _tuple_closure(n, gens):
    """closure with no block moved to numpy: the tuple path, the reference
    for the entry order and the entry views of a closure held as blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "_ARRAY_BLOCK", math.inf)
        return closure(n, _entries(gens))


def _check_array_closure(n, gens, non_members=()):
    """The closure of gens, held as numpy blocks, against the tuple path
    (entries in the same order, order, the entry array) and against a group
    built from _closure_reference (==, hash, <= both ways, in, elements)."""
    g, tuples = closure(n, _entries(gens)), _tuple_closure(n, gens)
    assert "entry_array" in vars(g) and "entries" not in vars(g)
    assert "entry_array" not in vars(tuples)
    ref_elements = _closure_reference(n, gens)
    ref = subgroup_from_entries(n, [x.entries() for x in ref_elements])
    assert g.order == tuples.order == ref.order == len(ref_elements)
    assert g.entries == tuples.entries
    assert sorted(g.entries) == list(ref.entries)
    _check_entry_array(g)
    assert g.entry_array.tobytes() == tuples.entry_array.tobytes()
    assert g == ref and g == tuples and hash(g) == hash(ref) == hash(tuples)
    assert g <= ref and ref <= g
    h = closure(n, _entries(gens[:1]))
    assert h <= g and (g <= h) == (h.order == g.order)
    assert all(x in g for x in gens)
    for x in non_members:
        assert (x in g) == (x in ref_elements)
    assert g.elements == ref_elements == tuples.elements


def test_array_closures_match_tuple_closures():
    """NormNonsplit(47) (doubled powers, then one coset in numpy) and
    Borel(47) (tuple cosets up to |H| = 2116, then numpy cosets)."""
    ell = 47
    shears = [Mat2(ell, 1, b, 0, 1) for b in (1, 5)] + [Mat2(ell, 1, 0, 3, 1), Mat2.diag(ell, 5, 7)]
    _check_array_closure(ell, _norm_nonsplit_47(), shears)
    borel = named_group(NamedGroupId.BOREL, ell)
    _check_array_closure(ell, list(borel.generators), shears + [Mat2(ell, 2, 7, 1, 9)])


@st.composite
def _normalizer_generators_47(draw):
    """Two elements of one Cartan normalizer mod 47 (of order 4232 or 4416),
    conjugated by a drawn t: most of the groups they generate pass
    _ARRAY_BLOCK, and some pass it only in a later coset."""
    gid = draw(st.sampled_from([NamedGroupId.NORM_SPLIT, NamedGroupId.NORM_NONSPLIT]))
    entries = named_group(gid, 47).entries
    t = Mat2(47, *draw(_invertible_entries(47)))
    t_inv = mat_inv(t)
    picks = [Mat2(47, *draw(st.sampled_from(entries))) for _ in range(2)]
    others = [Mat2(47, *draw(_invertible_entries(47))) for _ in range(3)]
    return [mat_mul(mat_mul(t_inv, x), t) for x in picks], others


@settings(max_examples=25, deadline=None)
@given(_normalizer_generators_47())
def test_drawn_array_closures_match_tuple_closures(args):
    gens, others = args
    # a group past _ARRAY_BLOCK whose cosets all have |H| < _ARRAY_BLOCK stays on tuples
    assume("entry_array" in vars(closure(47, _entries(gens))))
    _check_array_closure(47, gens, others)


@pytest.mark.parametrize("n", [65537, 2**31 - 1])
def test_array_closure_membership_past_packed_entry_codes(n):
    """Mod a prime past 55109 a code packing all four entries of a matrix
    would overflow int64; the row codes a n + b and c n + d stay below 2^62
    for every n < 2^31. diag(a, 1) of order m >= _ARRAY_BLOCK and the swap
    (0 1; 1 0) generate the m^2 diagonals diag(a^i, a^j) and their swaps, so
    many lookups meet an entry that shares its top row with a group element."""
    m = {65537: 128, 2**31 - 1: 151}[n]
    a = pow(primitive_root(n), (n - 1) // m, n)
    gens = [Mat2.diag(n, a, 1), Mat2(n, 0, 1, 1, 0)]
    non_members = [Mat2.diag(n, primitive_root(n), 1), Mat2(n, 0, a, 1, 0), Mat2(n, 1, 1, 0, 1)]
    _check_array_closure(n, gens, non_members)
    assert closure(n, _entries(gens)).order == 2 * m * m


def test_closure_past_the_int64_bound_lists_tuples():
    """Mod 2^32 the shear (1 2^24; 0 1) has order 256 >= _ARRAY_BLOCK, but
    int64 entry products are not safe there: closure lists the powers as
    tuples and hands over no entry array, which still refuses the modulus."""
    n = 2**32
    x = Mat2(n, 1, 2**24, 0, 1)
    g = closure(n, [x.entries()])
    assert g.order == 256 and list(g.entries) == _powers(x)
    with pytest.raises(ResourceLimitError, match=f"modulus {n} is too large for int64 entries"):
        g.entry_array


@settings(max_examples=40, deadline=None)
@given(_two_generators())
def test_closure_skips_redundant_generators(args):
    """The identity, a repeated generator, a power of a kept one and a
    product of kept ones add nothing: the entries are those of [x, y]."""
    n, (x, y) = args
    ident = Mat2.identity(n)
    want = closure(n, _entries([x, y])).entries
    for gens in ([ident, x, ident, y], [x, x, y, y], [x, mat_mul(x, x), y, mat_mul(x, y)]):
        g = closure(n, _entries(gens))
        assert g.entries == want and g.generators == tuple(gens)


@pytest.mark.parametrize("n", sorted(_GL2_ENTRIES))
def test_closure_of_identities_is_trivial(n):
    ident = Mat2.identity(n)
    for gens in ([], [ident], [ident, ident, ident]):
        g = closure(n, _entries(gens))
        assert g.entries == ((1, 0, 0, 1),) and g.generators == tuple(gens)


@pytest.mark.parametrize(
    "n, gens, order",
    [
        (11, [unipotent(11)], 11),
        (7, [Mat2.diag(7, 3, 5)], 6),
        (12, [Mat2(12, 1, 1, 1, 2)], 12),
        (5, [unipotent(5), unipotent_lower(5)], 120),
        (7, [Mat2.diag(7, 3, 1), unipotent(7)], 42),
        (5, [Mat2.diag(5, 2, 1), Mat2.diag(5, 1, 2), unipotent(5)], 80),
        (6, [Mat2(6, 1, 1, 0, 1), Mat2(6, 0, 1, 5, 0), Mat2.diag(6, 5, 1)], 288),
        (13, [_nonsplit_generator(13)], 168),
        (47, [_nonsplit_generator(47)], 2208),
        (47, _norm_nonsplit_47(), 4416),
    ],
)
def test_closure_cap_is_the_order(n, gens, order):
    """A cap of the group order closes the group; one less raises, for one
    generator and for several, with blocks below and above _ARRAY_BLOCK."""
    g = closure(n, _entries(gens), cap=order)
    assert g.order == order and g == closure(n, _entries(gens))
    with pytest.raises(ResourceLimitError, match=f"closure exceeded cap of {order - 1} elements"):
        closure(n, _entries(gens), cap=order - 1)


@pytest.mark.parametrize("ell, cap", [(13, 128), (13, 129), (47, 129), (47, 200), (47, 256)])
def test_closure_cap_inside_a_doubled_block(ell, cap):
    """A cap that falls inside a block of doubled powers raises too."""
    with pytest.raises(ResourceLimitError, match=f"closure exceeded cap of {cap} elements"):
        closure(ell, [_nonsplit_generator(ell).entries()], cap=cap)


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
    g = closure(n, _entries(gens))
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
    return closure(ell, _entries(gens))


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
        h = closure(g.n, g.generator_entries[:1])
    elif kind == "super" and other.n == g.n:
        h = closure(g.n, g.generator_entries + other.generator_entries)
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
        assert closure(ell, g.generator_entries) == g
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


def test_building_groups_builds_no_mat2(monkeypatch):
    """Groups are built from entry tuples alone: every named group at
    ell = 13 and 47 (its cache cleared first), a group read from JSON and
    the cyclic subgroups of GL2(F_5) build no Mat2."""
    payload = {"modulus": 13, "generators": [[[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]]}
    steps = {
        f"named_group({gid.value}, {ell})": lambda gid=gid, ell=ell: named_group(gid, ell)
        for ell in (13, 47)
        for gid in NamedGroupId
    }
    steps["subgroup_from_json"] = lambda: subgroup_from_json(payload)
    steps["_cyclic_subgroups"] = lambda: _cyclic_subgroups(5, _GL2_ENTRIES[5])
    named_group.cache_clear()
    built = _counted_mat2_builds(monkeypatch)
    counts = {}
    for name, build in steps.items():
        before = len(built)
        build()
        counts[name] = len(built) - before
    assert counts == dict.fromkeys(steps, 0)


def test_one_generator_closure_builds_no_mat2(monkeypatch):
    """Neither a one-generator closure nor a two-generator one builds a Mat2
    per element: NormNonsplit(47) from a generator of the non-split Cartan
    and (a, -b alpha; b, -a), both conjugated by t as in the verb benchmark."""
    gamma = _nonsplit_generator(47)
    x, y = _norm_nonsplit_47()
    built = _counted_mat2_builds(monkeypatch)
    assert closure(47, [gamma.entries()]).order == 47 * 47 - 1
    assert closure(47, _entries([x, y])).order == 2 * (47 * 47 - 1)
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
    g = closure(7, [(1, 1, 0, 1), (3, 0, 0, 1)])
    back = subgroup_from_json(json.loads(subgroup_to_json(g)))
    assert back.elements == g.elements


def test_json_malformed():
    """A decoded value without generators, or not an object, is refused; text
    that is not JSON is the CLI reader's to refuse (tests/test_cli.py)."""
    with pytest.raises(PreconditionError):
        subgroup_from_json({"modulus": 5})
    with pytest.raises(PreconditionError):
        subgroup_from_json("not an object")


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
        subgroup_from_json(json.loads(text))


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
        subgroup_from_json(json.loads(f'{{"modulus": 5, "generators": {generators}}}'))


def test_det_image():
    sl2 = named_group(NamedGroupId.SL2, 5)
    assert sl2.det_image() == frozenset({1})
    gl_like = named_group(NamedGroupId.BOREL, 5)
    assert gl_like.det_image() == frozenset({1, 2, 3, 4})
