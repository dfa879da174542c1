import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gl2tors import lemmas, verify
from gl2tors.classify import classify_image
from gl2tors.errors import LemmaViolationError, PreconditionError, ResourceLimitError
from gl2tors.modarith import (
    Mat2,
    element_order,
    legendre,
    mat_inv,
    mat_mul,
    primitive_root,
    sqrt_mod,
    unipotent,
    unipotent_lower,
)
from gl2tors.groups import (
    NamedGroupId,
    Subgroup,
    _conjugation_target,
    _cyclic_subgroups,
    closure,
    named_group,
    subgroup_from_entries,
)
from gl2tors.lemmas import (
    Conjugation,
    SL2Word,
    _gl2_elements,
    brute_force_cartan_conjugator,
    conjugate_into_cartan,
    conjugate_into_normalizer,
    cyclic_generator,
    decompose_sl2,
    normalizer_in_gl2,
)
from gl2tors.stabilizers import degree_spectrum
from gl2tors.verify import _ell_divides_order, _random_abelian

# the named groups a conjugation witness may target
_TARGET_IDS = (
    NamedGroupId.BOREL,
    NamedGroupId.SPLIT_CARTAN,
    NamedGroupId.NONSPLIT_CARTAN,
    NamedGroupId.NORM_SPLIT,
    NamedGroupId.NORM_NONSPLIT,
)


def _conjugates_into_reference(xs, t: Mat2, target: Subgroup) -> bool:
    """Whether t^-1 x t lies in the target for every x given, built as Mat2
    products: the reference for the tuple check in groups."""
    return all(mat_mul(mat_mul(mat_inv(t), x), t) in target for x in xs)


def _cartan_scan_reference(h: Subgroup) -> tuple[Mat2, NamedGroupId] | None:
    """The first t in _gl2_elements order conjugating h into a Cartan, split
    tried before non-split at each t: the reference for the oracle."""
    gens = h.generators or tuple(h.elements)
    for t in (Mat2(h.n, *e) for e in _gl2_elements(h.n)):
        for gid in (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN):
            if _conjugates_into_reference(gens, t, named_group(gid, h.n)):
                return t, gid
    return None


def _normalizer_scan_reference(h: Subgroup) -> frozenset[Mat2]:
    gens = h.generators or tuple(h.elements)
    ts = (Mat2(h.n, *e) for e in _gl2_elements(h.n))
    return frozenset(t for t in ts if _conjugates_into_reference(gens, t, h))


def _cyclic_prime_to(ell: int) -> list[Subgroup]:
    """Every cyclic subgroup of GL2(F_ell) of order prime to ell."""
    return _cyclic_subgroups(
        ell, (e for e in _gl2_elements(ell) if not _ell_divides_order(ell, e))
    )


def _cyclic(ell, x):
    """<x>, its powers listed by repeated Mat2 multiplication."""
    powers = [Mat2.identity(ell)]
    y = x
    while not y.is_identity():
        powers.append(y)
        y = mat_mul(y, x)
    return Subgroup(ell, (x.entries(),), [y.entries() for y in powers])


def test_decompose_shear_is_single_letter():
    word = decompose_sl2(unipotent(7))
    assert word.letters == (("U", 1),)


def test_decompose_antidiagonal_example():
    word = decompose_sl2(Mat2(5, 0, -1, 1, 0))
    assert word.letters == (("U", 4), ("L", 1), ("U", 4))
    assert word.evaluate() == Mat2(5, 0, 4, 1, 0)


def test_decompose_rejects_wrong_det():
    with pytest.raises(PreconditionError):
        decompose_sl2(Mat2(5, 2, 0, 0, 1))


def _evaluate_reference(word: SL2Word) -> Mat2:
    """The word multiplied out by Mat2 products of shear powers, each by
    `**` on the validated shear: the reference for SL2Word.evaluate."""
    result = Mat2.identity(word.ell)
    for letter, exp in word.letters:
        base = unipotent(word.ell) if letter == "U" else unipotent_lower(word.ell)
        result = mat_mul(result, base ** (exp % word.ell))
    return result


@pytest.mark.parametrize("ell", [5, 7, 11])
def test_word_evaluation_matches_power_reference(ell):
    """evaluate, in closed form on entries, equals the product of shear
    powers on every word decompose_sl2 returns mod ell, and on words with
    exponents outside [0, ell)."""
    det1 = [e for e in _gl2_elements(ell) if (e[0] * e[3] - e[1] * e[2]) % ell == 1]
    assert len(det1) == ell * (ell * ell - 1)
    for e in det1:
        x = Mat2(ell, *e)
        word = decompose_sl2(x)
        assert word.evaluate() == _evaluate_reference(word) == x
    for letters in ((), (("U", -3), ("L", 2 * ell + 1)), (("L", ell), ("U", 4), ("L", -1))):
        word = SL2Word(ell, letters)
        assert word.evaluate() == _evaluate_reference(word)


def test_decompose_exhaustive_mod7():
    sl2 = named_group(NamedGroupId.SL2, 7)
    for x in sl2.elements:
        word = decompose_sl2(x)
        assert word.evaluate() == x
        assert len(word) <= 12


def test_cartan_embedding_already_diagonal():
    h = _cyclic(5, Mat2.diag(5, 2, 3))
    emb = conjugate_into_cartan(h)
    assert emb.target is NamedGroupId.SPLIT_CARTAN
    assert emb.verify(h)


def test_cartan_embedding_nonsplit():
    h = _cyclic(5, Mat2(5, 0, 2, 1, 0))
    emb = conjugate_into_cartan(h)
    assert emb.target is NamedGroupId.NONSPLIT_CARTAN
    assert emb.verify(h)


def test_cartan_embedding_split_after_conjugation():
    h = _cyclic(5, Mat2(5, 0, 1, 4, 0))
    emb = conjugate_into_cartan(h)
    assert emb.target is NamedGroupId.SPLIT_CARTAN
    assert emb.verify(h)


def test_cartan_embedding_rejects_nonabelian():
    g = named_group(NamedGroupId.NORM_SPLIT, 5)
    with pytest.raises(PreconditionError):
        conjugate_into_cartan(g)


def test_cartan_embedding_rejects_order_divisible_by_ell():
    h = _cyclic(5, unipotent(5))
    with pytest.raises(PreconditionError):
        conjugate_into_cartan(h)


def test_brute_force_agrees_on_sample():
    for x in (Mat2(7, 2, 1, 1, 3), Mat2(7, 0, 5, 1, 0), Mat2.diag(7, 3, 2)):
        if element_order(x) % 7 == 0:
            continue
        h = _cyclic(7, x)
        emb = conjugate_into_cartan(h)
        oracle = brute_force_cartan_conjugator(h)
        assert emb.verify(h)
        assert oracle is not None and oracle.verify(h)


def _placement_oracle(ell: int, families: tuple[NamedGroupId, NamedGroupId]) -> list[bool]:
    """Whether each two-generated subgroup of GL2(F_ell), in the order of
    _gl2_two_generated, lies in a conjugate of one of the two named groups:
    the split and non-split Cartans, or their normalizers. Every conjugate
    g⁻¹·C·g is a membership row on the GL2 table, ell(ell+1)/2 of the split
    family and ell(ell-1)/2 of the non-split one, and a group lies in a
    conjugate when one row holds all its ids. The oracle reads the table and
    the two named groups alone, none of the lemmas' conjugators."""
    table = verify._gl2_table(ell)
    t, k = table.table, len(table.entries)
    rows = []
    for family in families:
        ids = [table.index[e] for e in named_group(family, ell).entries]
        # conjugates[g] holds the ids of g⁻¹·C·g
        conjugates = t[t[table.inverse[:, None], ids], np.arange(k)[:, None]]
        members = np.zeros((k, k), dtype=bool)
        members[np.arange(k)[:, None], conjugates] = True
        rows.append(np.unique(members, axis=0))
    assert [len(r) for r in rows] == [ell * (ell + 1) // 2, ell * (ell - 1) // 2]
    outside = ~np.concatenate(rows)
    subgroups = verify._gl2_two_generated(ell)
    members = np.zeros((len(subgroups), k), dtype=np.float32)
    for row, ids in zip(members, subgroups):
        row[list(ids)] = 1
    # a group lies in a conjugate when none of its ids falls outside that row
    return ((members @ outside.T.astype(np.float32)) == 0).any(axis=1).tolist()


def _refusals(ell: int, lemma) -> list[str | None]:
    """For each two-generated subgroup of GL2(F_ell), in the order of
    _gl2_two_generated, None where the lemma returns a witness and the
    message of its PreconditionError where it refuses the group."""
    table = verify._gl2_table(ell)
    refusals = []
    for ids in verify._gl2_two_generated(ell):
        try:
            lemma(table.to_subgroup(ids))
        except PreconditionError as exc:
            refusals.append(str(exc))
        else:
            refusals.append(None)
    return refusals


@pytest.mark.parametrize("ell, placed", [(5, 233), (7, 858)])
def test_cartan_lemma_accepts_exactly_the_groups_a_cartan_holds(ell, placed):
    """On every two-generated subgroup of GL2(F_ell), conjugate_into_cartan
    returns a witness for exactly the groups that a conjugate of a standard
    Cartan holds, and refuses every other on a hypothesis: 233 of the 461
    groups at ell = 5 and 858 of the 1704 at ell = 7, the abelian groups of
    order prime to ell."""
    accepted = [r is None for r in _refusals(ell, conjugate_into_cartan)]
    cartans = (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN)
    assert accepted == _placement_oracle(ell, cartans)
    assert sum(accepted) == placed


@pytest.mark.parametrize(
    "ell, accepted_count, placed_count, refused_count", [(5, 228, 353, 125), (7, 900, 1376, 476)]
)
def test_normalizer_lemma_places_every_group_it_accepts(
    ell, accepted_count, placed_count, refused_count
):
    """conjugate_into_normalizer's hypothesis (a determinant-1 part of odd
    order prime to ell, up to -I) is sufficient, not necessary. On every
    two-generated subgroup of GL2(F_ell), each group it accepts lies in a
    conjugate of a standard Cartan normalizer, and the counts are pinned so
    that a change which widens or narrows the lemma shows: it accepts 228 of
    the 461 groups at ell = 5 and 900 of the 1704 at ell = 7, a normalizer
    holds 353 and 1376, and it refuses 125 and 476 of those. Every refusal
    names the lemma's own hypothesis, checked before any Cartan lemma runs."""
    refusals = _refusals(ell, conjugate_into_normalizer)
    assert set(refusals) == {
        None,
        "the determinant-1 part must have odd order prime to ell, up to the scalar -1",
    }
    accepted = [r is None for r in refusals]
    normalizers = (NamedGroupId.NORM_SPLIT, NamedGroupId.NORM_NONSPLIT)
    placed = _placement_oracle(ell, normalizers)
    assert [a for a, p in zip(accepted, placed) if a and not p] == []
    refused = sum(p and not a for a, p in zip(accepted, placed))
    assert (sum(accepted), sum(placed), refused) == (accepted_count, placed_count, refused_count)


def test_cyclic_generator_trivial():
    h = subgroup_from_entries(11, [(1, 0, 0, 1)])
    assert cyclic_generator(h).is_identity()


def test_cyclic_generator_diagonal_example():
    x = Mat2.diag(11, 4, 3)  # alpha^2, alpha^-2 for alpha = 2
    assert x.det() == 1
    h = _cyclic(11, x)
    assert h.order == 5
    gen = cyclic_generator(h)
    assert _cyclic(11, gen).elements == h.elements


def test_cyclic_generator_rejects_even_order():
    h = _cyclic(11, Mat2.diag(11, 10, 10))
    with pytest.raises(PreconditionError):
        cyclic_generator(h)


def test_normalizer_of_split_cartan():
    n = normalizer_in_gl2(named_group(NamedGroupId.SPLIT_CARTAN, 5))
    assert n.elements == named_group(NamedGroupId.NORM_SPLIT, 5).elements


def test_normalizer_of_nonsplit_cartan():
    n = normalizer_in_gl2(named_group(NamedGroupId.NONSPLIT_CARTAN, 5))
    assert n.elements == named_group(NamedGroupId.NORM_NONSPLIT, 5).elements


def test_normalizer_of_trivial_group():
    n = normalizer_in_gl2(subgroup_from_entries(5, [(1, 0, 0, 1)]))
    assert n.order == 480


def test_normalizer_scan_cap():
    with pytest.raises(ResourceLimitError):
        normalizer_in_gl2(subgroup_from_entries(17, [(1, 0, 0, 1)]))


def test_conjugate_into_normalizer_split():
    # a conjugated diagonal group whose determinant-1 part is trivial (odd)
    t = Mat2(7, 1, 1, 0, 1)
    g = subgroup_from_entries(
        7,
        [mat_mul(mat_mul(t, x), mat_inv(t)).entries() for x in _cyclic(7, Mat2.diag(7, 3, 1)).elements],
    )
    emb = conjugate_into_normalizer(g)
    assert emb.target is NamedGroupId.NORM_SPLIT
    assert emb.verify(g)


def test_conjugate_into_normalizer_nonsplit():
    h = _cyclic(5, Mat2(5, 0, 2, 1, 0))
    emb = conjugate_into_normalizer(h)
    assert emb.target is NamedGroupId.NORM_NONSPLIT
    assert emb.verify(h)


def test_conjugate_into_normalizer_scalar():
    h = _cyclic(7, Mat2.diag(7, 3, 3))
    emb = conjugate_into_normalizer(h)
    assert emb.verify(h)


def test_conjugate_into_normalizer_rejects_even_sl_part():
    g = named_group(NamedGroupId.SL2, 5)
    with pytest.raises(PreconditionError):
        conjugate_into_normalizer(g)


def test_conjugated_image_matches_witness():
    # the witness is independently checkable: conjugate elementwise and test membership
    h = _cyclic(11, Mat2(11, 1, 3, 5, 9))
    if h.order % 11:
        emb = conjugate_into_cartan(h)
        assert _conjugates_into_reference(h.elements, emb.conjugator, named_group(emb.target, 11))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([5, 7, 11]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(_TARGET_IDS),
    st.integers(0, 2),
)
def test_conjugation_target_matches_mat2_reference(ell, i, j, k, planted_in, planted):
    """The tuple check equals the Mat2 reference on <x, y> for every named
    target and for the group itself, over the elements and over the
    generators. `planted` of x, y are taken from t T t^-1 for the drawn
    target T, so the check also meets groups it must accept."""
    pool = _gl2_elements(ell)
    t = Mat2(ell, *pool[k % len(pool)])
    source = sorted(named_group(planted_in, ell).elements, key=Mat2.entries)
    gens = []
    for pos, idx in enumerate((i, j)):
        if pos < planted:
            gens.append(mat_mul(mat_mul(t, source[idx % len(source)]), mat_inv(t)))
        else:
            gens.append(Mat2(ell, *pool[idx % len(pool)]))
    g = closure(ell, [x.entries() for x in gens])
    targets = [named_group(gid, ell) for gid in _TARGET_IDS] + [g]
    expected = [_conjugates_into_reference(g.elements, t, target) for target in targets]
    gen_entries = [x.entries() for x in g.generators]
    for target, want in zip(targets, expected):
        assert (_conjugation_target(ell, t.entries(), g.entries, [target]) == 0) is want
        assert (_conjugation_target(ell, t.entries(), gen_entries, [target]) == 0) is want
    first = next((pos for pos, want in enumerate(expected) if want), None)
    assert _conjugation_target(ell, t.entries(), g.entries, targets) == first
    assert _conjugation_target(ell, t.entries(), gen_entries, targets) == first
    for gid, want in zip(_TARGET_IDS, expected):
        assert Conjugation(t, gid).verify(g) is want
    if planted == 2:
        assert expected[_TARGET_IDS.index(planted_in)]


@pytest.mark.parametrize("ell", [5, 7])
def test_oracles_match_reference_scans(ell):
    """On every cyclic prime-to-ell subgroup, the oracle returns the
    reference scan's conjugator and target, and the normalizer scan the
    reference's element set."""
    for h in _cyclic_prime_to(ell):
        emb = brute_force_cartan_conjugator(h)
        assert (emb.conjugator, emb.target) == _cartan_scan_reference(h)
        assert normalizer_in_gl2(h).elements == _normalizer_scan_reference(h)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 7]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN]),
    st.booleans(),
)
def test_oracles_match_reference_scans_on_two_generators(ell, i, j, cartan, y_in_cartan):
    """The oracles read every generator: x is taken from a Cartan and y from
    the same Cartan or from all of GL2, so y often decides the answer."""
    pool = _gl2_elements(ell)
    source = sorted(named_group(cartan, ell).elements, key=Mat2.entries)
    x = source[i % len(source)]
    y = source[j % len(source)] if y_in_cartan else Mat2(ell, *pool[j % len(pool)])
    h = closure(ell, [x.entries(), y.entries()])
    emb = brute_force_cartan_conjugator(h)
    reference = _cartan_scan_reference(h)
    assert (emb and (emb.conjugator, emb.target)) == reference
    assert normalizer_in_gl2(h).elements == _normalizer_scan_reference(h)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_cartan_witness_reads_generators_only(ell, seed, cyclic, shuffler):
    """The same generators over the same entries in another order give the
    same witness, on cyclic and on random abelian groups of order prime to
    ell, and the witness places the group."""
    rng = random.Random(seed)
    if cyclic:
        pool = _gl2_elements(ell)
        x = pool[rng.randrange(len(pool))]
        while _ell_divides_order(ell, x):
            x = pool[rng.randrange(len(pool))]
        h = closure(ell, [x])
    else:
        h = _random_abelian(rng, ell)
    entries = list(h.entries)
    shuffler.shuffle(entries)
    reordered = Subgroup(ell, h.generator_entries, entries)
    emb = conjugate_into_cartan(h)
    assert conjugate_into_cartan(reordered) == emb
    assert emb.verify(h)


def _verify_on_entries(emb: Conjugation, h: Subgroup) -> bool:
    """Conjugation.verify as it was before it read generators alone: t^-1 x t
    checked for every entry tuple x of h. The reference for the check on
    generators."""
    target = named_group(emb.target, h.n)
    return _conjugation_target(h.n, emb.conjugator.entries(), h.entries, [target]) == 0


def _regenerated(h: Subgroup) -> Subgroup:
    """h closed again from a few of its elements, each the first entry
    outside the group closed so far, so that its generators are not all of
    its elements."""
    ell, gens = h.n, []
    g = closure(ell, gens)
    for e in h.entries:
        if Mat2(ell, *e) not in g:
            gens.append(e)
            g = closure(ell, gens)
    return g


def _witnesses(g: Subgroup) -> list[Conjugation]:
    """Every witness the lemmas return for g: a Cartan, a normalizer and,
    at an odd-index point, the classify verdict."""
    constructions = [conjugate_into_cartan, conjugate_into_normalizer]
    point = degree_spectrum(g).odd_index_point() if g.n >= 5 else None
    if point is not None:
        constructions.append(lambda h: classify_image(h, point))
    out = []
    for construct in constructions:
        try:
            out.append(construct(g))
        except PreconditionError:
            pass
    return out


@pytest.mark.parametrize("ell, count", [(5, 461), (7, 1704)])
def test_verify_on_generators_matches_the_entry_scan(ell, count):
    """On every two-generated subgroup of GL2(F_ell), closed again from a few
    generators, Conjugation.verify on those generators agrees with the check
    on every entry tuple: for each witness the lemmas return, for its
    conjugator against every named target, and for seeded random
    conjugators, most of them wrong. The enumerated group itself, made with
    generators None, is checked on its entries and gets no Mat2 generators."""
    table, rng = verify._gl2_table(ell), random.Random(ell)
    pool = _gl2_elements(ell)
    subgroups = verify._gl2_two_generated(ell)
    assert len(subgroups) == count
    outcomes = {True: 0, False: 0}
    witness_count = 0
    for ids in subgroups:
        h = table.to_subgroup(ids)
        g = _regenerated(h)
        assert g == h and len(g.generators) < max(h.order, 2)
        witnesses = _witnesses(g)
        witness_count += len(witnesses)
        for emb in witnesses:
            assert emb.verify(g) and _verify_on_entries(emb, g)
        conjugators = [emb.conjugator for emb in witnesses]
        conjugators += [Mat2(ell, *pool[rng.randrange(len(pool))]) for _ in range(2)]
        for t in conjugators:
            for gid in _TARGET_IDS:
                emb = Conjugation(t, gid)
                want = _verify_on_entries(emb, g)
                assert emb.verify(g) is want and emb.verify(h) is want
                outcomes[want] += 1
        assert "generators" not in vars(h)
    assert witness_count > count // 2 and min(outcomes.values()) > count


def test_cartan_witness_failing_verify_raises(monkeypatch):
    """A witness that fails its own check is a falsification event: no
    other construction is tried in its place."""
    monkeypatch.setattr(Conjugation, "verify", lambda self, h: False)
    for x in (Mat2.diag(7, 3, 2), Mat2(7, 0, 5, 1, 0)):  # split, then non-split
        with pytest.raises(LemmaViolationError):
            conjugate_into_cartan(_cyclic(7, x))


def _witness_line(h: Subgroup, emb: Conjugation) -> str:
    gens = [x.entries() for x in h.generators]
    return f"{h.n} {gens} {emb.conjugator.entries()} {emb.target.value}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the witness lines of the two tests below: every conjugator and
# target on those groups is pinned, since `classify` prints the conjugator.
# The witness is read off the generators alone, so each digest moves only
# with the witness rule or with the generators the groups are built from.
CARTAN_WITNESS_DIGEST = "f097caec01e5bc8b0a0f83feb76332c1dbdb548d02c00656b7b5390801bcebf0"
NORMALIZER_WITNESS_DIGEST = "2e9d2338724765d6bcf6ca41c406f4ac8cfa82b0f2606e0d99bbfc06d541cbb6"


def test_cartan_witnesses_pinned():
    """conjugate_into_cartan returns the pinned (conjugator, target) on every
    cyclic prime-to-ell subgroup mod 3, 5, 7 and 11 and on 100 seeded random
    abelian groups mod 5, 7, 11 and 13."""
    groups = [h for ell in (3, 5, 7, 11) for h in _cyclic_prime_to(ell)]
    for ell in (5, 7, 11, 13):
        rng = random.Random(ell)
        groups += [_random_abelian(rng, ell) for _ in range(100)]
    assert _digest(_witness_line(h, conjugate_into_cartan(h)) for h in groups) == (
        CARTAN_WITNESS_DIGEST
    )


def test_normalizer_witnesses_pinned(monkeypatch):
    """conjugate_into_normalizer returns the pinned witness on every group
    the ns-nns harness checks mod 5 and 7."""
    lines = []

    def record(h):
        emb = conjugate_into_normalizer(h)
        if h.n in (5, 7):
            lines.append(_witness_line(h, emb))
        return emb

    monkeypatch.setattr(verify, "conjugate_into_normalizer", record)
    assert verify.harness_ns_nns().ok
    assert _digest(lines) == NORMALIZER_WITNESS_DIGEST


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_nonsplit_conjugator_closed_form(ell):
    """For every g with a non-residue discriminant, t^-1 g t = (a b*alpha; b a)
    with a = tr/2 and b = sqrt(disc/alpha)/2, the least square root."""
    alpha, half = primitive_root(ell), pow(2, -1, ell)
    count = 0
    for g in (Mat2(ell, *e) for e in _gl2_elements(ell)):
        disc = (g.trace() ** 2 - 4 * g.det()) % ell
        if legendre(disc, ell) != -1:
            continue
        count += 1
        a = g.trace() * half % ell
        b = sqrt_mod(disc * pow(alpha, -1, ell), ell) * half % ell
        t = lemmas._nonsplit_conjugator(ell, g.entries())
        assert mat_mul(mat_mul(mat_inv(t), g), t) == Mat2(ell, a, b * alpha, b, a)
    # ell(ell - 1)/2 conjugates of the non-split Cartan, ell^2 - ell such elements in each
    assert count == ell**2 * (ell - 1) ** 2 // 2
