import functools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gl2tors import classify, stabilizers, verify
from gl2tors.cli import main
from gl2tors.errors import LemmaViolationError, PreconditionError, ResourceLimitError
from gl2tors.classify import _cartan_power
from gl2tors.groups import (
    NamedGroupId,
    Subgroup,
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
    normalizer_in_gl2,
)
from gl2tors.modarith import Mat2, element_order, mat_mul
from gl2tors.stabilizers import ProjPoint, degree_spectrum, sl_part, vector_stabilizer
from gl2tors.verify import (
    HARNESS_IDS,
    HarnessResult,
    _ell_divides_order,
    _gl2_table,
    _gl2_two_generated,
    _MulTable,
    _stabilizer_orders,
    _subgroups_between,
    _table_closures,
    run_harness,
)


def _table_closure(table: np.ndarray, identity: int, gen_ids, start=()) -> frozenset[int]:
    """The closure of one id set under an int32 Cayley table, by a
    breadth-first search on one membership mask: the per-row search that
    the batched _table_closures replaced, kept as the quotient closure of
    _subgroups_between_reference so that reference shares no code with it."""
    inside = np.zeros(len(table), dtype=bool)
    inside[list(gen_ids)] = True
    gens = np.flatnonzero(inside)
    inside[list(start)] = True
    inside[identity] = True
    frontier = np.flatnonzero(inside)
    while frontier.size:
        reached = inside.copy()
        reached[table[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(reached > inside)
        inside = reached
    return frozenset(np.flatnonzero(inside).tolist())


def _closure_ids(table: _MulTable, gen_ids) -> frozenset[int]:
    """The ids of the closure of the given elements, found by the tuple
    closure of groups.closure and read back through the elements' entries: a
    closure that shares no code with the table search."""
    index = {e: i for i, e in enumerate(table.entries)}
    group = closure(table.n, [table.entries[i] for i in gen_ids])
    return frozenset(index[e] for e in group.entries)


def _row_sets(members: np.ndarray) -> list[frozenset[int]]:
    """The id set of each row of a membership matrix."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in members]


def _membership_rows(k: int, id_sets) -> np.ndarray:
    """The membership matrix of a list of id sets of a k-element table."""
    rows = np.zeros((len(id_sets), k), dtype=bool)
    for row, ids in zip(rows, id_sets):
        row[list(ids)] = True
    return rows


def _close_one(table: _MulTable, gen_ids, start=()) -> frozenset[int]:
    """The closure of one id set: a batch of one row of _table_closures."""
    gen_row = np.fromiter(gen_ids, dtype=np.intp)[None, :]
    starts = _membership_rows(len(table.entries), [start])
    [members] = _row_sets(_table_closures(table.table, table.identity, gen_row, starts))
    return members


def _cyclic_subgroups_reference(n: int, entries) -> list[Subgroup]:
    """The distinct cyclic subgroups the entries generate, in order of first
    appearance, each generated by the first element that generates it, by
    closing every element: the reference for groups._cyclic_subgroups."""
    # groups hash and compare on their entries, and a dict keeps the first of equal keys
    return list(dict.fromkeys(closure(n, [e]) for e in entries))


def _cyclic_ids_reference(table: _MulTable) -> dict[frozenset[int], int]:
    """The table's cyclic subgroups as id sets, each with its generator's id."""
    index = {e: i for i, e in enumerate(table.entries)}
    return {
        frozenset(index[e] for e in h.entries): index[h.generators[0].entries()]
        for h in _cyclic_subgroups_reference(table.n, table.entries)
    }


def _two_generated_reference(table: _MulTable) -> set[frozenset[int]]:
    """Every subgroup generated by at most two elements, by closing all pairs
    of cyclic subgroups: the slow reference for _MulTable.two_generated."""
    cyclic = _cyclic_ids_reference(table)
    keys = sorted(cyclic, key=lambda s: (len(s), sorted(s)))
    subgroups: set[frozenset[int]] = set(keys)
    for i, first in enumerate(keys):
        g1 = cyclic[first]
        for second in keys[i + 1 :]:
            if cyclic[second] in first or g1 in second:
                continue
            subgroups.add(_closure_ids(table, [g1, cyclic[second]]))
    return subgroups


def _row_by_row_table(n: int, entries: list[tuple[int, int, int, int]]) -> np.ndarray:
    """The int32 Cayley table built one row per Python iteration: the
    reference for the blocked build in _MulTable."""
    k = len(entries)
    a, b, c, d = (np.array(col, dtype=np.int64) for col in zip(*entries))
    lut = np.full(n**4, -1, dtype=np.int32)
    lut[((a * n + b) * n + c) * n + d] = np.arange(k, dtype=np.int32)
    table = np.empty((k, k), dtype=np.int32)
    for i in range(k):
        pa = (a[i] * a + b[i] * c) % n
        pb = (a[i] * b + b[i] * d) % n
        pc = (c[i] * a + d[i] * c) % n
        pd = (c[i] * b + d[i] * d) % n
        table[i] = lut[((pa * n + pb) * n + pc) * n + pd]
    return table


def _borel_table(ell: int) -> _MulTable:
    return _MulTable(ell, sorted(named_group(NamedGroupId.BOREL, ell).entries))


def test_two_generated_gl2_5_matches_reference():
    subgroups = _gl2_two_generated(5)
    assert len(subgroups) == 461
    assert set(subgroups) == _two_generated_reference_of("GL2(5)")


def test_two_generated_borel_7_matches_reference():
    table = _borel_table(7)
    assert table.two_generated() == _two_generated_reference_of("Borel(7)")


def _small_ambient(ell: int, rng: random.Random):
    """⟨a, b⟩ for the first random pair a, b of GL2(F_ell) whose closure has
    order at most 200."""
    pool = _gl2_elements(ell)
    while True:
        try:
            return closure(ell, rng.sample(pool, 2), cap=200)
        except ResourceLimitError:
            continue


@st.composite
def _small_two_generated_group(draw):
    """A subgroup ⟨x, y⟩ of GL2(F_ell), ell in {5, 7}, of order at most 200,
    so the all-pairs reference stays cheap.

    x and y are drawn from an ambient ⟨a, b⟩ of order at most 200, where a and
    b are the first random pair of a seeded search whose closure stays under
    that cap. Nothing is discarded, small groups are common, and groups
    outside every Borel and Cartan normalizer, such as SL2(F_5), stay in reach.
    """
    ell = draw(st.sampled_from([5, 7]))
    ambient = _small_ambient(ell, random.Random(draw(st.integers(0, 2**32 - 1))))
    entry = st.sampled_from(ambient.entries)
    return closure(ell, [draw(entry), draw(entry)])


@settings(max_examples=30, deadline=None)
@given(_small_two_generated_group())
@example(named_group(NamedGroupId.SL2, 5))
def test_two_generated_matches_reference_on_subgroups(g):
    table = _MulTable(g.n, sorted(g.entries))
    assert table.two_generated() == _two_generated_reference(table)


_CLOSURE_TABLES = ("GL2(5)", "Borel(7)", "small")


@functools.lru_cache(maxsize=None)
def _closure_table(name: str) -> _MulTable:
    """The table of GL2(ell) or of a named group, by its name "Family(ell)",
    or of a small seeded subgroup of GL2(F_7) for "small"."""
    if name == "small":
        small = _small_ambient(7, random.Random(5))
        return _MulTable(7, sorted(small.entries))
    family, ell = name.rstrip(")").split("(")
    if family == "GL2":
        return _gl2_table(int(ell))
    return _MulTable(int(ell), sorted(named_group(NamedGroupId(family), int(ell)).entries))


@functools.lru_cache(maxsize=None)
def _two_generated_reference_of(name: str) -> set[frozenset[int]]:
    """_two_generated_reference on a named table, computed once per session."""
    return _two_generated_reference(_closure_table(name))


def _two_generated_batches(table: _MulTable) -> tuple[set[frozenset[int]], list[np.ndarray]]:
    """two_generated on the table, and the generator rows of each
    _table_closures batch it closes."""
    batches = []
    closures = verify._table_closures
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            verify, "_table_closures", lambda *args: batches.append(args[2]) or closures(*args)
        )
        return table.two_generated(), batches


@pytest.mark.parametrize("name, rows", [("GL2(5)", 227), ("Borel(7)", 355)])
def test_two_generated_closes_class_ordered_pairs(name, rows, monkeypatch):
    """One batch closes only the class-ordered pairs, 227 rows on GL2(F_5)
    where every normalizer orbit gave 414, and 355 on Borel(7) against 694,
    and the subgroups found are still every two-generated one. Rows already
    known are skipped on their packed bytes, so each subgroup is built as a
    frozenset once."""
    table = _closure_table(name)
    built = []
    monkeypatch.setattr(
        verify, "frozenset", lambda ids: built.append(1) or frozenset(ids), raising=False
    )
    subgroups, batches = _two_generated_batches(table)
    monkeypatch.undo()
    assert len(built) == len(subgroups)
    assert subgroups == _two_generated_reference_of(name)
    assert [len(gen_rows) for gen_rows in batches] == [rows]


def _orbit_reps_reference(images: np.ndarray) -> list[int]:
    """The first index of each orbit, by the greedy loop that two_generated
    ran before its min-reduction: images[c, j] is the index of the image of
    item j under conjugator c, for conjugators that form a group."""
    seen = np.zeros(images.shape[1], dtype=bool)
    reps = []
    for j in range(images.shape[1]):
        if not seen[j]:
            seen[images[:, j]] = True
            reps.append(j)
    return reps


def _class_ordered_pairs_reference(table: _MulTable) -> set[tuple[int, int]]:
    """The generator ids of the pairs of cyclic subgroups (H_i, H_j) that
    two_generated should close: H_i the first of its class, H_j the first of
    its orbit under the normalizer of H_i, the class of H_j not before that
    of H_i, and neither inside the other. Every first is found by the greedy
    loop, and each normalizer by testing every element."""
    t, k = table.table, len(table.entries)
    cyclic = _cyclic_ids_reference(table)
    keys = sorted(cyclic, key=len)
    gens = np.array([cyclic[s] for s in keys])
    position = {s: j for j, s in enumerate(keys)}
    cyc_of = np.array([position[_closure_ids(table, [x])] for x in range(k)])
    # conj[g, x] = g⁻¹·x·g
    conj = t[t[table.inverse], np.arange(k)[:, None]]
    images = cyc_of[conj[:, gens]]
    firsts = _orbit_reps_reference(images)
    class_of = np.empty(len(keys), dtype=int)
    for i in firsts:
        class_of[images[:, i]] = i
    pairs = set()
    for i in firsts:
        ids = sorted(keys[i])
        normalizer = [g for g in range(k) if set(conj[g, ids].tolist()) == keys[i]]
        for j in _orbit_reps_reference(images[normalizer]):
            if class_of[j] >= i and gens[j] not in keys[i] and gens[i] not in keys[j]:
                pairs.add((int(gens[i]), int(gens[j])))
    return pairs


@settings(max_examples=30, deadline=None)
@given(_small_two_generated_group())
@example(named_group(NamedGroupId.SL2, 5))
def test_min_reduction_matches_greedy_orbit_reps(g):
    """The least conjugate index picks the same orbit representatives as the
    greedy loop, on all of the group and on each normalizer: the pairs
    two_generated closes, each once, are the class-ordered pairs of the
    greedy representatives."""
    table = _MulTable(g.n, sorted(g.entries))
    [gen_rows] = _two_generated_batches(table)[1]
    closed = {(i, j) for i, j in gen_rows.tolist()}
    assert len(closed) == len(gen_rows)
    assert closed == _class_ordered_pairs_reference(table)


@pytest.mark.parametrize("name", _CLOSURE_TABLES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_closure_matches_tuple_bfs(name, data):
    """The mask closure equals the tuple closure of groups.closure, and a start
    set inside the group leaves it unchanged."""
    table = _closure_table(name)
    k = len(table.entries)
    ids = data.draw(st.lists(st.integers(0, k - 1), max_size=4), label="ids")
    expected = _closure_ids(table, ids)
    assert _close_one(table, ids) == expected
    start = data.draw(st.lists(st.sampled_from(sorted(expected)), max_size=6), label="start")
    assert _close_one(table, ids, start) == expected


@pytest.mark.parametrize("name", _CLOSURE_TABLES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_closure_matches_tuple_bfs(name, data):
    """Every row of a batch closes to groups.closure of its own generators:
    rows of one common width, identity-only rows among them, each started
    from ids drawn inside its own group."""
    table = _closure_table(name)
    k, e = len(table.entries), table.identity
    width = data.draw(st.integers(0, 3), label="width")
    row = st.lists(st.integers(0, k - 1), min_size=width, max_size=width)
    rows = data.draw(st.lists(st.one_of(row, st.just([e] * width)), max_size=6), label="rows")
    expected = [_closure_ids(table, ids) for ids in rows]
    starts = [
        data.draw(st.lists(st.sampled_from(sorted(group)), max_size=6), label="start")
        for group in expected
    ]
    gen_rows = np.array(rows, dtype=np.intp).reshape(len(rows), width)
    members = _table_closures(table.table, e, gen_rows, _membership_rows(k, starts))
    assert _row_sets(members) == expected


@pytest.mark.parametrize("name", _CLOSURE_TABLES)
def test_table_closure_edge_cases(name):
    table = _closure_table(name)
    k, e = len(table.entries), table.identity
    x, y = [i for i in range(k) if i != e][:2]
    for ids in ([], [e], [e, e], [x, x, y, x, e], list(range(k))):
        expected = _closure_ids(table, ids)
        assert _close_one(table, ids) == expected
    assert _close_one(table, []) == {e}
    assert _close_one(table, range(k)) == frozenset(range(k))
    for width in (0, 2):
        no_rows = np.empty((0, width), dtype=np.intp)
        assert _row_sets(_table_closures(table.table, e, no_rows, _membership_rows(k, []))) == []


@pytest.mark.parametrize(
    "entries",
    [[(1, 0, 0, 1)], sorted(closure(5, [(2, 0, 0, 1)]).entries)],
    ids=["trivial", "cyclic-4"],
)
def test_two_generated_with_no_pair_to_close(entries):
    """In a cyclic group every pair of cyclic subgroups is nested, so the
    batch of pairs is empty and the answer is the cyclic subgroups alone."""
    table = _MulTable(5, entries)
    assert table.two_generated() == set(_cyclic_ids_reference(table))
    assert table.two_generated() == _two_generated_reference(table)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(1, 0, 0, 1), (1, 1, 0, 1)], "not closed"),
        ([(1, 0, 0, 0)], "no identity"),
        ([(1, 0, 0, 1), (1, 0, 0, 0)], "no inverse"),
    ],
    ids=["unclosed", "no-identity", "singular"],
)
def test_mul_table_rejects_a_list_that_is_not_a_group(entries, message):
    with pytest.raises(PreconditionError, match=message):
        _MulTable(5, entries)


@pytest.mark.parametrize(
    "name",
    [
        "GL2(5)",
        "Borel(7)",
        "GL2(7)",
        "Borel(11)",
        "NormSplit(11)",
        "NormNonsplit(11)",
        "NormSplit(13)",
        "NormNonsplit(13)",
    ],
)
def test_blocked_table_matches_row_by_row(name):
    """The row-action build equals the product arithmetic, row by row, on
    every table a harness builds."""
    table = _closure_table(name)
    assert np.array_equal(table.table, _row_by_row_table(table.n, table.entries))


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


@pytest.mark.parametrize(
    "name, count",
    [("GL2(5)", 461), ("GL2(7)", 1704), ("Borel(7)", 216)],
    ids=["GL2(5)", "GL2(7)", "Borel(7)"],
)
def test_to_subgroup_matches_element_built_group(name, count, monkeypatch):
    """Every enumerated group equals the group subgroup_from_entries builds
    from its members, with the same entries tuple, and comes back with no
    Mat2 built; its generators are derived on first read, with the same
    values as the reference's."""
    table = _closure_table(name)
    gl2 = name.startswith("GL2")
    subgroups = list(_gl2_two_generated(table.n) if gl2 else table.two_generated())
    assert len(subgroups) == count
    built = _counted_mat2_builds(monkeypatch)
    enumerated = [table.to_subgroup(ids) for ids in subgroups]
    assert built == []
    monkeypatch.undo()
    for ids, g in zip(subgroups, enumerated):
        reference = subgroup_from_entries(table.n, [table.entries[i] for i in ids])
        assert g == reference
        assert g.order == reference.order == len(ids)
        assert g.det_image() == reference.det_image()
        assert g.entries == reference.entries
        assert "generators" not in vars(g)
        assert g.generators == reference.generators
        assert "generators" in vars(g)
        assert [x.entries() for x in g.generators] == sorted(table.entries[i] for i in ids)


def test_mul_table_sorts_its_entries():
    """A table lists its entries in ascending order whatever order it is
    given them in, so the same group gives the same ids and the same table."""
    entries = sorted(named_group(NamedGroupId.SL2, 5).entries)
    shuffled = _MulTable(5, random.Random(0).sample(entries, len(entries)))
    assert shuffled.entries == entries
    assert np.array_equal(shuffled.table, _MulTable(5, entries).table)


def _odd_index_reference(table: _MulTable, subgroups) -> list[int]:
    """The position in ProjPoint.all_points of the point that
    degree_spectrum(g).odd_index_point() picks for each subgroup, or -1 where
    it picks none: the per-group reference for the classify harness's
    witnesses."""
    points = ProjPoint.all_points(table.n)
    positions = []
    for ids in subgroups:
        g = subgroup_from_entries(table.n, [table.entries[i] for i in ids])
        witness = degree_spectrum(g).odd_index_point()
        positions.append(-1 if witness is None else points.index(witness))
    return positions


def _odd_index_witnesses(table: _MulTable, subgroups) -> list[int]:
    """The first position at which |G| // the stabilizer order in column 0
    of _stabilizer_orders is odd, for each subgroup, or -1 where none is."""
    orders = _stabilizer_orders(table, subgroups)[..., 0].tolist()
    return [
        next((at for at, order in enumerate(row) if len(ids) // order % 2), -1)
        for ids, row in zip(subgroups, orders)
    ]


@pytest.mark.parametrize("ell, witnesses", [(5, 121), (7, 706)])
def test_odd_index_witnesses_match_degree_spectrum(ell, witnesses):
    """The one pass over the GL2 table picks, for every two-generated
    subgroup, the same odd-index point as its degree spectrum: 121 of the
    461 subgroups at ell = 5 have one, and 706 of the 1704 at ell = 7."""
    table, subgroups = _gl2_table(ell), _gl2_two_generated(ell)
    got = _odd_index_witnesses(table, subgroups)
    assert got == _odd_index_reference(table, subgroups)
    assert sum(at >= 0 for at in got) == witnesses


@settings(max_examples=30, deadline=None)
@given(_small_two_generated_group())
@example(named_group(NamedGroupId.SL2, 5))
def test_odd_index_witnesses_match_degree_spectrum_on_subgroups(g):
    table = _MulTable(g.n, sorted(g.entries))
    subgroups = list(table.two_generated())
    assert _odd_index_witnesses(table, subgroups) == _odd_index_reference(table, subgroups)


def _stabilizer_orders_reference(table: _MulTable, subgroups) -> list[list[list[int]]]:
    """For each subgroup, at each point of ProjPoint.all_points, the orders of
    its vector stabilizer and of that stabilizer's det-1 part, each filtered
    from the entries of a group that subgroup_from_entries wraps: the
    per-group reference for _stabilizer_orders."""
    points = ProjPoint.all_points(table.n)
    orders = []
    for ids in subgroups:
        g = subgroup_from_entries(table.n, [table.entries[i] for i in ids])
        stabs = [vector_stabilizer(g, p.c, p.d) for p in points]
        orders.append([[s.order, sl_part(s).order] for s in stabs])
    return orders


@pytest.mark.parametrize("ell, nontrivial", [(5, 108), (7, 272)])
def test_stabilizer_orders_match_vector_stabilizers(ell, nontrivial):
    """The one pass over the GL2 table gives, for every two-generated
    subgroup and every point, the order of the vector stabilizer and of its
    det-1 part; the det-1 part is trivial at all but 108 of the 461 · 6
    (group, point) pairs at ell = 5 and 272 of the 1704 · 8 at ell = 7."""
    table, subgroups = _gl2_table(ell), _gl2_two_generated(ell)
    got = _stabilizer_orders(table, subgroups)
    assert got.shape == (len(subgroups), ell + 1, 2)
    assert got.tolist() == _stabilizer_orders_reference(table, subgroups)
    assert np.count_nonzero(got[..., 1] != 1) == nontrivial


@settings(max_examples=30, deadline=None)
@given(_small_two_generated_group())
@example(named_group(NamedGroupId.SL2, 5))
def test_stabilizer_orders_match_vector_stabilizers_on_subgroups(g):
    table = _MulTable(g.n, sorted(g.entries))
    subgroups = list(table.two_generated())
    got = _stabilizer_orders(table, subgroups).tolist()
    assert got == _stabilizer_orders_reference(table, subgroups)


def _gl2_entries_reference(ell: int) -> list[tuple[int, int, int, int]]:
    """GL2(F_ell) enumerated apart from the library's list: every (a, b, c, d)
    whose Mat2 is invertible, in lexicographic order."""
    return [
        (a, b, c, d)
        for a in range(ell)
        for b in range(ell)
        for c in range(ell)
        for d in range(ell)
        if Mat2(ell, a, b, c, d).is_invertible()
    ]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_gl2_table_builds_no_mat2(ell, monkeypatch):
    """The one GL2 list (_gl2_elements) and the GL2 table both hold the
    entry tuples of a separate lexicographic enumeration, in its order, and
    building either constructs no Mat2."""
    built = _counted_mat2_builds(monkeypatch)
    elements = _gl2_elements.__wrapped__(ell)
    table = _gl2_table.__wrapped__(ell)
    assert built == []
    monkeypatch.undo()
    reference = _gl2_entries_reference(ell)
    assert list(elements) == reference
    assert table.entries == reference


def test_scans_build_at_most_the_mat2_they_return(monkeypatch):
    """The scans over GL2(F_ell) and over a group's generators read entry
    tuples: each call builds at most one Mat2, the conjugator it returns.
    The GL2 list is rebuilt under the count, so a list held as Mat2 shows.
    The groups, none of them read off the GL2 list: the cyclic subgroups of
    the Borel subgroup mod 7, some of order divisible by 7, which no Cartan
    holds, for the Cartan oracle; three named groups mod 5 for the
    normalizer scan; and the Borel subgroup mod 11 and its transpose,
    wrapped so that every element is a generator, for the stable-line scan
    (lines (0:1) and (1:0))."""
    borel = named_group(NamedGroupId.BOREL, 11).entries
    mod5 = (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NONSPLIT_CARTAN, NamedGroupId.BOREL)
    scans = [
        (
            brute_force_cartan_conjugator,
            _cyclic_subgroups(7, named_group(NamedGroupId.BOREL, 7).entries),
        ),
        (normalizer_in_gl2, [named_group(gid, 5) for gid in mod5]),
        (
            classify._invariant_line_conjugator,
            [
                subgroup_from_entries(11, borel),
                subgroup_from_entries(11, ((a, c, b, d) for a, b, c, d in borel)),
            ],
        ),
    ]
    results = [[scan(g) for g in groups] for scan, groups in scans]  # named groups built
    _gl2_elements.cache_clear()
    built = _counted_mat2_builds(monkeypatch)
    for (scan, groups), expected in zip(scans, results):
        for g, want in zip(groups, expected):
            before = len(built)
            assert scan(g) == want
            assert len(built) - before <= 1, scan.__name__
    assert None in results[0] and any(results[0])
    assert [t.entries() for t in results[2]] == [(1, 0, 0, 1), (0, 1, 1, 0)]


def test_easy_d_and_cong_check_build_no_mat2_but_the_conjugators(monkeypatch):
    """A default easy-d run decides order ell on entry tuples and builds one
    Mat2 per conjugator that unipotent_class returns (380, one per point
    whose det-1 stabilizer is not trivial); cong_check, over a default bl
    run, builds none."""
    results = []
    lemma = verify.unipotent_class
    monkeypatch.setattr(verify, "unipotent_class", lambda g, p: results.append(lemma(g, p)))
    built = _counted_mat2_builds(monkeypatch)
    assert run_harness("easy-d").ok
    conjugators = [r.conjugator for r in results if r.conjugator is not None]
    assert len(conjugators) == len(results) == 380
    assert len(built) == len(conjugators)

    built_in_check = []
    check = classify.cong_check

    def counted_check(delta):
        before = len(built)
        result = check(delta)
        built_in_check.append(len(built) - before)
        return result

    monkeypatch.setattr(classify, "cong_check", counted_check)
    assert run_harness("bl").ok
    assert len(built_in_check) > 0 and set(built_in_check) == {0}


def _subgroups_between_reference(
    ambient: Subgroup, normal: frozenset[Mat2]
) -> list[frozenset[Mat2]]:
    """All subgroups of the ambient group containing the given normal subgroup,
    enumerated through the quotient's coset multiplication, with every coset
    built as a set of Mat2 products: the reference for _subgroups_between."""
    reps: list[Mat2] = []
    cosets: list[frozenset[Mat2]] = []
    loc: dict[Mat2, int] = {}
    for x in sorted(ambient.elements, key=Mat2.entries):
        if x in loc:
            continue
        coset = frozenset(mat_mul(x, h) for h in normal)
        idx = len(reps)
        reps.append(x)
        cosets.append(coset)
        for m in coset:
            loc[m] = idx
    mul = np.array([[loc[mat_mul(x, y)] for y in reps] for x in reps], dtype=np.int32)
    ident = loc[Mat2.identity(ambient.n)]
    subs: set[frozenset[int]] = {frozenset({ident})}
    queue = [frozenset({ident})]
    while queue:
        base = queue.pop()
        for q in range(len(reps)):
            if q in base:
                continue
            grown = _table_closure(mul, ident, base | {q})
            if grown not in subs:
                subs.add(grown)
                queue.append(grown)
    out = []
    for ids in subs:
        elems: set[Mat2] = set()
        for i in ids:
            elems |= cosets[i]
        out.append(frozenset(elems))
    return out


@pytest.mark.parametrize("ell", [11, 13])
def test_subgroups_between_matches_coset_reference(ell):
    """On every call the not-bl harness makes, the quotient of the ambient
    group's table gives the same subgroups as the Mat2 coset reference."""
    pairs = (
        (NamedGroupId.NONSPLIT_CARTAN, NamedGroupId.NORM_NONSPLIT),
        (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NORM_SPLIT),
    )
    for cartan_id, norm_id in pairs:
        ambient = named_group(norm_id, ell)
        table = _MulTable(ell, sorted(ambient.entries))
        for e in (1, 2, 3, 4, 6):
            power = _cartan_power(named_group(cartan_id, ell), e)
            got = [frozenset(g.entries) for g in _subgroups_between(table, power)]
            reference = _subgroups_between_reference(ambient, power.elements)
            assert len(got) == len(set(got)) == len(reference)
            assert set(got) == {frozenset(x.entries() for x in elems) for elems in reference}


def _sl2_11_entries():
    return sorted(named_group(NamedGroupId.SL2, 11).entries)


@pytest.mark.parametrize(
    "n, entries",
    [
        pytest.param(5, lambda: list(_gl2_elements(5)), id="GL2(5)"),
        pytest.param(7, lambda: list(_gl2_elements(7)), id="GL2(7)"),
        pytest.param(
            11,
            lambda: [e for e in _gl2_elements(11) if not _ell_divides_order(11, e)],
            id="GL2(11)-prime-to-11",
        ),
        pytest.param(11, _sl2_11_entries, id="SL2(11)"),
    ],
)
def test_cyclic_subgroups_match_reference(n, entries):
    _assert_cyclic_subgroups_match_reference(n, entries())


def _assert_cyclic_subgroups_match_reference(n, entries):
    """One closure per cyclic subgroup finds the same groups as closing every
    element, in the same order, with the same generators and entry order."""
    got, reference = _cyclic_subgroups(n, entries), _cyclic_subgroups_reference(n, entries)
    assert [(h.generators, h.entries) for h in got] == [
        (h.generators, h.entries) for h in reference
    ]


@st.composite
def _shuffled_small_group(draw):
    """The modulus and the entries, in a random order, of a small subgroup of
    GL2(F_5) or GL2(F_7)."""
    g = draw(_small_two_generated_group())
    return g.n, draw(st.permutations(g.entries))


@settings(max_examples=40, deadline=None)
@given(_shuffled_small_group())
@example((5, named_group(NamedGroupId.SL2, 5).entries[::-1]))
def test_cyclic_subgroups_match_reference_on_shuffled_groups(args):
    _assert_cyclic_subgroups_match_reference(*args)


def _cyclic_harness_pairs_reference() -> set[Subgroup]:
    """The odd-order prime-to-11 subgroups of SL2(F_11) generated by at most
    two elements, by closing every pair of cyclic subgroups of order dividing
    15 with a closure capped at 15 elements: the pair search the cyclic
    harness ran before it enumerated on the table."""
    ell = 11
    # odd orders prime to 11 divide 15, so the cyclic subgroups have order 1, 3, 5, or 15
    cyclics = [h for h in _cyclic_subgroups_reference(ell, _sl2_11_entries()) if 15 % h.order == 0]
    candidates = set(cyclics)
    for i, first in enumerate(cyclics):
        for second in cyclics[i + 1 :]:
            try:
                candidates.add(closure(ell, first.generator_entries + second.generator_entries, cap=15))
            except ResourceLimitError:
                continue  # order exceeds 15, so it is even or divisible by 11
    return {h for h in candidates if h.order % 2 and h.order % ell}


def test_cyclic_harness_domain_matches_pair_search():
    """The odd prime-to-11 groups among the two-generated subgroups of
    SL2(F_11) are the 122 groups the old pair search found."""
    table = _MulTable(11, _sl2_11_entries())
    odd = {table.to_subgroup(ids) for ids in table.two_generated() if len(ids) % 2 and len(ids) % 11}
    assert len(odd) == 122
    assert odd == _cyclic_harness_pairs_reference()


def test_unknown_harness():
    with pytest.raises(PreconditionError):
        run_harness("nope")


def test_ok_requires_checks():
    assert not HarnessResult("sl", 0, ()).ok
    assert HarnessResult("sl", 1, ()).ok


def test_sl_small():
    r = run_harness("sl", ell_max=7)
    assert r.ok and r.checked == 456
    assert r.details == {"ell_5": 120, "ell_7": 336}


def test_cyclic(harness_run):
    r = harness_run("cyclic")
    assert r.ok and r.checked == 122
    assert r.details == {"subgroups": 122}


def test_cyclic_reads_det_image_of_accepted_groups_only(monkeypatch):
    """cyclic_generator refuses on order before it reads the determinant
    image, so the harness reads it for the 122 groups it accepts, not for
    all 766 two-generated subgroups of SL2(F_11)."""
    read = []
    det_image = Subgroup.det_image
    monkeypatch.setattr(Subgroup, "det_image", lambda g: read.append(g) or det_image(g))
    assert run_harness("cyclic").checked == 122
    assert len(read) == 122


def test_normalizers_small():
    r = run_harness("normalizers", ell_max=7)
    assert r.ok and r.checked == 34
    assert r.details == {"ell_5": 12, "ell_7": 22}


def test_easy_d_small(harness_run):
    r = harness_run("easy-d", ell_max=5)
    assert r.ok and r.checked == 2766
    assert r.details == {"ell_5_subgroups": 461}


def test_easy_d_samples_at_ell_11(harness_run):
    r = harness_run("easy-d", ell_max=11, trials=3, seed=1)
    # 3 samples, each at the 12 points of P^1(F_11), past the 16398 of ell = 5, 7
    assert r.ok and r.checked == 16434
    assert r.details == {"ell_5_subgroups": 461, "ell_7_subgroups": 1704, "ell_11_samples": 3}


def test_classify_small(harness_run):
    r = harness_run("classify", ell_max=5)
    assert r.ok and r.checked == 121
    assert r.details == {"Borel": 30, "NormNonsplit": 30, "NormSplit": 61}


def test_classify_reads_witnesses_off_the_table(monkeypatch):
    """The classify harness reads its odd-index witnesses off the GL2 table:
    at ell = 5 it computes no degree spectrum, where it computed one for each
    of the 461 subgroups, and wraps only the 121 groups that have a witness."""
    assert not hasattr(verify, "degree_spectrum")
    spectra, wrapped = [], []
    spectrum, to_subgroup = stabilizers.degree_spectrum, _MulTable.to_subgroup
    monkeypatch.setattr(stabilizers, "degree_spectrum", lambda g: spectra.append(g) or spectrum(g))
    monkeypatch.setattr(
        _MulTable, "to_subgroup", lambda table, ids: wrapped.append(ids) or to_subgroup(table, ids)
    )
    assert run_harness("classify", ell_max=5).checked == 121
    assert (len(spectra), len(wrapped)) == (0, 121)


def test_easy_d_reads_det1_stabilizers_off_the_table(monkeypatch):
    """The easy-d harness reads its det-1 stabilizer orders off the GL2
    table: at ell = 5 it calls unipotent_class at the 108 points whose det-1
    stabilizer is not trivial, where it called it at all 2766, and wraps
    only the 93 groups that have such a point, where it wrapped all 461.
    Every point still counts as one check."""
    calls, wrapped = [], []
    lemma, to_subgroup = verify.unipotent_class, _MulTable.to_subgroup
    monkeypatch.setattr(verify, "unipotent_class", lambda g, p: calls.append(p) or lemma(g, p))
    monkeypatch.setattr(
        _MulTable, "to_subgroup", lambda table, ids: wrapped.append(ids) or to_subgroup(table, ids)
    )
    assert run_harness("easy-d", ell_max=5).checked == 2766
    assert (len(calls), len(wrapped)) == (108, 93)


def test_not_bl_small():
    r = run_harness("not-bl", ell_max=11)
    assert r.ok and r.checked == 56
    assert r.details == {"precondition_excluded": 25, "verified": 31}


def test_bl(harness_run):
    r = harness_run("bl")
    assert r.ok and r.checked == 24
    assert r.details == {"verified": 2, "rejected_no_inertia": 22}


def _violating_once(real):
    """The lemma real, except that the first instance it accepts raises
    LemmaViolationError."""
    planted = []

    def lemma(*args):
        result = real(*args)
        if not planted:
            planted.append(args)
            raise LemmaViolationError("planted violation")
        return result

    return lemma


@pytest.mark.parametrize(
    "lemma, argv, checked",
    [
        ("decompose_sl2", ["sl", "--ell-max", "5"], 120),
        ("conjugate_into_cartan", ["ab-subgp", "--trials", "0"], 2248),
        ("cyclic_generator", ["cyclic"], 122),
        ("_small_divisor_table", ["not-bl", "--ell-max", "11"], 56),
        ("_delta_verdict", ["bl"], 24),
        ("unipotent_class", ["easy-d", "--ell-max", "5"], 2766),
        ("classify_image", ["classify", "--ell-max", "5"], 121),
    ],
)
def test_lemma_violation_is_reported_as_data(lemma, argv, checked, capsys, monkeypatch):
    """A LemmaViolationError from the lemma a harness checks is one
    violation of the result, the harness still counts that instance, and
    verify exits 3 with the result on stdout."""
    monkeypatch.setattr(verify, lemma, _violating_once(getattr(verify, lemma)))
    # the Cartan oracle of ab-subgp is not under test, and its scan is slow
    monkeypatch.setattr(verify, "brute_force_cartan_conjugator", lambda h: h)
    assert main(["--format", "json", "verify", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)
    assert not result["ok"] and result["checked"] == checked
    assert len(result["violations"]) == 1
    assert result["violations"][0].endswith("planted violation")


def test_sl_evaluates_each_word_once(monkeypatch):
    evaluated = []
    evaluate = SL2Word.evaluate
    monkeypatch.setattr(SL2Word, "evaluate", lambda word: evaluated.append(word) or evaluate(word))
    assert run_harness("sl", ell_max=5).checked == 120
    assert len(evaluated) == 120


def test_ab_subgp_verifies_each_witness_once(monkeypatch):
    verified = []
    check = Conjugation.verify
    monkeypatch.setattr(Conjugation, "verify", lambda emb, h: verified.append(h) or check(emb, h))
    monkeypatch.setattr(verify, "brute_force_cartan_conjugator", lambda h: h)
    r = run_harness("ab-subgp", trials=0)
    assert r.checked == 2248
    assert len(verified) == 2248


def test_not_bl_computes_each_spectrum_once_at_most(monkeypatch):
    """The harness leaves the exhaustive spectrum to the lemma, which computes
    it once per call, and calls it at most once per checked pair."""
    assert not hasattr(verify, "exhaustive_spectrum")
    computed = []
    spectrum = classify.exhaustive_spectrum
    monkeypatch.setattr(
        classify, "exhaustive_spectrum", lambda g: computed.append(g) or spectrum(g)
    )
    r = run_harness("not-bl", ell_max=11)
    assert r.checked == 56
    assert len(computed) <= r.checked


def test_not_bl_runs_each_fallback_conclusion_once(monkeypatch):
    """A group above several Cartan powers comes back once per exponent; the
    fallback skips one whose 2-or-3 conclusion already ran, so a default run
    computes 74 spectra for its 39 distinct groups, where it computed 84."""
    computed = []
    spectrum = classify.exhaustive_spectrum
    monkeypatch.setattr(
        classify, "exhaustive_spectrum", lambda g: computed.append(g) or spectrum(g)
    )
    r = run_harness("not-bl")
    assert (r.checked, r.details) == (158, {"precondition_excluded": 103, "verified": 55})
    assert len(set(computed)) == 39
    assert len(computed) == 74 < 84


@pytest.mark.parametrize("ell", [5, 7])
def test_ell_divides_order_matches_element_order(ell):
    for e in _gl2_elements(ell):
        assert _ell_divides_order(ell, e) == (element_order(Mat2(ell, *e)) % ell == 0)


def test_ab_subgp_random_only_smoke(harness_run):
    r = harness_run("ab-subgp", trials=5)
    assert r.ok and r.checked == 2263
    assert r.details == {"cyclic_subgroups": 2248, "random_abelian": 15}


def test_ns_nns_smoke():
    r = run_harness("ns-nns", trials=5)
    assert r.ok and r.checked == 1834
    assert r.details == {"groups": 1834}


def test_l_part_small():
    r = run_harness("l-part", trials=500, seed=1)
    assert r.ok and r.checked == 500
    assert r.details == {"ConclusionVerified": 307, "HypothesisFails": 193}


def test_harness_ids_all_registered():
    from gl2tors.verify import _HARNESSES

    assert set(HARNESS_IDS) == set(_HARNESSES)
    # the order of the CLI's harness choices
    assert HARNESS_IDS == (
        "sl", "ab-subgp", "cyclic", "normalizers", "ns-nns",
        "easy-d", "classify", "not-bl", "bl", "l-part",
    )
