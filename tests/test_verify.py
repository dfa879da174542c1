import pytest
from hypothesis import assume, given, settings, strategies as st

from gl2tors.errors import PreconditionError, ResourceLimitError
from gl2tors.groups import NamedGroupId, closure, named_group
from gl2tors.modarith import Mat2
from gl2tors.verify import (
    HARNESS_IDS,
    HarnessResult,
    _gl2_table,
    _gl2_two_generated,
    _MulTable,
    run_harness,
)


def _two_generated_reference(table: _MulTable) -> set[frozenset[int]]:
    """Every subgroup generated by at most two elements, by closing all pairs
    of cyclic subgroups: the slow reference for _MulTable.two_generated."""
    cyclic = table.cyclic_subgroups()
    keys = sorted(cyclic, key=lambda s: (len(s), sorted(s)))
    subgroups: set[frozenset[int]] = set(keys)
    for i, first in enumerate(keys):
        g1 = cyclic[first]
        for second in keys[i + 1 :]:
            if cyclic[second] in first or g1 in second:
                continue
            subgroups.add(table.close([g1, cyclic[second]]))
    return subgroups


def test_two_generated_gl2_5_matches_reference():
    subgroups = _gl2_two_generated(5)
    assert len(subgroups) == 461
    assert set(subgroups) == _two_generated_reference(_gl2_table(5))


def test_two_generated_borel_7_matches_reference():
    table = _MulTable(7, sorted(named_group(NamedGroupId.BOREL, 7).elements, key=Mat2.entries))
    assert table.two_generated() == _two_generated_reference(table)


def _matrix(ell: int):
    entry = st.integers(0, ell - 1)
    return st.builds(lambda a, b, c, d: Mat2(ell, a, b, c, d), entry, entry, entry, entry).filter(
        Mat2.is_invertible
    )


@st.composite
def _small_two_generated_group(draw):
    """A subgroup ⟨x, y⟩ of GL2(F_ell), ell in {5, 7}, of order at most 200,
    so the all-pairs reference stays cheap."""
    ell = draw(st.sampled_from([5, 7]))
    x, y = draw(_matrix(ell)), draw(_matrix(ell))
    try:
        return closure(ell, [x, y], cap=200)
    except ResourceLimitError:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(_small_two_generated_group())
def test_two_generated_matches_reference_on_subgroups(g):
    table = _MulTable(g.n, sorted(g.elements, key=Mat2.entries))
    assert table.two_generated() == _two_generated_reference(table)


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


def test_cyclic():
    r = run_harness("cyclic")
    assert r.ok and r.checked == 122
    assert r.details == {"subgroups": 122}


def test_normalizers_small():
    r = run_harness("normalizers", ell_max=7)
    assert r.ok and r.checked == 34
    assert r.details == {"ell_5": 12, "ell_7": 22}


def test_easy_d_small():
    r = run_harness("easy-d", ell_max=5)
    assert r.ok and r.checked == 2766
    assert r.details == {"ell_5_subgroups": 461}


def test_classify_small():
    r = run_harness("classify", ell_max=5)
    assert r.ok and r.checked == 121
    assert r.details == {"Borel": 30, "NormNonsplit": 30, "NormSplit": 61}


def test_not_bl_small():
    r = run_harness("not-bl", ell_max=11)
    assert r.ok and r.checked == 56
    assert r.details == {"precondition_excluded": 25, "verified": 31}


def test_bl():
    r = run_harness("bl")
    assert r.ok and r.checked == 24
    assert r.details == {"verified": 2, "rejected_no_inertia": 22}


def test_ab_subgp_random_only_smoke():
    r = run_harness("ab-subgp", trials=5)
    assert r.ok


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
