import pytest

from gl2tors.errors import PreconditionError
from gl2tors.verify import HARNESS_IDS, HarnessResult, run_harness


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
