"""Acceptance gate: one check per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import math
import sys
import time

import pytest
from sympy import factorint

from gl2tors.errors import PreconditionError
from gl2tors.modarith import gl2_order, unipotent
from gl2tors.groups import NamedGroupId, closure, named_group, tau, verify_named_orders
from gl2tors.stabilizers import ProjPoint, degree_spectrum, exhaustive_spectrum
from gl2tors.classify import cong_check, mod36_filter
from gl2tors.bounds import (
    FieldInput,
    congruence_sieve,
    p_bound,
    r_set,
    smallprime_coprimality,
)
from gl2tors.verify import run_harness


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {status} - {detail}", file=sys.stderr)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_order_formulas():
    start = time.time()
    ok = True
    for ell in (5, 7, 11, 13):
        for name, (got, want) in verify_named_orders(ell).items():
            if got != want:
                ok = False
    elapsed = time.time() - start
    _report(1, ok and elapsed < 10, f"named subgroup orders exact for ell in 5..13 ({elapsed:.1f}s)")


def test_criterion_2_shear_decomposition():
    start = time.time()
    result = run_harness("sl")
    elapsed = time.time() - start
    counts = [result.details[f"ell_{ell}"] for ell in (5, 7, 11, 13)]
    ok = result.ok and counts == [120, 336, 1320, 2184] and elapsed < 30
    _report(2, ok, f"all {sum(counts)} determinant-1 matrices decomposed, words <= 12 ({elapsed:.1f}s)")


def test_criterion_3_cartan_conjugation():
    start = time.time()
    result = run_harness("ab-subgp", trials=500, seed=2024)
    elapsed = time.time() - start
    ok = result.ok and result.details["random_abelian"] == 1500
    _report(
        3,
        ok,
        f"{result.details['cyclic_subgroups']} cyclic + 1500 random abelian groups embedded, "
        f"oracle agreement exact ({elapsed:.1f}s)",
    )


def test_criterion_4_unipotent_stabilizers():
    start = time.time()
    result = run_harness("easy-d", ell_max=7)
    elapsed = time.time() - start
    ok = (
        result.ok
        and result.details == {"ell_5_subgroups": 461, "ell_7_subgroups": 1704}
        and result.checked == 461 * 6 + 1704 * 8
    )
    _report(
        4,
        ok,
        f"{result.details['ell_5_subgroups'] + result.details['ell_7_subgroups']} "
        f"two-generated subgroups, {result.checked} stabilizer checks, zero violations "
        f"({elapsed:.1f}s)",
    )


def test_criterion_5_derived_diagonal_consistency():
    ok = True
    notes = []
    for ell in (11, 23, 47, 59):
        divisor = (ell - 1) // (2 * tau(ell))
        for gid in (NamedGroupId.DELTA1, NamedGroupId.DELTA2):
            delta = named_group(gid, ell)
            g = closure(ell, delta.generators + (unipotent(ell),))
            if not cong_check(delta) or delta.order != ell - 1:
                ok = False
            spec = exhaustive_spectrum(g)
            if any(idx % divisor for idx in spec.values()):
                ok = False
        if not mod36_filter(ell):
            ok = False
        notes.append(f"ell={ell} divisor={divisor}")
    g11 = named_group(NamedGroupId.DELTA_U1, 11)
    spec11 = degree_spectrum(g11)
    if spec11.entries[ProjPoint(11, 0, 1)] != 10:
        ok = False
    if any(spec11.entries[ProjPoint(11, 1, k)] != 55 for k in range(11)):
        ok = False
    _report(5, ok, "; ".join(notes) + "; ell=11 spectrum exactly {10, 55 x11}")


def test_criterion_6_normalizer_divisibility():
    start = time.time()
    result = run_harness("not-bl")
    elapsed = time.time() - start
    ok = result.ok
    _report(
        6,
        ok,
        f"{result.checked} subgroups over ell in (11, 13), e in (1,2,3,4,6); "
        f"{result.details['verified']} verified, "
        f"{result.details['precondition_excluded']} excluded by hypothesis checks, "
        f"zero falsification events ({elapsed:.1f}s)",
    )


def test_criterion_7_order_formula_and_coprimality():
    ok = True
    for n in range(1, 13):
        brute = sum(
            1
            for a in range(n)
            for b in range(n)
            for c in range(n)
            for d in range(n)
            if math.gcd((a * d - b * c) % n, n) == 1
        )
        if gl2_order(n) != brute:
            ok = False
    checked = 0
    # p = 2 is excluded by precondition: gcd(3, |GL2(Z/2)|) = 3, so the claim
    # is false there; the bound argument only ever instantiates p >= 7
    with pytest.raises(PreconditionError):
        smallprime_coprimality(3, 2, 1)
    for p in (3, 5, 7):
        valid_m = [m for m in range(1, 51) if m == 1 or max(factorint(m)) <= p]
        valid_d = [d for d in range(1, 501) if d == 1 or min(factorint(d)) > p]
        for d in valid_d:
            for m in valid_m:
                if smallprime_coprimality(d, p, m).gcd != 1:
                    ok = False
                checked += 1
    _report(
        7,
        ok,
        f"group order formula exact for N <= 12; {checked} coprimality certificates "
        "(p = 2 excluded by precondition: gcd(3, |GL2(Z/2)|) = 3 falsifies the claim there)",
    )


def test_criterion_8_sieve_and_bounds():
    start = time.time()
    ok = congruence_sieve(100) == [7, 11, 23, 31, 43, 47, 59, 67, 71, 79, 83]
    ok = ok and r_set({7, 11, 23}) == {2, 3, 5, 11}
    ok = ok and p_bound(FieldInput("ex", 2 * 3 * 5 * 7, 13, (7, 11, 23))) == 13
    elapsed = time.time() - start
    _report(8, ok and elapsed < 1, f"sieve, divisor set, and prime bound exact ({elapsed:.2f}s)")


def test_criterion_9_abelian_torsion_lemma():
    start = time.time()
    result = run_harness("l-part", trials=10000, seed=7)
    elapsed = time.time() - start
    ok = result.ok and result.checked == 10000
    _report(
        9,
        ok,
        f"10000 randomized instances: {result.details['ConclusionVerified']} verified, "
        f"{result.details['HypothesisFails']} hypothesis failures, zero conclusion failures "
        f"({elapsed:.1f}s)",
    )
