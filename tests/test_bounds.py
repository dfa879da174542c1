import json

import pytest
from hypothesis import given, settings, strategies as st
from sympy import primerange

from gl2tors import bounds
from gl2tors.errors import PreconditionError, ResourceLimitError
from gl2tors.classify import mod36_filter
from gl2tors.bounds import (
    SIEVE_CAP,
    AbelianGroupSpec,
    Embedding,
    FieldInput,
    LPartVerdict,
    bound_report,
    congruence_sieve,
    l_part_check,
    p_bound,
    r_set,
    smallprime_coprimality,
    torsion_preservation_report,
)


def test_sieve_examples():
    assert congruence_sieve(12) == [7, 11]
    assert congruence_sieve(6) == []
    assert congruence_sieve(100) == [7, 11, 23, 31, 43, 47, 59, 67, 71, 79, 83]


def test_sieve_is_filtered_prime_sieve():
    # the residue test alone against the filter that also checks primality
    for n in (499, 2000, 7919, 10**4, 65537, 10**5):
        expected = [p for p in primerange(5, n + 1) if mod36_filter(p)]
        assert congruence_sieve(n) == expected


def test_sieve_rejects_tiny_limit():
    with pytest.raises(PreconditionError):
        congruence_sieve(1)


@pytest.mark.parametrize("limit", [SIEVE_CAP + 1, 10**18])
def test_sieve_past_cap_raises_before_any_work(limit, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sieve ran past its cap")

    monkeypatch.setattr(bounds, "primerange", refuse)
    message = f"sieve limit {limit} is over the cap of {SIEVE_CAP}"
    with pytest.raises(ResourceLimitError, match=message):
        congruence_sieve(limit)


def test_r_set_examples():
    assert r_set({7, 11}) == {2, 3, 5}
    assert r_set({7, 11, 23}) == {2, 3, 5, 11}
    assert r_set(set()) == set()


def test_r_set_rejects_composite():
    with pytest.raises(PreconditionError):
        r_set({7, 12})


def test_field_input_validation():
    with pytest.raises(PreconditionError):
        FieldInput("x", 1, 1, (13,))  # 13 is 1 mod 4
    with pytest.raises(PreconditionError):
        FieldInput("x", 0, 1, ())
    inp = FieldInput("x", 2, 3, (11, 7, 7))
    assert inp.pdi2_primes == (7, 11)


def test_field_input_json_round_trip():
    inp = FieldInput("example", 210, 13, (7, 11, 23))
    assert FieldInput.from_json(json.loads(inp.to_json())) == inp
    with pytest.raises(PreconditionError):
        FieldInput.from_json({})


@pytest.mark.parametrize(
    "field, value",
    [
        ("merel_constant", 2.9),
        ("merel_constant", True),
        ("lv14_bound", True),
        ("lv14_bound", "13"),
        ("pdi2_primes", [7.0]),
        ("pdi2_primes", [False]),
    ],
)
def test_field_input_json_rejects_non_integers(field, value):
    payload = {"label": "ex", "merel_constant": 210, "lv14_bound": 13, "pdi2_primes": [7]}
    payload[field] = value
    with pytest.raises(PreconditionError, match="malformed field input"):
        FieldInput.from_json(payload)


def test_p_bound_examples():
    assert p_bound(FieldInput("a", 2 * 3 * 5 * 7, 13, (7, 11, 23))) == 13
    assert p_bound(FieldInput("b", 2, 2, ())) == 2
    assert p_bound(FieldInput("c", 7, 1, (47,))) == 23


def test_p_bound_undefined():
    with pytest.raises(PreconditionError):
        p_bound(FieldInput("d", 1, 1, ()))


def test_p_bound_at_least_seven_when_seven_divides():
    for n_k in (1, 2, 5):
        assert p_bound(FieldInput("e", 7, n_k, ())) >= 7


def test_coprimality_examples():
    rep = smallprime_coprimality(11, 7, 12)
    assert (rep.modulus, rep.gcd) == (2520, 1)
    assert smallprime_coprimality(121, 7, 1).gcd == 1
    assert smallprime_coprimality(1, 3, 1).gcd == 1


def test_coprimality_preconditions():
    with pytest.raises(PreconditionError):
        smallprime_coprimality(10, 7, 1)  # 2 <= 7
    with pytest.raises(PreconditionError):
        smallprime_coprimality(11, 7, 22)  # 11 | M exceeds p
    with pytest.raises(PreconditionError):
        # p = 2 is excluded: gcd(3, |GL2(Z/2)|) = 3 would falsify the claim
        smallprime_coprimality(3, 2, 1)


def test_abelian_spec_torsion():
    b = AbelianGroupSpec((4, 6))
    two = b.torsion(2)
    assert len(two) == 4
    assert all(b.scale(2, v) == (0, 0) for v in two)
    assert b.primary_exponent(2) == 4
    assert b.primary_exponent(3) == 3


def test_embedding_validation():
    a = AbelianGroupSpec((5,))
    b = AbelianGroupSpec((25,))
    with pytest.raises(PreconditionError):
        Embedding(a, b, ((1,),))  # order-5 generator mapped to an order-25 element
    emb = Embedding(a, b, ((5,),))
    assert emb.is_injective()
    zero = Embedding(a, b, ((0,),))
    assert not zero.is_injective()


def test_l_part_examples():
    a = AbelianGroupSpec((5,))
    b = AbelianGroupSpec((5,))
    assert (
        l_part_check(a, b, Embedding(a, b, ((1,),)), 5, 1, 2)
        is LPartVerdict.CONCLUSION_VERIFIED
    )

    a2, b2 = AbelianGroupSpec((5,)), AbelianGroupSpec((25,))
    assert (
        l_part_check(a2, b2, Embedding(a2, b2, ((5,),)), 5, 1, 2)
        is LPartVerdict.HYPOTHESIS_FAILS
    )

    a3, b3 = AbelianGroupSpec((3, 4)), AbelianGroupSpec((3, 8))
    emb3 = Embedding(a3, b3, ((1, 0), (0, 2)))
    assert l_part_check(a3, b3, emb3, 2, 2, 3) is LPartVerdict.HYPOTHESIS_FAILS


def test_l_part_rejects_non_injective_embedding():
    # an order-4 source mapped onto 2·Z/4: the generator's double goes to 0
    a, b = AbelianGroupSpec((4,)), AbelianGroupSpec((4,))
    emb = Embedding(a, b, ((2,),))
    assert not emb.is_injective()
    with pytest.raises(PreconditionError, match="^embedding is not injective$"):
        l_part_check(a, b, emb, 2, 1, 2)


def test_l_part_rejects_bad_levels():
    a = AbelianGroupSpec((5,))
    emb = Embedding(a, a, ((1,),))
    with pytest.raises(PreconditionError):
        l_part_check(a, a, emb, 5, 2, 2)
    with pytest.raises(PreconditionError):
        l_part_check(a, a, emb, 4, 1, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.sampled_from([2, 3, 5]))
def test_l_part_never_fails_conclusion(n1, n2, ell):
    b = AbelianGroupSpec((n1 * n2,))
    a = AbelianGroupSpec((n1,))
    emb = Embedding(a, b, ((n2,),))
    verdict = l_part_check(a, b, emb, ell, 1, 2)
    assert verdict in (LPartVerdict.HYPOTHESIS_FAILS, LPartVerdict.CONCLUSION_VERIFIED)


def test_bound_report():
    rep = bound_report(FieldInput("ex", 210, 13, (7, 11, 23)))
    assert rep.p_k == 13
    assert rep.r_set == frozenset({2, 3, 5, 11})
    assert rep.sieve_window[0] == 7


def test_preservation_report_examples():
    inp = FieldInput("ex", 2 * 3 * 5 * 7, 13, (7, 11, 23))
    rep = torsion_preservation_report(inp, 17)
    assert rep.preserved and rep.p_k == 13
    assert rep.small_prime_certificate.gcd == 1

    rep2 = torsion_preservation_report(inp, 10)
    assert not rep2.preserved and rep2.min_prime_divisor == 2

    rep3 = torsion_preservation_report(FieldInput("q", 7, 1, ()), 11)
    assert rep3.preserved and rep3.p_k == 7
