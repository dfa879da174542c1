"""Checks of every reply against frozen counts and independent arithmetic.

Each check returns None for a correct reply, or a one-line reason.
"""
from __future__ import annotations

import json

from arith import (
    IDENTITY,
    closure,
    cyclic_span_size,
    det,
    gl2_order,
    inv,
    is_invertible,
    mul,
    orbit_sizes,
    primes_upto,
    primitive_root,
)

# Frozen harness outcomes on this code: checked instances and details.
FROZEN_HARNESS = {
    "easy-d": (2766, {"ell_5_subgroups": 461}),
    "classify": (121, {"Borel": 30, "NormNonsplit": 30, "NormSplit": 61}),
}
MOD36_RESIDUES = frozenset({7, 11, 23, 31, 35})
BOUND_P_K = 13
BOUND_R_SET = [2, 3, 5, 11]


def check_harness(argv: list[str], rc: int, out: str) -> str | None:
    """A `verify` reply: exit 0, no violations, and the frozen counts."""
    harness = argv[1]
    if rc != 0:
        return f"exit {rc}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "reply is not JSON"
    if payload.get("harness") != harness or payload.get("ok") is not True:
        return f"not ok: {payload.get('violations')}"
    if payload.get("violations"):
        return "violations reported"
    checked, details = payload.get("checked"), payload.get("details")
    if harness not in FROZEN_HARNESS:
        return f"no expectation for harness {harness}"
    if (checked, details) != FROZEN_HARNESS[harness]:
        return f"counts {checked} {details} differ from {FROZEN_HARNESS[harness]}"
    return None


# ---------------------------------------------------------------------------
# verb replies


class GroupFacts:
    """What the program must report for one input group, derived independently."""

    def __init__(self, payload: dict):
        ell = self.ell = payload["modulus"]
        self.gens = [(a, b, c, d) for (a, b), (c, d) in payload["generators"]]
        elements = closure(self.gens, ell)
        self.order = len(elements)
        self.orbits = orbit_sizes(self.gens, ell)
        self.sl_index = cyclic_span_size([det(g, ell) for g in self.gens], ell)
        self.alpha = primitive_root(ell)
        points = [(0, 1)] + [(1, s) for s in range(ell)]
        self.witness = next((p for p in points if self.orbits[p] % 2 == 1), None)
        self.classify_exit, self.classify_targets = self._classify_expectation(elements)

    def _classify_expectation(self, elements: set) -> tuple[int, tuple[str, ...]]:
        ell = self.ell
        if self.witness is None:
            return 2, ()
        if self.order % ell == 0:
            return 0, ("Borel",)
        h0 = {x for x in elements if det(x, ell) == 1}
        minus = (ell - 1, 0, 0, ell - 1)
        odd_up_to_sign = len(h0) % 2 == 1 or (len(h0) % 4 == 2 and minus in h0)
        if not odd_up_to_sign or len(h0) % ell == 0:
            return 2, ()
        if h0 <= {IDENTITY, minus}:
            commuting = all(
                mul(x, y, ell) == mul(y, x, ell) for x in self.gens for y in self.gens
            )
            if not commuting:
                return 2, ()
        return 0, ("NormSplit", "NormNonsplit")

    def in_target(self, target: str, m: tuple[int, int, int, int]) -> bool:
        ell, (a, b, c, d) = self.ell, m
        if target == "Borel":
            return c == 0
        if target == "NormSplit":
            return (b == 0 and c == 0) or (a == 0 and d == 0)
        if target == "NormNonsplit":
            return (d == a and b == c * self.alpha % ell) or (
                d == -a % ell and b == -c * self.alpha % ell
            )
        return False


def check_verb(req: dict, rc: int, out: str, facts: GroupFacts | None) -> str | None:
    """A verb reply against the request's independent expectation."""
    verb = req["verb"]
    want_rc = facts.classify_exit if verb == "classify" else 0
    if rc != want_rc:
        return f"{verb}: exit {rc}, expected {want_rc}"
    if rc != 0:
        return None if out == "" else f"{verb}: output on exit {rc}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return f"{verb}: reply is not JSON"
    return _VERB_CHECKS[verb](req, payload, facts)


def _check_spectrum(req, payload, facts: GroupFacts):
    want = {"(0:1)": facts.orbits[(0, 1)]}
    want.update({f"(1:{s})": facts.orbits[(1, s)] for s in range(facts.ell)})
    got = (payload.get("group_order"), payload.get("entries"), payload.get("sl_index"))
    if got != (facts.order, want, facts.sl_index):
        return f"spectrum of {req['group']} differs from the orbit sizes"
    return None


def _check_exhaustive(req, payload, facts: GroupFacts):
    want = {f"{c},{d}": idx for (c, d), idx in facts.orbits.items()}
    if payload.get("group_order") != facts.order or payload.get("entries") != want:
        return f"exhaustive spectrum of {req['group']} differs from the orbit sizes"
    return None


def _check_classify(req, payload, facts: GroupFacts):
    ell = facts.ell
    target = payload.get("target")
    if target not in facts.classify_targets:
        return f"classify of {req['group']}: target {target}, expected {facts.classify_targets}"
    if tuple(payload.get("witness", ())) != facts.witness:
        return f"classify of {req['group']}: witness {payload.get('witness')} != {facts.witness}"
    t = tuple(payload.get("conjugator", ()))
    if len(t) != 4 or not is_invertible(t, ell):
        return f"classify of {req['group']}: conjugator {t} is not invertible"
    tinv = inv(t, ell)
    for g in facts.gens:
        if not facts.in_target(target, mul(mul(tinv, g, ell), t, ell)):
            return f"classify of {req['group']}: conjugator misses {target} at {g}"
    return None


def _check_order(req, payload, _):
    n = req["modulus"]
    if payload != {"modulus": n, "order": gl2_order(n)}:
        return f"order of {n}: {payload}"
    return None


def _sieve(limit: int) -> list[int]:
    return [p for p in primes_upto(limit) if p >= 5 and p % 36 in MOD36_RESIDUES]


def _check_sieve(req, payload, _):
    m = req["limit"]
    if payload != {"limit": m, "primes": _sieve(m)}:
        return f"sieve to {m}: {payload}"
    return None


def _check_decompose(req, payload, _):
    ell, x = req["ell"], tuple(req["matrix"])
    word = payload.get("word", [])
    prod = IDENTITY
    for letter, exp in word:
        shear = (1, 1, 0, 1) if letter == "U" else (1, 0, 1, 1) if letter == "L" else None
        if shear is None:
            return f"decompose: unknown letter {letter}"
        for _ in range(exp % ell):
            prod = mul(prod, shear, ell)
    if prod != x or payload.get("matrix") != list(x) or payload.get("length") != len(word):
        return f"decompose of {x} mod {ell}: word {word} does not multiply back"
    return None


def _check_bound(req, payload, _):
    d = req["degree"]
    primes = [q for q in primes_upto(d) if d % q == 0]
    min_div = primes[0] if primes else None
    preserved = d == 1 or min_div > BOUND_P_K
    pres = payload.get("preservation", {})
    want_head = {
        "label": "ex",
        "r_set": BOUND_R_SET,
        "p_k": BOUND_P_K,
        "sieve_window": _sieve(100),
    }
    if {k: payload.get(k) for k in want_head} != want_head:
        return f"bound: report {payload} differs from the frozen p_k = 13 example"
    got = (pres.get("p_k"), pres.get("degree"), pres.get("min_prime_divisor"), pres.get("preserved"))
    if got != (BOUND_P_K, d, min_div, preserved):
        return f"bound at degree {d}: preservation {got}"
    cert = pres.get("small_prime_certificate")
    if preserved:
        # M = 210 has all its primes <= 13, so N = 210 * 13#
        modulus = 210 * 2 * 3 * 5 * 7 * 11 * 13
        if cert != {"modulus": modulus, "group_order": gl2_order(modulus), "gcd": 1}:
            return f"bound at degree {d}: certificate {cert}"
    elif cert is not None:
        return f"bound at degree {d}: certificate for an unpreserved degree"
    return None


_VERB_CHECKS = {
    "spectrum": _check_spectrum,
    "spectrum-exhaustive": _check_exhaustive,
    "classify": _check_classify,
    "order": _check_order,
    "sieve": _check_sieve,
    "decompose": _check_decompose,
    "bound": _check_bound,
}
