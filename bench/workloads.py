"""Seeded inputs for the two benchmark workloads.

Nothing here imports gl2tors: the program only ever sees the argument lists
and JSON files built below, and the checker in ``checks.py`` rebuilds the
same inputs from the same seed to know what each reply must say.
"""
from __future__ import annotations

import json
import os
import random

from arith import (
    inv,
    is_invertible,
    mul,
    mul_order,
    primitive_root,
    random_invertible,
)

ENUMERATE = "harness-enumerate"
VERBS = "verbs"
WORKLOADS = (ENUMERATE, VERBS)

# Harness batches are kept to a few seconds so that a run can time several
# fresh-process batches and report their median: on a shared machine one
# long batch is one noisy sample. So bl (21-27 s) is left out. The
# witness-building harnesses (ns-nns, not-bl, sl, cyclic, l-part, ab-subgp)
# are left out too: a run could time each of them only a few times, and their
# single-call times spread by more than 25% of the median over runs of the
# same code. Their kernel work is timed by the verb stream instead.

# Verb stream. Every block of BLOCK_SIZE requests has the same composition,
# shuffled, so any whole number of blocks has the same mix and the
# percentiles are quantiles of one fixed mixture:
#   - one spectrum, exhaustive spectrum and classify request for each
#     (prime, family) class at the small primes (51 requests);
#   - 45 cheap verbs (order, sieve, decompose, bound), which set p50;
#   - 4 group verbs at ell = 47 on the full NormNonsplit(47) under a seeded
#     conjugation, two of them exhaustive spectra, so p99 (the top 1%)
#     lands inside that one cluster rather than on a boundary between two.
SMALL_ELLS = (11, 13, 23)
FAMILIES = ("Borel", "SplitCartan", "NonsplitCartan", "NormSplit", "NormNonsplit", "DeltaU1")
# Borel(23) subgroups are up to 11132 elements, as costly as the ell = 47
# tail, so the Borel family stays at the two smaller primes.
SMALL_CLASSES = tuple(
    (ell, fam) for ell in SMALL_ELLS for fam in FAMILIES if not (fam == "Borel" and ell > 13)
)
BIG_ELL = 47
GROUP_VERBS = ("spectrum", "spectrum-exhaustive", "classify")
BIG_VERBS = ("spectrum-exhaustive", "spectrum-exhaustive", "spectrum", "classify")
CHEAP_VERBS = ("order",) * 12 + ("sieve",) * 11 + ("decompose",) * 11 + ("bound",) * 11
BLOCK_SIZE = len(SMALL_CLASSES) * len(GROUP_VERBS) + len(BIG_VERBS) + len(CHEAP_VERBS)
POOL_PER_CLASS = 12
# The stream is ROUND_BLOCKS distinct blocks (1000 distinct requests, so ten
# lie beyond p99), run in rounds: blocks 0..9, then 0..9 again, and so on.
# Each request is timed once per round and its median time counts, so the
# first round's cold caches are outvoted from the third round on.
ROUND_BLOCKS = 10
MIN_ROUNDS = 2

# BENCH_SMOKE=1 shrinks every workload to a few seconds, for the benchmark's
# own tests: the cheapest harness of each batch, and one-block rounds.
SMOKE = os.environ.get("BENCH_SMOKE") == "1"
SMOKE_HARNESSES = ("classify",)
if SMOKE:
    ROUND_BLOCKS = 1

# The frozen bound example: p_k = 13 for M = 210, N_K = 13, pdi2 = {7, 11, 23}.
FIELD = {"label": "ex", "merel_constant": 210, "lv14_bound": 13, "pdi2_primes": [7, 11, 23]}


def harness_calls(workload: str, seed: int) -> list[list[str]]:
    """The `verify` argument lists one harness batch runs, in order."""
    if workload != ENUMERATE:
        raise ValueError(f"{workload} is not a harness workload")
    # exhaustive at ell = 5, so the seed changes nothing here
    calls = [
        ["verify", "easy-d", "--ell-max", "5"],
        ["verify", "classify", "--ell-max", "5"],
    ]
    if SMOKE:
        calls = [argv for argv in calls if argv[1] in SMOKE_HARNESSES]
    return calls


# ---------------------------------------------------------------------------
# group pool for the verb stream


def _tau(ell: int) -> int:
    return 3 if ell % 3 == 1 else 1


def family_element(rng: random.Random, family: str, ell: int) -> tuple[int, int, int, int]:
    """A uniformly random element of the named subgroup of GL2(F_ell)."""
    alpha = primitive_root(ell)
    unit = lambda: rng.randrange(1, ell)  # noqa: E731
    if family == "Borel":
        return (unit(), rng.randrange(ell), 0, unit())
    if family == "SplitCartan":
        return (unit(), 0, 0, unit())
    if family in ("NonsplitCartan", "NormNonsplit"):
        while True:
            a, b = rng.randrange(ell), rng.randrange(ell)
            if (a, b) != (0, 0):
                break
        if family == "NormNonsplit" and rng.randrange(2):
            return (a, -b * alpha % ell, b, -a % ell)
        return (a, b * alpha % ell, b, a)
    if family == "NormSplit":
        a, d = unit(), unit()
        return (0, a, d, 0) if rng.randrange(2) else (a, 0, 0, d)
    if family == "DeltaU1":
        # Delta1 = <diag(alpha^2t, alpha^2t), diag(1, alpha^half)>, times the shears
        t = _tau(ell)
        half = (ell - 1) // (2 * t)
        k, j = rng.randrange(ell - 1), rng.randrange(2)
        x = pow(alpha, 2 * t * k, ell)
        z = x * pow(alpha, half * j, ell) % ell
        return (x, rng.randrange(ell), 0, z)
    raise ValueError(f"unknown family {family}")


def _big_generators(rng: random.Random) -> list[tuple[int, int, int, int]]:
    """Generators of NormNonsplit(47), the full group, conjugated by a seeded T."""
    ell = BIG_ELL
    alpha = primitive_root(ell)
    while True:
        a, b = rng.randrange(ell), rng.randrange(ell)
        x = (a, b * alpha % ell, b, a)
        if (a, b) != (0, 0) and mul_order(x, ell) == ell * ell - 1:
            break
    while True:
        a, b = rng.randrange(ell), rng.randrange(ell)
        if (a, b) != (0, 0):
            y = (a, -b * alpha % ell, b, -a % ell)
            break
    t = random_invertible(rng, ell)
    tinv = inv(t, ell)
    return [mul(mul(tinv, g, ell), t, ell) for g in (x, y)]


def group_pool(seed: int) -> dict[tuple[int, str], list[dict]]:
    """POOL_PER_CLASS seeded groups per (prime, family) class, as group JSON payloads."""
    rng = random.Random(f"{VERBS}:pool:{seed}")
    pool: dict[tuple[int, str], list[dict]] = {}
    for ell, fam in SMALL_CLASSES:
        pool[(ell, fam)] = [
            _group_payload(ell, [family_element(rng, fam, ell) for _ in range(2)])
            for _ in range(POOL_PER_CLASS)
        ]
    pool[(BIG_ELL, "NormNonsplit")] = [
        _group_payload(BIG_ELL, _big_generators(rng)) for _ in range(POOL_PER_CLASS)
    ]
    return pool


def _group_payload(ell: int, gens: list[tuple[int, int, int, int]]) -> dict:
    # elements of these families are invertible by construction; a generator
    # bug should surface here, not as a program exit code
    if not all(is_invertible(g, ell) for g in gens):
        raise ValueError(f"singular generator in {gens} mod {ell}")
    return {"modulus": ell, "generators": [[[a, b], [c, d]] for a, b, c, d in gens]}


def group_file(ell: int, fam: str, idx: int) -> str:
    return f"g_{ell}_{fam}_{idx}.json"


def write_inputs(seed: int, directory: str) -> None:
    """Write the group pool and the field input for the verb stream."""
    os.makedirs(directory, exist_ok=True)
    for (ell, fam), payloads in group_pool(seed).items():
        for idx, payload in enumerate(payloads):
            with open(os.path.join(directory, group_file(ell, fam, idx)), "w") as handle:
                json.dump(payload, handle)
    with open(os.path.join(directory, "field.json"), "w") as handle:
        json.dump(FIELD, handle)


# ---------------------------------------------------------------------------
# the request stream


def block(seed: int, k: int) -> list[dict]:
    """Distinct block k of the verb stream: BLOCK_SIZE requests, each a dict with
    the verb, the CLI arguments after `--format json`, and what the checker needs."""
    rng = random.Random(f"{VERBS}:block:{seed}:{k}")
    reqs = []
    for ell, fam in SMALL_CLASSES:
        for verb in GROUP_VERBS:
            reqs.append(_group_request(verb, ell, fam, rng.randrange(POOL_PER_CLASS)))
    for verb in BIG_VERBS:
        reqs.append(_group_request(verb, BIG_ELL, "NormNonsplit", rng.randrange(POOL_PER_CLASS)))
    for verb in CHEAP_VERBS:
        reqs.append(_cheap_request(rng, verb))
    rng.shuffle(reqs)
    return reqs


def _group_request(verb: str, ell: int, fam: str, idx: int) -> dict:
    name = group_file(ell, fam, idx)
    if verb == "spectrum-exhaustive":
        argv = ["spectrum", "--input", name, "--exhaustive"]
    else:
        argv = [verb, "--input", name]
    return {"verb": verb, "argv": argv, "group": (ell, fam, idx)}


def _cheap_request(rng: random.Random, verb: str) -> dict:
    if verb == "order":
        n = rng.randrange(1, 10**5)
        return {"verb": verb, "argv": ["order", "--modulus", str(n)], "modulus": n}
    if verb == "sieve":
        m = rng.randrange(2, 2001)
        return {"verb": verb, "argv": ["sieve", "--max", str(m)], "limit": m}
    if verb == "decompose":
        ell = rng.choice(SMALL_ELLS + (BIG_ELL,))
        x = _random_det_one(rng, ell)
        return {
            "verb": verb,
            "argv": ["decompose", "--ell", str(ell), "--matrix", ",".join(map(str, x))],
            "ell": ell,
            "matrix": x,
        }
    if verb == "bound":
        d = rng.randrange(1, 2001)
        return {
            "verb": verb,
            "argv": ["bound", "--input", "field.json", "--degree", str(d)],
            "degree": d,
        }
    raise ValueError(f"unknown verb {verb}")


def _random_det_one(rng: random.Random, ell: int) -> tuple[int, int, int, int]:
    a, b = rng.randrange(ell), rng.randrange(ell)
    if a:
        c = rng.randrange(ell)
        return (a, b, c, (1 + b * c) * pow(a, -1, ell) % ell)
    b = rng.randrange(1, ell)
    return (0, b, -pow(b, -1, ell) % ell, rng.randrange(ell))
