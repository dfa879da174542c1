"""Falsification harnesses: exhaustive or randomized scans for each structure result."""
from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError, UsageError
from .modarith import Mat2, element_order, mat_mul
from .groups import NamedGroupId, Subgroup, closure, named_group, subgroup_from_elements
from .stabilizers import ProjPoint, degree_spectrum, exhaustive_spectrum, unipotent_class
from .lemmas import (
    _gl2_elements,
    brute_force_cartan_conjugator,
    conjugate_into_cartan,
    conjugate_into_normalizer,
    cyclic_generator,
    decompose_sl2,
    normalizer_in_gl2,
)
from .classify import (
    BlHypotheses,
    classify_image,
    cong_check,
    derive_delta,
    not_bl_check,
    stripped_diagonal,
)
from .bounds import AbelianGroupSpec, Embedding, LPartVerdict, l_part_check

HARNESS_IDS = (
    "sl",
    "ab-subgp",
    "cyclic",
    "normalizers",
    "ns-nns",
    "easy-d",
    "classify",
    "not-bl",
    "bl",
    "l-part",
)


@dataclass(frozen=True)
class HarnessResult:
    harness_id: str
    checked: int
    violations: tuple[str, ...]
    details: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.violations

    def to_dict(self) -> dict:
        return {
            "harness": self.harness_id,
            "checked": self.checked,
            "ok": self.ok,
            "violations": list(self.violations),
            "details": {k: self.details[k] for k in sorted(self.details)},
        }


# ---------------------------------------------------------------------------
# integer-indexed multiplication tables for exhaustive subgroup enumeration


def _table_closure(table: np.ndarray, identity: int, gen_ids: Iterable[int]) -> frozenset[int]:
    """Closure of a set of ids under an int32 Cayley table of a finite group."""
    gens = np.array(sorted(set(gen_ids) | {identity}), dtype=np.int64)
    elems = set(gens.tolist())
    frontier = gens
    while frontier.size:
        prods = np.unique(table[np.ix_(frontier, gens)])
        fresh = [p for p in prods.tolist() if p not in elems]
        elems.update(fresh)
        frontier = np.array(fresh, dtype=np.int64)
    return frozenset(elems)


class _MulTable:
    """Multiplication table over an explicit element list, indexed by integers."""

    def __init__(self, n: int, elements: list[Mat2]):
        self.n = n
        self.elements = list(elements)
        k = len(self.elements)
        a = np.array([x.a for x in self.elements], dtype=np.int64)
        b = np.array([x.b for x in self.elements], dtype=np.int64)
        c = np.array([x.c for x in self.elements], dtype=np.int64)
        d = np.array([x.d for x in self.elements], dtype=np.int64)
        pack = ((a * n + b) * n + c) * n + d
        lut = np.full(n**4, -1, dtype=np.int32)
        lut[pack] = np.arange(k, dtype=np.int32)
        self.table = np.empty((k, k), dtype=np.int32)
        for i in range(k):
            pa = (a[i] * a + b[i] * c) % n
            pb = (a[i] * b + b[i] * d) % n
            pc = (c[i] * a + d[i] * c) % n
            pd = (c[i] * b + d[i] * d) % n
            self.table[i] = lut[((pa * n + pb) * n + pc) * n + pd]
        self.identity = int(lut[(n + 0) * n * n + 1])  # pack of (1,0,0,1)
        assert self.elements[self.identity].is_identity()

    def close(self, gen_ids: list[int]) -> frozenset[int]:
        return _table_closure(self.table, self.identity, gen_ids)

    def cyclic_subgroups(self) -> dict[frozenset[int], int]:
        """Distinct cyclic subgroups as element-id sets, with one generator each."""
        out: dict[frozenset[int], int] = {}
        for i in range(len(self.elements)):
            ids = {self.identity}
            j = i
            while j != self.identity:
                ids.add(j)
                j = int(self.table[j, i])
            key = frozenset(ids)
            out.setdefault(key, i)
        return out

    def two_generated(self) -> set[frozenset[int]]:
        """All subgroups generated by at most two elements, deduplicated.

        Every such subgroup is conjugate to one ⟨H₁, g₂⟩ with H₁ = ⟨g₁⟩ one
        cyclic subgroup per conjugacy class and ⟨g₂⟩ one cyclic subgroup per
        orbit of the normalizer N(H₁). Those are closed, and the answer is
        every cyclic subgroup plus the conjugation orbits of the closures.
        """
        table = self.table
        k = len(table)
        inv = np.argmax(table == self.identity, axis=1)
        # conj[g, x] = g⁻¹·x·g, filled a row at a time: a single fancy index
        # would hold int64 copies of a k × k array at once
        conj = np.empty_like(table)
        for g in range(k):
            conj[g] = table[table[inv[g]], g]
        cyclic = self.cyclic_subgroups()
        keys = sorted(cyclic, key=len)
        gens = np.array([cyclic[s] for s in keys])
        # cyc_of[x] is the index in keys of ⟨x⟩, the least cyclic subgroup
        # holding x: keys grow in size, so writing them in reverse leaves it last
        cyc_of = np.empty(k, dtype=np.int64)
        for idx in reversed(range(len(keys))):
            cyc_of[list(keys[idx])] = idx

        def normalizer(h: np.ndarray) -> np.ndarray:
            inside = np.zeros(k, dtype=bool)
            inside[h] = True
            return np.flatnonzero(inside[conj[:, h]].all(axis=1))

        def orbit_reps(conjugators: np.ndarray) -> list[int]:
            """One index in keys per orbit of the conjugators on cyclic subgroups."""
            images = cyc_of[conj[np.ix_(conjugators, gens)]]
            seen = np.zeros(len(keys), dtype=bool)
            reps = []
            for j in range(len(keys)):
                if not seen[j]:
                    seen[images[:, j]] = True
                    reps.append(j)
            return reps

        subgroups: set[frozenset[int]] = set(keys)
        for i in orbit_reps(np.arange(k)):
            first, g1 = keys[i], int(gens[i])
            for j in orbit_reps(normalizer(np.fromiter(first, dtype=np.int64))):
                g2 = int(gens[j])
                if g2 in first or g1 in keys[j]:
                    continue
                h = self.close([g1, g2])
                if h in subgroups:
                    continue
                ids = np.fromiter(h, dtype=np.int64)
                # g⁻¹·H·g depends only on the coset N(H)·g, labelled by its least element
                cosets = np.unique(table[normalizer(ids), :].min(axis=0))
                subgroups.update(frozenset(row) for row in conj[np.ix_(cosets, ids)].tolist())
        return subgroups

    def to_subgroup(self, ids: frozenset[int]) -> Subgroup:
        return subgroup_from_elements(self.n, [self.elements[i] for i in ids])


def _cyclic_subgroups(elements: Iterable[Mat2]) -> list[Subgroup]:
    """The distinct cyclic subgroups the elements generate, in order of first
    appearance, each generated by the first element that generates it."""
    out: dict[frozenset[Mat2], Subgroup] = {}
    for x in elements:
        h = closure(x.n, [x])
        out.setdefault(h.elements, h)
    return list(out.values())


@lru_cache(maxsize=None)
def _gl2_table(ell: int) -> _MulTable:
    if ell > 7:
        raise ResourceLimitError(f"full GL2 table not built for ell = {ell}")
    return _MulTable(ell, list(_gl2_elements(ell)))


@lru_cache(maxsize=None)
def _gl2_two_generated(ell: int) -> tuple[frozenset[int], ...]:
    return tuple(_gl2_table(ell).two_generated())


# ---------------------------------------------------------------------------
# individual harnesses


def _ells(ell_max: int | None, pool: tuple[int, ...]) -> list[int]:
    cap = pool[-1] if ell_max is None else ell_max
    ells = [ell for ell in pool if ell <= cap]
    if not ells:
        raise PreconditionError(f"ell_max = {ell_max} leaves none of the primes {pool}")
    return ells


def harness_sl(ell_max: int | None = None) -> HarnessResult:
    violations = []
    details = {}
    checked = 0
    for ell in _ells(ell_max, (5, 7, 11, 13)):
        count = 0
        for x in _gl2_elements(ell):
            if x.det() != 1:
                continue
            word = decompose_sl2(x)
            checked += 1
            count += 1
            if len(word) > 12:
                violations.append(f"word of length {len(word)} for {x}")
            if word.evaluate() != x:
                violations.append(f"round-trip failure for {x}")
        details[f"ell_{ell}"] = count
    return HarnessResult("sl", checked, tuple(violations), details)


def _random_abelian(rng: random.Random, ell: int) -> Subgroup:
    """A random 2-generated abelian subgroup of order prime to ell.

    The second generator is taken from the polynomial algebra of the first,
    which is the full centralizer for a non-scalar semisimple element.
    """
    pool = _gl2_elements(ell)
    while True:
        x = pool[rng.randrange(len(pool))]
        if not x.is_scalar() and element_order(x) % ell != 0:
            break
    while True:
        s, t = rng.randrange(ell), rng.randrange(ell)
        y = Mat2(ell, s + t * x.a, t * x.b, t * x.c, s + t * x.d)
        if y.is_invertible():
            return closure(ell, [x, y])


def harness_ab_subgp(trials: int = 500, seed: int = 0) -> HarnessResult:
    rng = random.Random(seed)
    violations = []
    checked = 0
    cyclic_count = 0
    prime_to_11 = (x for x in _gl2_elements(11) if element_order(x) % 11)
    for h in _cyclic_subgroups(prime_to_11):
        x = h.generators[0]
        checked += 1
        cyclic_count += 1
        emb = conjugate_into_cartan(h)
        if not emb.verify(h):
            violations.append(f"unverified embedding for cyclic group of {x}")
        if brute_force_cartan_conjugator(h) is None:
            violations.append(f"oracle disagreement for cyclic group of {x}")
    random_count = 0
    for ell in (5, 7, 11):
        for _ in range(trials):
            h = _random_abelian(rng, ell)
            checked += 1
            random_count += 1
            emb = conjugate_into_cartan(h)
            if not emb.verify(h):
                violations.append(f"unverified embedding mod {ell}, order {h.order}")
            if brute_force_cartan_conjugator(h) is None:
                violations.append(f"oracle disagreement mod {ell}, order {h.order}")
    return HarnessResult(
        "ab-subgp",
        checked,
        tuple(violations),
        {"cyclic_subgroups": cyclic_count, "random_abelian": random_count},
    )


def harness_cyclic() -> HarnessResult:
    """Every odd-order prime-to-11 subgroup of SL2(F_11) from ≤ 2 generators is cyclic."""
    ell = 11
    sl2 = named_group(NamedGroupId.SL2, ell)
    # odd orders prime to 11 divide 15, so generators have order 1, 3, 5, or 15
    small = [x for x in sl2.elements if 15 % element_order(x) == 0]
    cyclics = _cyclic_subgroups(small)
    candidates = {h.elements for h in cyclics}
    for i, first in enumerate(cyclics):
        for second in cyclics[i + 1 :]:
            try:
                h = closure(ell, first.generators + second.generators, cap=15)
            except ResourceLimitError:
                continue  # order exceeds 15, so it is even or divisible by 11
            candidates.add(h.elements)
    violations = []
    checked = 0
    for elems in candidates:
        order = len(elems)
        if order % 2 == 0 or order % ell == 0:
            continue
        checked += 1
        try:
            cyclic_generator(subgroup_from_elements(ell, elems))
        except LemmaViolationError as exc:
            violations.append(str(exc))
    return HarnessResult("cyclic", checked, tuple(violations), {"subgroups": checked})


def harness_normalizers(ell_max: int | None = None) -> HarnessResult:
    violations = []
    checked = 0
    details = {}
    for ell in _ells(ell_max, (5, 7, 11)):
        pairs = (
            (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NORM_SPLIT),
            (NamedGroupId.NONSPLIT_CARTAN, NamedGroupId.NORM_NONSPLIT),
        )
        count = 0
        for cartan_id, norm_id in pairs:
            cartan = named_group(cartan_id, ell)
            norm = named_group(norm_id, ell)
            for h in _cyclic_subgroups(cartan.elements):
                if all(m.is_scalar() for m in h.elements):
                    continue
                x = h.generators[0]
                n = normalizer_in_gl2(h)
                checked += 1
                count += 1
                if not h.elements <= n.elements:
                    violations.append(f"normalizer misses the group itself at {x}")
                if not n.elements <= norm.elements:
                    violations.append(
                        f"normalizer of a {cartan_id.value} subgroup escapes "
                        f"{norm_id.value} at ell = {ell}, generator {x}"
                    )
        details[f"ell_{ell}"] = count
    return HarnessResult("normalizers", checked, tuple(violations), details)


def harness_ns_nns(trials: int = 100, seed: int = 0) -> HarnessResult:
    rng = random.Random(seed)
    violations = []
    checked = 0
    for ell in (5, 7, 11):
        for h in _cyclic_subgroups(_gl2_elements(ell)):
            det1 = sum(1 for m in h.elements if m.det() == 1)
            if det1 % 2 == 0 or det1 % ell == 0:
                continue
            checked += 1
            try:
                conjugate_into_normalizer(h)
            except LemmaViolationError as exc:
                violations.append(f"ell = {ell}, generator {h.generators[0]}: {exc}")
        for _ in range(trials):
            h = _random_abelian(rng, ell)
            det1 = sum(1 for m in h.elements if m.det() == 1)
            if det1 % 2 == 0 or det1 % ell == 0:
                continue
            checked += 1
            try:
                conjugate_into_normalizer(h)
            except LemmaViolationError as exc:
                violations.append(f"ell = {ell}, random group: {exc}")
    return HarnessResult("ns-nns", checked, tuple(violations), {"groups": checked})


def harness_easy_d(ell_max: int | None = None, trials: int = 100, seed: int = 0) -> HarnessResult:
    violations = []
    checked = 0
    details = {}
    for ell in _ells(ell_max, (5, 7)):
        table = _gl2_table(ell)
        subgroups = _gl2_two_generated(ell)
        details[f"ell_{ell}_subgroups"] = len(subgroups)
        for ids in subgroups:
            g = table.to_subgroup(ids)
            for p in ProjPoint.all_points(ell):
                checked += 1
                try:
                    unipotent_class(g, p)
                except LemmaViolationError as exc:
                    violations.append(f"ell = {ell}, order {g.order}, {p}: {exc}")
    if ell_max is not None and ell_max >= 11:
        rng = random.Random(seed)
        pool = _gl2_elements(11)
        for _ in range(trials):
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            g = closure(11, [x, y])
            for p in ProjPoint.all_points(11):
                checked += 1
                try:
                    unipotent_class(g, p)
                except LemmaViolationError as exc:
                    violations.append(f"ell = 11 sample, order {g.order}, {p}: {exc}")
        details["ell_11_samples"] = trials
    return HarnessResult("easy-d", checked, tuple(violations), details)


def harness_classify(ell_max: int | None = None) -> HarnessResult:
    violations = []
    checked = 0
    targets: dict[str, int] = {}
    for ell in _ells(ell_max, (5, 7)):
        table = _gl2_table(ell)
        for ids in _gl2_two_generated(ell):
            g = table.to_subgroup(ids)
            witness = degree_spectrum(g).odd_index_point()
            if witness is None:
                continue
            checked += 1
            try:
                verdict = classify_image(g, witness)
                targets[verdict.target.value] = targets.get(verdict.target.value, 0) + 1
            except LemmaViolationError as exc:
                violations.append(f"ell = {ell}, order {g.order}: {exc}")
    return HarnessResult("classify", checked, tuple(violations), targets)


def _subgroups_between(ambient: Subgroup, normal: frozenset[Mat2]) -> list[frozenset[Mat2]]:
    """All subgroups of the ambient group containing the given normal subgroup,
    enumerated through the quotient's coset multiplication."""
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


def harness_not_bl(ell_max: int | None = None) -> HarnessResult:
    violations = []
    checked = 0
    details = {"precondition_excluded": 0, "verified": 0}
    for ell in _ells(ell_max, (11, 13)):
        cs = named_group(NamedGroupId.SPLIT_CARTAN, ell)
        for cartan_id, norm_id in (
            (NamedGroupId.NONSPLIT_CARTAN, NamedGroupId.NORM_NONSPLIT),
            (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NORM_SPLIT),
        ):
            cartan = named_group(cartan_id, ell)
            ambient = named_group(norm_id, ell)
            nonsplit = cartan_id is NamedGroupId.NONSPLIT_CARTAN
            for e in (1, 2, 3, 4, 6):
                power = frozenset(x**e for x in cartan.elements)
                for elems in _subgroups_between(ambient, power):
                    if not nonsplit and elems <= cs.elements:
                        continue
                    checked += 1
                    g = subgroup_from_elements(ell, elems)
                    if nonsplit:
                        # divisibility holds with no extra hypotheses here
                        for vec, idx in exhaustive_spectrum(g).items():
                            if idx % 2 and idx % 3:
                                violations.append(
                                    f"ell = {ell}, e = {e}, order {len(elems)}: "
                                    f"index {idx} at {vec} coprime to 6"
                                )
                                break
                    try:
                        not_bl_check(g, BlHypotheses(inertia_exponent=e))
                        details["verified"] += 1
                    except PreconditionError:
                        details["precondition_excluded"] += 1
                    except LemmaViolationError as exc:
                        violations.append(f"ell = {ell}, e = {e}: {exc}")
    return HarnessResult("not-bl", checked, tuple(violations), details)


def harness_bl() -> HarnessResult:
    """Exhaustive scan of 2-generated upper-triangular subgroups mod 11."""
    ell = 11
    borel = named_group(NamedGroupId.BOREL, ell)
    table = _MulTable(ell, sorted(borel.elements, key=Mat2.entries))
    violations = []
    checked = 0
    details = {"verified": 0, "rejected_no_inertia": 0}
    hyp = BlHypotheses(det_surjective=True)
    for ids in table.two_generated():
        elems = [table.elements[i] for i in ids]
        if len({x.det() for x in elems}) != ell - 1:
            continue
        g = table.to_subgroup(frozenset(ids))
        if not cong_check(stripped_diagonal(g)):
            continue
        if not any(math.gcd(idx, 6) == 1 for idx in exhaustive_spectrum(g).values()):
            continue
        checked += 1
        try:
            verdict = derive_delta(g, hyp)
            details["verified"] += 1
            if verdict.delta_kind not in (NamedGroupId.DELTA1, NamedGroupId.DELTA2):
                violations.append(f"order {g.order}: unexpected kind {verdict.delta_kind}")
        except PreconditionError:
            details["rejected_no_inertia"] += 1
        except LemmaViolationError as exc:
            violations.append(f"order {g.order}: {exc}")
    return HarnessResult("bl", checked, tuple(violations), details)


def _random_l_part_instance(rng: random.Random):
    b_orders = tuple(rng.randint(1, 64) for _ in range(rng.randint(1, 3)))
    b = AbelianGroupSpec(b_orders)
    coords = rng.sample(range(len(b_orders)), rng.randint(1, len(b_orders)))
    a_orders = []
    images = []
    for i in coords:
        divs = [d for d in range(1, b_orders[i] + 1) if b_orders[i] % d == 0]
        a_orders.append(rng.choice(divs))
        img = [0] * len(b_orders)
        img[i] = b_orders[i] // a_orders[-1]
        images.append(tuple(img))
    a = AbelianGroupSpec(tuple(a_orders))
    emb = Embedding(a, b, tuple(images))
    ell = rng.choice([2, 3, 5, 7])
    n = rng.randint(0, 3)
    return a, b, emb, ell, n, n + rng.randint(1, 2)


def harness_l_part(trials: int = 10000, seed: int = 0) -> HarnessResult:
    rng = random.Random(seed)
    counts = {v.value: 0 for v in LPartVerdict}
    violations = []
    for _ in range(trials):
        a, b, emb, ell, n, n_prime = _random_l_part_instance(rng)
        try:
            verdict = l_part_check(a, b, emb, ell, n, n_prime)
            counts[verdict.value] += 1
        except LemmaViolationError as exc:
            violations.append(str(exc))
    return HarnessResult("l-part", trials, tuple(violations), counts)


_HARNESSES = {
    "sl": harness_sl,
    "ab-subgp": harness_ab_subgp,
    "cyclic": harness_cyclic,
    "normalizers": harness_normalizers,
    "ns-nns": harness_ns_nns,
    "easy-d": harness_easy_d,
    "classify": harness_classify,
    "not-bl": harness_not_bl,
    "bl": harness_bl,
    "l-part": harness_l_part,
}


def run_harness(
    harness_id: str,
    ell_max: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> HarnessResult:
    """Run one harness with the options given; an option left None keeps the
    harness default, and one the harness does not take is a UsageError."""
    if harness_id not in _HARNESSES:
        raise PreconditionError(
            f"unknown harness {harness_id!r}; known: {', '.join(HARNESS_IDS)}"
        )
    harness = _HARNESSES[harness_id]
    given = {"ell_max": ell_max, "trials": trials, "seed": seed}
    kwargs = {name: value for name, value in given.items() if value is not None}
    params = inspect.signature(harness).parameters
    ignored = [name for name in kwargs if name not in params]
    if ignored:
        options = ", ".join("--" + name.replace("_", "-") for name in ignored)
        raise UsageError(f"harness {harness_id} does not take {options}")
    if trials is not None and trials < 0:
        raise PreconditionError(f"trials must be non-negative, got {trials}")
    result = harness(**kwargs)
    if result.checked == 0:
        raise PreconditionError(f"harness {harness_id} has nothing to check with these arguments")
    return result
