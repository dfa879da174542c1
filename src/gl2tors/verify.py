"""Falsification harnesses: exhaustive or randomized scans for each structure result."""
from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError, UsageError
from .modarith import Mat2
from .groups import (
    NamedGroupId,
    Subgroup,
    _cyclic_subgroups,
    closure,
    named_group,
    subgroup_from_entries,
)
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
    _bl_candidate_spectrum,
    _cartan_power,
    _delta_verdict,
    classify_image,
    not_bl_check,
)
from .bounds import AbelianGroupSpec, Embedding, LPartVerdict, l_part_check


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


# rows of a Cayley table filled per numpy call: a block keeps the int64
# index temporaries small
_BLOCK_ROWS = 64


def _table_closures(
    table: np.ndarray, identity: int, gen_rows: np.ndarray, starts: Iterable[Iterable[int]]
) -> Iterator[frozenset[int]]:
    """Closures of a batch of id sets under an int32 Cayley table of a finite
    group, one frozenset per row of the B × m array gen_rows, yielded as the
    caller reads them.

    A breadth-first search from the identity, each row's generators and its
    start ids multiplies each level on the right by that row's generators.
    A start set must lie in the group its row generates; seeding with more
    of it reaches the group in fewer levels. One flat boolean mask over the
    codes row·k + id holds every row's members, so a level is the same few
    numpy calls for the whole batch: its products not yet in the mask, each
    once, are the next frontier.
    """
    k = len(table)
    offsets = np.arange(len(gen_rows)) * k
    inside = np.zeros(len(gen_rows) * k, dtype=bool)
    inside[(offsets[:, None] + gen_rows).ravel()] = True
    inside[offsets + identity] = True
    for offset, start in zip(offsets, starts):
        inside[offset + np.fromiter(start, dtype=np.intp)] = True
    frontier = np.flatnonzero(inside)
    while frontier.size:
        row, ids = np.divmod(frontier, k)
        reached = inside.copy()
        reached[(row * k)[:, None] + table[ids[:, None], gen_rows[row]]] = True
        frontier = np.flatnonzero(reached > inside)
        inside = reached
    for members in inside.reshape(-1, k):
        yield frozenset(np.flatnonzero(members).tolist())


class _MulTable:
    """Multiplication table over a list of reduced (a, b, c, d) entry tuples
    mod n, indexed by integers. A list that is not a group (a product outside
    it, no identity, an element with no inverse in it) is a PreconditionError.
    """

    def __init__(self, n: int, entries: Iterable[tuple[int, int, int, int]]):
        self.n = n
        self.entries = list(entries)
        self.index = {e: i for i, e in enumerate(self.entries)}
        k = len(self.entries)
        a, b, c, d = np.array(self.entries, dtype=np.int64).reshape(k, 4).T
        # an entry packs as row1 · n² + row2, its two rows read as vectors mod n
        row1, row2 = a * n + b, c * n + d
        lut = np.full(n**4, -1, dtype=np.int32)
        lut[row1 * n**2 + row2] = np.arange(k, dtype=np.int32)
        # x·y has rows (row1(x)·y, row2(x)·y), so act[v, y], the vector v·y
        # for each of the n² vectors v, gives every product by lookups alone
        vectors = np.arange(n * n)[:, None]
        p, q = vectors // n, vectors % n
        act = (p * a + q * c) % n * n + (p * b + q * d) % n
        self.table = np.empty((k, k), dtype=np.int32)
        for lo in range(0, k, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            self.table[rows] = lut[act[row1[rows]] * n**2 + act[row2[rows]]]
        self.identity = int(lut[n**3 + 1])  # pack of (1, 0, 0, 1)
        if self.identity < 0:
            raise PreconditionError("element list holds no identity")
        if (self.table < 0).any():
            raise PreconditionError("element list is not closed under multiplication")
        is_identity = self.table == self.identity
        if not is_identity.any(axis=1).all():
            raise PreconditionError("element list holds an element with no inverse in it")
        self.inverse = np.argmax(is_identity, axis=1)

    def two_generated(self) -> set[frozenset[int]]:
        """All subgroups generated by at most two elements, deduplicated.

        Every such subgroup is conjugate to one ⟨H₁, g₂⟩ with H₁ = ⟨g₁⟩ one
        cyclic subgroup per conjugacy class and ⟨g₂⟩ one cyclic subgroup per
        orbit of the normalizer N(H₁). Those are closed, and the answer is
        every cyclic subgroup plus the conjugation orbits of the closures.
        """
        table = self.table
        k = len(table)
        inv = self.inverse
        # conj[g, x] = g⁻¹·x·g, filled a block of rows at a time: a single
        # fancy index would hold int64 copies of a k × k array at once
        conj = np.empty_like(table)
        for lo in range(0, k, _BLOCK_ROWS):
            g = np.arange(lo, min(lo + _BLOCK_ROWS, k))
            conj[g] = table[table[inv[g]], g[:, None]]
        index = self.index
        cyclic = {
            frozenset(index[e] for e in h.entries): index[h.generators[0].entries()]
            for h in _cyclic_subgroups(self.n, self.entries)
        }
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

        pairs = []
        for i in orbit_reps(np.arange(k)):
            first, g1 = keys[i], int(gens[i])
            for j in orbit_reps(normalizer(np.fromiter(first, dtype=np.int64))):
                if int(gens[j]) not in first and g1 not in keys[j]:
                    pairs.append((i, j))
        # started from both cyclic subgroups, each search needs fewer levels
        closures = _table_closures(
            table,
            self.identity,
            gens[np.array(pairs, dtype=np.intp).reshape(-1, 2)],
            (chain(keys[i], keys[j]) for i, j in pairs),
        )
        subgroups: set[frozenset[int]] = set(keys)
        for h in closures:
            if h in subgroups:
                continue
            ids = np.fromiter(h, dtype=np.int64)
            # g⁻¹·H·g depends only on the coset N(H)·g, labelled by its least element
            labels = np.zeros(k, dtype=bool)
            labels[table[normalizer(ids), :].min(axis=0)] = True
            cosets = np.flatnonzero(labels)
            subgroups.update(frozenset(row) for row in conj[np.ix_(cosets, ids)].tolist())
        return subgroups

    def to_subgroup(self, ids: Iterable[int]) -> Subgroup:
        """The subgroup on these ids, wrapped by subgroup_from_entries: no Mat2 is built."""
        return subgroup_from_entries(self.n, (self.entries[i] for i in ids))


@lru_cache(maxsize=None)
def _gl2_table(ell: int) -> _MulTable:
    if ell > 7:
        raise ResourceLimitError(f"full GL2 table not built for ell = {ell}")
    return _MulTable(ell, [x.entries() for x in _gl2_elements(ell)])


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


def _ell_divides_order(x: Mat2) -> bool:
    """Whether the prime ell = x.n divides the order of x in GL2(F_ell): x is
    then not semisimple, so it is not scalar and has a repeated eigenvalue."""
    return not x.is_scalar() and (x.trace() ** 2 - 4 * x.det()) % x.n == 0


def _random_abelian(rng: random.Random, ell: int) -> Subgroup:
    """A random 2-generated abelian subgroup of order prime to ell.

    The second generator is taken from the polynomial algebra of the first,
    which is the full centralizer for a non-scalar semisimple element.
    """
    pool = _gl2_elements(ell)
    while True:
        x = pool[rng.randrange(len(pool))]
        if not x.is_scalar() and not _ell_divides_order(x):
            break
    while True:
        s, t = rng.randrange(ell), rng.randrange(ell)
        y = Mat2(ell, s + t * x.a, t * x.b, t * x.c, s + t * x.d)
        if y.is_invertible():
            return closure(ell, [x, y])


def harness_ab_subgp(trials: int = 500, seed: int = 0) -> HarnessResult:
    rng = random.Random(seed)
    prime_to_11 = (x.entries() for x in _gl2_elements(11) if not _ell_divides_order(x))
    # (details key, group, its label in a violation), each random group drawn
    # as the loop reaches it
    groups = chain(
        (
            ("cyclic_subgroups", h, f"for cyclic group of {h.generators[0]}")
            for h in _cyclic_subgroups(11, prime_to_11)
        ),
        (
            ("random_abelian", h, f"mod {ell}, order {h.order}")
            for ell in (5, 7, 11)
            for h in (_random_abelian(rng, ell) for _ in range(trials))
        ),
    )
    violations = []
    details = {"cyclic_subgroups": 0, "random_abelian": 0}
    for source, h, where in groups:
        details[source] += 1
        emb = conjugate_into_cartan(h)
        if not emb.verify(h):
            violations.append(f"unverified embedding {where}")
        if brute_force_cartan_conjugator(h) is None:
            violations.append(f"oracle disagreement {where}")
    return HarnessResult("ab-subgp", sum(details.values()), tuple(violations), details)


def harness_cyclic() -> HarnessResult:
    """Every odd-order prime-to-11 subgroup of SL2(F_11) from ≤ 2 generators is cyclic."""
    ell = 11
    table = _MulTable(ell, sorted(named_group(NamedGroupId.SL2, ell).entries))
    violations = []
    checked = 0
    for ids in table.two_generated():
        if len(ids) % 2 == 0 or len(ids) % ell == 0:
            continue
        checked += 1
        try:
            cyclic_generator(table.to_subgroup(ids))
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
            for h in _cyclic_subgroups(ell, cartan.entries):
                if h.generators[0].is_scalar():
                    continue
                x = h.generators[0]
                n = normalizer_in_gl2(h)
                checked += 1
                count += 1
                if not h <= n:
                    violations.append(f"normalizer misses the group itself at {x}")
                if not n <= norm:
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
        cyclic = _cyclic_subgroups(ell, (x.entries() for x in _gl2_elements(ell)))
        sampled = (_random_abelian(rng, ell) for _ in range(trials))
        groups = chain(
            ((h, f"generator {h.generators[0]}") for h in cyclic),
            ((h, "random group") for h in sampled),
        )
        for h, where in groups:
            # det is a homomorphism, so its kernel h ∩ SL2 has |h| / |det(h)| elements
            det1 = h.order // len(h.det_image())
            if det1 % 2 == 0 or det1 % ell == 0:
                continue
            checked += 1
            try:
                conjugate_into_normalizer(h)
            except LemmaViolationError as exc:
                violations.append(f"ell = {ell}, {where}: {exc}")
    return HarnessResult("ns-nns", checked, tuple(violations), {"groups": checked})


def harness_easy_d(
    ell_max: int | None = None, trials: int | None = None, seed: int | None = None
) -> HarnessResult:
    """unipotent_class at every projective point of every two-generated
    subgroup of GL2(F_ell) for ell = 5, 7 up to ell_max; with ell_max >= 11
    also of trials (default 100) random ones of GL2(F_11) drawn with seed
    (default 0). trials and seed act only then: below, either is a UsageError."""
    sampled = ell_max is not None and ell_max >= 11
    options = {"--trials": trials, "--seed": seed}
    given = [name for name, value in options.items() if value is not None]
    if given and not sampled:
        raise UsageError(
            f"harness easy-d does not take {', '.join(given)} unless --ell-max is at least 11"
        )
    violations = []
    checked = 0
    details = {}
    for ell in _ells(ell_max, (5, 7)):
        table = _gl2_table(ell)
        subgroups = _gl2_two_generated(ell)
        details[f"ell_{ell}_subgroups"] = len(subgroups)
        points = ProjPoint.all_points(ell)
        for ids in subgroups:
            g = table.to_subgroup(ids)
            for p in points:
                checked += 1
                try:
                    unipotent_class(g, p)
                except LemmaViolationError as exc:
                    violations.append(f"ell = {ell}, order {g.order}, {p}: {exc}")
    if sampled:
        trials = 100 if trials is None else trials
        rng = random.Random(0 if seed is None else seed)
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


def _subgroups_between(table: _MulTable, normal: Subgroup) -> list[Subgroup]:
    """All subgroups of the table's group that contain the given normal
    subgroup, enumerated as the subgroups of the quotient by it.

    Each coset x·N is labelled by its least id, min of x·n over n in N, and
    the labels are the quotient's elements, numbered in ascending order. A
    subgroup of the quotient grows from the trivial one by adding one
    element at a time and closing under the quotient's Cayley table.
    """
    labels = table.table[:, [table.index[e] for e in normal.entries]].min(axis=1)
    # the least element of a coset is its own label
    reps = np.flatnonzero(labels == np.arange(len(labels)))
    coset_of = np.searchsorted(reps, labels)
    mul = coset_of[table.table[reps[:, None], reps]]
    ident = int(coset_of[table.identity])
    subs: set[frozenset[int]] = {frozenset({ident})}
    queue = [frozenset({ident})]
    while queue:
        base = queue.pop()
        grow = [q for q in range(len(reps)) if q not in base]
        gen_rows = np.array([[*base, q] for q in grow], dtype=np.intp).reshape(-1, len(base) + 1)
        for grown in _table_closures(mul, ident, gen_rows, repeat(())):
            if grown not in subs:
                subs.add(grown)
                queue.append(grown)
    cosets = coset_of.tolist()
    return [table.to_subgroup([x for x, q in enumerate(cosets) if q in ids]) for ids in subs]


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
            table = _MulTable(ell, sorted(ambient.entries))
            nonsplit = cartan_id is NamedGroupId.NONSPLIT_CARTAN
            for e in (1, 2, 3, 4, 6):
                for g in _subgroups_between(table, _cartan_power(cartan, e)):
                    if not nonsplit and g <= cs:
                        continue
                    checked += 1
                    if nonsplit:
                        # divisibility holds with no extra hypotheses here
                        for vec, idx in exhaustive_spectrum(g).items():
                            if idx % 2 and idx % 3:
                                violations.append(
                                    f"ell = {ell}, e = {e}, order {g.order}: "
                                    f"index {idx} at {vec} coprime to 6"
                                )
                                break
                    try:
                        not_bl_check(g, e)
                        details["verified"] += 1
                    except PreconditionError:
                        details["precondition_excluded"] += 1
                    except LemmaViolationError as exc:
                        violations.append(f"ell = {ell}, e = {e}: {exc}")
    return HarnessResult("not-bl", checked, tuple(violations), details)


def harness_bl() -> HarnessResult:
    """Exhaustive scan of 2-generated upper-triangular subgroups mod 11: each
    that meets the hypotheses of derive_delta is counted and checked."""
    ell = 11
    borel = named_group(NamedGroupId.BOREL, ell)
    table = _MulTable(ell, sorted(borel.entries))
    violations = []
    checked = 0
    details = {"verified": 0, "rejected_no_inertia": 0}
    for ids in table.two_generated():
        g = table.to_subgroup(ids)
        try:
            spectrum = _bl_candidate_spectrum(g)
        except PreconditionError:
            continue
        checked += 1
        try:
            verdict = _delta_verdict(g, spectrum)
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
HARNESS_IDS = tuple(_HARNESSES)


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
