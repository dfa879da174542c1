"""Falsification harnesses: exhaustive or randomized scans for each structure result."""
from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import LemmaViolationError, PreconditionError, ResourceLimitError, UsageError
from .modarith import Mat2
from .groups import (
    NamedGroupId,
    Subgroup,
    _cyclic_subgroups,
    closure,
    named_group,
)
from .stabilizers import ProjPoint, unipotent_class
from .lemmas import (
    _discriminant,
    _gl2_elements,
    brute_force_cartan_conjugator,
    conjugate_into_cartan,
    conjugate_into_normalizer,
    cyclic_generator,
    decompose_sl2,
    normalizer_in_gl2,
)
from .classify import (
    INERTIA_EXPONENTS,
    _bl_candidate_spectrum,
    _cartan_power,
    _delta_verdict,
    _small_divisor_table,
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
    table: np.ndarray, identity: int, gen_rows: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Closures of a batch of id sets under an int32 Cayley table of a finite
    group: the B × k boolean membership matrix whose row r is the subgroup
    generated by row r of the B × m array gen_rows.

    A breadth-first search from the identity, each row's generators and the
    ids of its row of the B × k boolean matrix starts multiplies each level
    on the right by that row's generators. A start set must lie in the group
    its row generates; seeding with more of it reaches the group in fewer
    levels. One flat boolean mask over the codes row·k + id holds every
    row's members, so a level is the same few numpy calls for the whole
    batch: its products not yet in the mask, each once, are the next frontier.
    """
    k = len(table)
    offsets = np.arange(len(gen_rows)) * k
    inside = np.array(starts, dtype=bool).reshape(len(gen_rows) * k)
    inside[(offsets[:, None] + gen_rows).ravel()] = True
    inside[offsets + identity] = True
    frontier = np.flatnonzero(inside)
    while frontier.size:
        row, ids = np.divmod(frontier, k)
        reached = inside.copy()
        reached[(row * k)[:, None] + table[ids[:, None], gen_rows[row]]] = True
        frontier = np.flatnonzero(reached > inside)
        inside = reached
    return inside.reshape(-1, k)


class _MulTable:
    """Multiplication table over a list of distinct reduced (a, b, c, d) entry
    tuples mod n, indexed by integers in ascending entry order. A list that is
    not a group (a product outside it, no identity, an element with no inverse
    in it) is a PreconditionError.
    """

    def __init__(self, n: int, entries: Iterable[tuple[int, int, int, int]]):
        self.n = n
        # ascending, so that sorted ids list a subgroup's entries in ascending order
        self.entries = sorted(entries)
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

        Number the cyclic subgroups H_0, H_1, … smallest first, and let
        rep[j] be the least index of a conjugate of H_j. A subgroup ⟨x, y⟩
        with ⟨x⟩ of the smaller class representative i is conjugate to one
        ⟨H_i, H_j⟩ with H_j the least of its orbit under the normalizer
        N(H_i): conjugate ⟨x⟩ to H_i, then move ⟨y⟩ by N(H_i), which keeps
        its class, so rep[j] >= i. Only those pairs are closed, and the
        answer is every cyclic subgroup plus the conjugation orbits of the
        closures that are new.
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
            frozenset(index[e] for e in h.entries): index[h.generator_entries[0]]
            for h in _cyclic_subgroups(self.n, self.entries)
        }
        keys = sorted(cyclic, key=len)
        gens = np.array([cyclic[s] for s in keys])
        key_ids = np.arange(len(keys))
        # key_mask[j] is the membership row of keys[j]
        key_mask = np.zeros((len(keys), k), dtype=bool)
        key_mask[np.repeat(key_ids, [len(s) for s in keys]), list(chain(*keys))] = True
        # cyc_of[x] is the index in keys of ⟨x⟩, the least cyclic subgroup
        # holding x: keys grow in size, so it is the first row holding x
        cyc_of = np.argmax(key_mask, axis=0)

        # images[g, j] is the index in keys of g⁻¹·H_j·g. Over a group of
        # conjugators the least image of a key is the least index of its orbit.
        images = cyc_of[conj[:, gens]]
        rep = images.min(axis=0)
        pairs = []
        for i in np.flatnonzero(rep == key_ids):
            # the normalizer of H_i: the g with g⁻¹·H_i·g = H_i
            local = images[images[:, i] == i].min(axis=0)
            # a pair with one cyclic subgroup inside the other closes to a key
            js = np.flatnonzero(
                (local == key_ids) & (rep >= i) & ~key_mask[i, gens] & ~key_mask[:, gens[i]]
            )
            pairs.append(np.column_stack((np.full(len(js), i), js)))
        # free the k × len(keys) int64 images before the batch, so that they
        # do not add to its peak memory
        del images
        pairs = np.concatenate(pairs)
        gen_rows = gens[pairs]
        # started from both cyclic subgroups, each search needs fewer levels
        starts = key_mask[pairs[:, 0]] | key_mask[pairs[:, 1]]
        members = _table_closures(table, self.identity, gen_rows, starts)
        # a subgroup is known by the bytes of its packed membership row
        known = {row.tobytes() for row in np.packbits(key_mask, axis=1)}
        subgroups: set[frozenset[int]] = set(keys)
        for row, packed, pair in zip(members, np.packbits(members, axis=1), gen_rows):
            if packed.tobytes() in known:
                continue
            ids = np.flatnonzero(row)
            # g normalizes H = ⟨pair⟩ when it maps both generators into H, and
            # g⁻¹·H·g depends only on the coset N(H)·g, labelled by its least element
            normalizer = np.flatnonzero(row[conj[:, pair]].all(axis=1))
            labels = np.zeros(k, dtype=bool)
            labels[table[normalizer, :].min(axis=0)] = True
            conjugates = conj[np.ix_(np.flatnonzero(labels), ids)]
            # the known subgroups are closed under conjugation and distinct
            # cosets give distinct conjugates, so every conjugate is new
            masks = np.zeros((len(conjugates), k), dtype=bool)
            masks[np.arange(len(conjugates))[:, None], conjugates] = True
            known.update(row.tobytes() for row in np.packbits(masks, axis=1))
            subgroups.update(frozenset(row) for row in conjugates.tolist())
        return subgroups

    def to_subgroup(self, ids: Iterable[int]) -> Subgroup:
        """The subgroup on these distinct ids, its entries in ascending order
        as subgroup_from_entries holds them: no Mat2 is built."""
        return Subgroup(self.n, None, [self.entries[i] for i in sorted(ids)])


def _stabilizer_orders(table: _MulTable, subgroups: Sequence[frozenset[int]]) -> np.ndarray:
    """For each id set of a subgroup G of GL2(F_ell) on the table and each
    point p of ProjPoint.all_points(ell), in one pass: at [g, p, 0] the
    order of Stab_G(v_p), the elements of G that fix the representative
    vector v_p, and at [g, p, 1] the order of Stab_G(v_p) ∩ SL2.

    fixes[x, p] says that element x fixes v_p, so a subgroup's rows of it
    and of fixes & det==1 sum to the two orders. Every subgroup holds the
    identity, so no segment of the reduceat is empty.
    """
    ell = table.n
    pc, pd = np.array([(p.c, p.d) for p in ProjPoint.all_points(ell)]).T
    a, b, c, d = np.array(table.entries).T[..., None]
    fixes = ((pc * a + pd * c) % ell == pc) & ((pc * b + pd * d) % ell == pd)
    both = np.stack((fixes, fixes & ((a * d - b * c) % ell == 1)), axis=-1)
    sizes = np.fromiter(map(len, subgroups), dtype=np.intp, count=len(subgroups))
    flat = np.fromiter(chain.from_iterable(subgroups), dtype=np.intp, count=int(sizes.sum()))
    return np.add.reduceat(both[flat], np.cumsum(sizes) - sizes, axis=0)


@lru_cache(maxsize=None)
def _gl2_table(ell: int) -> _MulTable:
    if ell > 7:
        raise ResourceLimitError(f"full GL2 table not built for ell = {ell}")
    return _MulTable(ell, _gl2_elements(ell))


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
    for ell in _ells(ell_max, (5, 7, 11, 13)):
        details[f"ell_{ell}"] = 0
        det1 = (e for e in _gl2_elements(ell) if (e[0] * e[3] - e[1] * e[2]) % ell == 1)
        for x in (Mat2._reduced(ell, *e) for e in det1):
            details[f"ell_{ell}"] += 1
            try:
                word = decompose_sl2(x)
            except LemmaViolationError as exc:
                violations.append(str(exc))
                continue
            if len(word) > 12:
                violations.append(f"word of length {len(word)} for {x}")
    return HarnessResult("sl", sum(details.values()), tuple(violations), details)


def _ell_divides_order(ell: int, x: tuple[int, int, int, int]) -> bool:
    """Whether the prime ell divides the order of x, reduced entries in GL2(F_ell):
    x is then not semisimple, so it is not scalar and has a repeated eigenvalue."""
    a, b, c, d = x
    return (b, c, a) != (0, 0, d) and _discriminant(ell, x) == 0


def _random_abelian(rng: random.Random, ell: int) -> Subgroup:
    """A random 2-generated abelian subgroup of order prime to ell.

    The first is drawn until its discriminant is nonzero, so it is semisimple
    and not scalar; the second is taken from the polynomial algebra of the
    first, which is then its full centralizer.
    """
    pool = _gl2_elements(ell)
    x = pool[rng.randrange(len(pool))]
    while not _discriminant(ell, x):
        x = pool[rng.randrange(len(pool))]
    a, b, c, d = x
    while True:
        s, t = rng.randrange(ell), rng.randrange(ell)
        y = ((s + t * a) % ell, t * b % ell, t * c % ell, (s + t * d) % ell)
        if (y[0] * y[3] - y[1] * y[2]) % ell:
            return closure(ell, [x, y])


def harness_ab_subgp(trials: int = 500, seed: int = 0) -> HarnessResult:
    rng = random.Random(seed)
    prime_to_11 = (e for e in _gl2_elements(11) if not _ell_divides_order(11, e))
    # (details key, group, the template of its label in a violation, formatted
    # only for one), each random group drawn as the loop reaches it
    groups = chain(
        (
            ("cyclic_subgroups", h, "for cyclic group of {0.generators[0]}")
            for h in _cyclic_subgroups(11, prime_to_11)
        ),
        (
            ("random_abelian", h, "mod {0.n}, order {0.order}")
            for ell in (5, 7, 11)
            for h in (_random_abelian(rng, ell) for _ in range(trials))
        ),
    )
    violations = []
    details = {"cyclic_subgroups": 0, "random_abelian": 0}
    for source, h, where in groups:
        details[source] += 1
        try:
            conjugate_into_cartan(h)
        except LemmaViolationError as exc:
            violations.append(f"unverified embedding {where.format(h)}: {exc}")
        if brute_force_cartan_conjugator(h) is None:
            violations.append(f"oracle disagreement {where.format(h)}")
    return HarnessResult("ab-subgp", sum(details.values()), tuple(violations), details)


def harness_cyclic() -> HarnessResult:
    """Every odd-order prime-to-11 subgroup of SL2(F_11) from ≤ 2 generators is cyclic."""
    table = _MulTable(11, sorted(named_group(NamedGroupId.SL2, 11).entries))
    violations = []
    checked = 0
    for ids in table.two_generated():
        try:
            cyclic_generator(table.to_subgroup(ids))
        except PreconditionError:
            continue
        except LemmaViolationError as exc:
            violations.append(str(exc))
        checked += 1
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
    """conjugate_into_normalizer on the cyclic and sampled abelian subgroups
    whose determinant-1 part has odd order prime to ell. The lemma also takes
    one odd only up to the scalar -1, 2584 of these 3382 groups against the
    filter's 1882: the filter stays, as the domain the harness counts."""
    rng = random.Random(seed)
    violations = []
    checked = 0
    for ell in (5, 7, 11):
        cyclic = _cyclic_subgroups(ell, _gl2_elements(ell))
        sampled = (_random_abelian(rng, ell) for _ in range(trials))
        groups = chain(
            ((h, "generator {0.generators[0]}") for h in cyclic),
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
                violations.append(f"ell = {ell}, {where.format(h)}: {exc}")
    return HarnessResult("ns-nns", checked, tuple(violations), {"groups": checked})


def harness_easy_d(
    ell_max: int | None = None, trials: int | None = None, seed: int | None = None
) -> HarnessResult:
    """unipotent_class at every projective point of every two-generated
    subgroup of GL2(F_ell) for ell = 5, 7 up to ell_max; with ell_max >= 11
    also of trials (default 100) random ones of GL2(F_11) drawn with seed
    (default 0). trials and seed act only then: below, either is a UsageError.

    The det-1 stabilizer orders of all subgroups of one ell are read off the
    table in one pass (_stabilizer_orders). Where one is 1 the stabilizer is
    trivial, the lemma's own answer, and the point is counted without a
    call; elsewhere the group is wrapped once and unipotent_class checks the
    point. A sampled group is on no table, so it is checked at every point."""
    sampled = ell_max is not None and ell_max >= 11
    options = {"--trials": trials, "--seed": seed}
    given = [name for name, value in options.items() if value is not None]
    if given and not sampled:
        raise UsageError(
            f"harness easy-d does not take {', '.join(given)} unless --ell-max is at least 11"
        )
    # (label, projective points, (group maker, det-1 stabilizer order or None
    # at each point) pairs); a sample is drawn as the loop reaches it
    batches = []
    details = {}
    for ell in _ells(ell_max, (5, 7)):
        table, subgroups = _gl2_table(ell), _gl2_two_generated(ell)
        details[f"ell_{ell}_subgroups"] = len(subgroups)
        orders = _stabilizer_orders(table, subgroups)[..., 1].tolist()
        groups = [(partial(table.to_subgroup, ids), o) for ids, o in zip(subgroups, orders)]
        batches.append((f"ell = {ell}", ProjPoint.all_points(ell), groups))
    if sampled:
        trials = 100 if trials is None else trials
        rng = random.Random(0 if seed is None else seed)
        pool = _gl2_elements(11)
        draws = (
            (partial(closure, 11, [rng.choice(pool) for _ in range(2)]), repeat(None))
            for _ in range(trials)
        )
        batches.append(("ell = 11 sample", ProjPoint.all_points(11), draws))
        details["ell_11_samples"] = trials
    violations = []
    checked = 0
    for label, points, groups in batches:
        for make, orders in groups:
            g = None
            for p, order in zip(points, orders):
                checked += 1
                if order == 1:
                    continue
                if g is None:
                    g = make()
                try:
                    unipotent_class(g, p)
                except LemmaViolationError as exc:
                    violations.append(f"{label}, order {g.order}, {p}: {exc}")
    return HarnessResult("easy-d", checked, tuple(violations), details)


def harness_classify(ell_max: int | None = None) -> HarnessResult:
    """classify_image on every two-generated subgroup of GL2(F_ell), for
    ell = 5, 7 up to ell_max, that has a projective line whose representative
    vector has odd stabilizer index: the lemma's domain. The witness is the
    first such point in sorted order, read for all subgroups of one ell from
    the stabilizer orders of a single pass over the table
    (_stabilizer_orders), and classify_image re-checks its index with
    orbit_size before it places the group. The details count the groups
    placed in each target family."""
    violations = []
    checked = 0
    targets: dict[str, int] = {}
    for ell in _ells(ell_max, (5, 7)):
        table = _gl2_table(ell)
        subgroups = _gl2_two_generated(ell)
        points = ProjPoint.all_points(ell)
        # the index of Stab(v_p) is |G| // its order, by orbit-stabilizer;
        # all_points lists the points in sorted order, so the first odd
        # column is the first odd point
        stabilizers = _stabilizer_orders(table, subgroups)[..., 0]
        odd = np.array([len(ids) for ids in subgroups])[:, None] // stabilizers % 2 == 1
        for ids, at in zip(subgroups, np.where(odd.any(axis=1), odd.argmax(axis=1), -1).tolist()):
            if at < 0:
                continue
            g = table.to_subgroup(ids)
            checked += 1
            try:
                verdict = classify_image(g, points[at])
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
        no_starts = np.zeros((len(gen_rows), len(reps)), dtype=bool)
        for members in _table_closures(mul, ident, gen_rows, no_starts):
            grown = frozenset(np.flatnonzero(members).tolist())
            if grown not in subs:
                subs.add(grown)
                queue.append(grown)
    cosets = coset_of.tolist()
    return [table.to_subgroup([x for x, q in enumerate(cosets) if q in ids]) for ids in subs]


def harness_not_bl(ell_max: int | None = None) -> HarnessResult:
    violations = []
    checked = 0
    details = {"precondition_excluded": 0, "verified": 0}
    # groups whose 2-or-3 conclusion ran: a group above several Cartan
    # powers comes back once per exponent, and its conclusion does not vary
    concluded: set[Subgroup] = set()
    for ell in _ells(ell_max, (11, 13)):
        cs = named_group(NamedGroupId.SPLIT_CARTAN, ell)
        for cartan_id, norm_id in (
            (NamedGroupId.NONSPLIT_CARTAN, NamedGroupId.NORM_NONSPLIT),
            (NamedGroupId.SPLIT_CARTAN, NamedGroupId.NORM_SPLIT),
        ):
            cartan = named_group(cartan_id, ell)
            table = _MulTable(ell, sorted(named_group(norm_id, ell).entries))
            nonsplit = cartan_id is NamedGroupId.NONSPLIT_CARTAN
            for e in INERTIA_EXPONENTS:
                for g in _subgroups_between(table, _cartan_power(cartan, e)):
                    if not nonsplit and g <= cs:
                        continue
                    checked += 1
                    try:
                        try:
                            not_bl_check(g, e)
                            details["verified"] += 1
                            concluded.add(g)
                        except PreconditionError:
                            details["precondition_excluded"] += 1
                            if nonsplit and g not in concluded:
                                # divisibility holds here with no extra hypotheses
                                _small_divisor_table(g)
                                concluded.add(g)
                    except LemmaViolationError as exc:
                        violations.append(f"ell = {ell}, e = {e}, order {g.order}: {exc}")
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
            _delta_verdict(g, spectrum)
            details["verified"] += 1
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
