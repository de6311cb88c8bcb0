"""The simulation preorder between CA local algebras.

One algebra simulates another when the second lies in the closure of
the first under quotients, subalgebras, finite products and iterative
powers, applied in that normal-form order.  This module generates that
closure to explicit bounds, decides the preorder exactly for doubly
bijective canonical additive simulators (where the closure collapses to
products of iterative powers plus singletons), and packages both the
characterization and affine-closure theorem checks as replayable
reports.

Yes verdicts always carry a witness chain that can be replayed step by
step; No verdicts are only produced from a complete argument (a
singleton simulator, or the exact characterization of doubly bijective
canonical additive simulators); everything else is Unknown with the
bounds that were searched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import affine_ca, ca_core
from .affine_ca import AffineAlgebra, CanonicalAdditive
from .ca_core import Congruence, LocalAlgebra, Word
from .caps import DEFAULT_CAPS, CapExceeded, Caps, require


@dataclass(frozen=True)
class SearchBounds:
    """Bounds for closure generation: iterative powers up to n_max,
    products of up to k_max powers, product state count up to size_cap
    (None means every product expressible within n_max and k_max)."""

    n_max: int = 2
    k_max: int = 2
    size_cap: int | None = None

    def __post_init__(self) -> None:
        if self.n_max < 1 or self.k_max < 1:
            raise ValueError(f"search bounds need n_max >= 1 and k_max >= 1, "
                             f"got {self.n_max} and {self.k_max}")
        if self.size_cap is not None and self.size_cap < 1:
            raise ValueError(f"search bounds need size_cap >= 1, got {self.size_cap}")

    def effective_size_cap(self, m: int) -> int:
        if self.size_cap is not None:
            return self.size_cap
        return (m ** self.n_max) ** self.k_max


DEFAULT_BOUNDS = SearchBounds()


@dataclass(frozen=True)
class Derivation:
    """Recipe for one closure member: which powers were multiplied, the
    carrier it was restricted to, and the partition it was collapsed by."""

    powers: tuple[int, ...]
    carrier: Word
    partition: tuple[Word, ...]

    def describe(self) -> str:
        powers = "x".join(f"B^[{n}]" for n in self.powers)
        carrier = ",".join(str(s) for s in self.carrier)
        partition = "|".join(",".join(str(x) for x in block) for block in self.partition)
        return f"{powers}; carrier {carrier}; classes {partition}"


class _Powers:
    """Iterative powers of one generator and their products, in one table
    keyed by exponent tuple: (n,) is B^[n]; each is built once."""

    def __init__(self, generator: LocalAlgebra, caps: Caps) -> None:
        self.generator = generator
        self.caps = caps
        self._built: dict[tuple[int, ...], LocalAlgebra] = {}

    def product(self, exponents: Sequence[int]) -> LocalAlgebra:
        """B^[n_1] x ... x B^[n_k]; a single factor is B^[n_1] itself."""
        key = tuple(exponents)
        if key not in self._built:
            self._built[key] = (
                ca_core.iterative_power(self.generator, key[0], self.caps) if len(key) == 1
                else ca_core.product([self.product((n,)) for n in key], self.caps))
        return self._built[key]


def replay_derivation(generator: LocalAlgebra, derivation: Derivation,
                      caps: Caps = DEFAULT_CAPS) -> LocalAlgebra:
    """Rebuild the algebra a derivation describes, from scratch."""
    algebra = _Powers(generator, caps).product(derivation.powers)
    algebra = ca_core.restrict(algebra, derivation.carrier)
    return ca_core.quotient(Congruence(algebra, derivation.partition))


@dataclass(frozen=True)
class ClosureMember:
    algebra: LocalAlgebra
    derivation: Derivation

    @property
    def size(self) -> int:
        return self.algebra.m


@dataclass(frozen=True)
class ClosureInventory:
    """Deduplicated closure members, each tagged with one derivation.

    No two members are isomorphic; `complete` is False when some branch
    was cut off by a cap, in which case the inventory is a sound but
    possibly partial listing.
    """

    generator: LocalAlgebra
    bounds: SearchBounds
    members: tuple[ClosureMember, ...]
    complete: bool

    def sizes(self) -> list[int]:
        return sorted({member.size for member in self.members})

    def members_of_size(self, size: int) -> list[ClosureMember]:
        return [member for member in self.members if member.size == size]


def _isomorphism(a: LocalAlgebra, b: LocalAlgebra, caps: Caps) -> Word | None:
    """The isomorphism ladder shared by dedup and verdict search:
    fingerprints, table equality, the affine conjugacy fast path, then
    backtracking search, with `iso_cap` raised to the size compared."""
    # the fingerprint carries m and r, and equal tables have equal ones
    if ca_core.algebra_fingerprint(a) != ca_core.algebra_fingerprint(b):
        return None
    if a.table == b.table:
        return tuple(range(a.m))
    # m > 1 here, since all 1-state tables of one radius are equal
    form_a = affine_ca._affine_form(a)
    if form_a is not None and (form_b := affine_ca._affine_form(b)) is not None:
        witness = affine_ca.affine_isomorphism(form_a, form_b, caps)
        if witness is not None:
            return witness
    return ca_core.are_isomorphic(a, b, caps.scaled_to(a.m))


_INVENTORY_CACHE: dict[tuple, ClosureInventory] = {}


def closure_members(generator: LocalAlgebra, bounds: SearchBounds = DEFAULT_BOUNDS,
                    caps: Caps = DEFAULT_CAPS) -> ClosureInventory:
    """Generate the bounded closure, applying the operators in the
    normal-form order: powers, then products, then subalgebras, then
    quotients.  Members are deduplicated up to isomorphism and keep the
    first derivation that produced them; generation order is fixed, so
    the inventory is deterministic.  It is cached per (generator, bounds,
    caps) call: a repeated call returns the same object, with its bounds.

    The member registry (fingerprint buckets, then `_isomorphism`) is the
    only dedup, and it also skips a restriction isomorphic to a member
    R1/theta before its congruences are enumerated.  That loses nothing:
    each of its quotients is isomorphic to some R1/psi with psi >= theta,
    registered when R1 was enumerated in full, and its congruence lattice
    is an interval of Con(R1), so it hits no cap that R1's did not.
    """
    cache_key = (generator, bounds, caps)
    cached = _INVENTORY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    m = generator.m
    limit = bounds.n_max * bounds.k_max  # the largest exponent total within the bounds
    top = 0  # the largest exponent total whose product's table fits table_cap
    while top < limit and (m ** (top + 1)) ** generator.arity <= caps.table_cap:
        top += 1

    def within_size_cap(total: int) -> bool:
        return bounds.size_cap is None or m ** total <= bounds.size_cap

    # skipping by the stated bounds is not incompleteness; only internal
    # cap truncation makes the inventory partial, and the smallest product
    # that table_cap cuts off has exponent total top + 1
    complete = not (top < limit and within_size_cap(top + 1))
    powers = _Powers(generator, caps)

    members: dict[LocalAlgebra, ClosureMember] = {}  # by value: equal ones need no fingerprint
    by_fingerprint: dict[tuple, list[LocalAlgebra]] = {}

    def known(algebra: LocalAlgebra) -> bool:
        return algebra in members or any(
            _isomorphism(member, algebra, caps) is not None
            for member in by_fingerprint.get(ca_core.algebra_fingerprint(algebra), ()))

    def append(algebra: LocalAlgebra, derivation: Derivation) -> None:
        by_fingerprint.setdefault(ca_core.algebra_fingerprint(algebra), []).append(algebra)
        members[algebra] = ClosureMember(algebra, derivation)

    for k in range(1, min(bounds.k_max, top) + 1):
        for multiset in itertools.combinations_with_replacement(
                range(1, min(bounds.n_max, top) + 1), k):
            if sum(multiset) > top or not within_size_cap(sum(multiset)):
                continue
            prod = powers.product(multiset)
            # gates raised to the product also cover its restrictions
            scaled = caps.scaled_to(prod.m)
            try:
                carriers = ca_core.enumerate_subalgebras(prod, scaled)
            except CapExceeded:
                complete = False
                continue
            for carrier in carriers:
                restricted = ca_core.restrict(prod, carrier)
                if known(restricted):
                    continue
                try:
                    congruences = ca_core.enumerate_congruences(restricted, scaled)
                except CapExceeded:
                    complete = False
                    continue
                # congruences[0] is the discrete one, whose quotient is `restricted`
                append(restricted, Derivation(multiset, carrier, congruences[0].blocks))
                for congruence in congruences[1:]:
                    if not known(algebra := ca_core.quotient(congruence)):
                        append(algebra, Derivation(multiset, carrier, congruence.blocks))

    inventory = ClosureInventory(generator, bounds, tuple(members.values()), complete)
    _INVENTORY_CACHE[cache_key] = inventory
    return inventory


@dataclass(frozen=True)
class SimulationWitness:
    """A replayable chain certifying a Yes verdict."""

    derivation: Derivation
    isomorphism: Word

    def describe(self) -> str:
        return (self.derivation.describe()
                + "; iso " + ",".join(str(x) for x in self.isomorphism))


@dataclass(frozen=True)
class SimulationVerdict:
    outcome: str  # "yes" | "no" | "unknown"
    witness: SimulationWitness | None = None
    reason: str | None = None
    bounds: SearchBounds | None = None

    def __post_init__(self) -> None:
        if self.outcome not in ("yes", "no", "unknown"):
            raise ValueError("outcome must be yes, no or unknown")
        if self.outcome == "yes" and self.witness is None:
            raise ValueError("Yes verdicts require a witness")
        if self.outcome == "no" and self.reason is None:
            raise ValueError("No verdicts require a reason")

    @property
    def is_yes(self) -> bool:
        return self.outcome == "yes"

    @property
    def is_no(self) -> bool:
        return self.outcome == "no"


def replay_witness(target: LocalAlgebra, simulator: LocalAlgebra,
                   witness: SimulationWitness, caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-run every step of a witness chain and confirm it lands on the
    target's table exactly."""
    member = replay_derivation(simulator, witness.derivation, caps)
    return affine_ca._bijection_conjugates(member, target, witness.isomorphism)


def _full_carrier(algebra: LocalAlgebra) -> Word:
    return tuple(range(algebra.m))


def _partitions_with_parts(total: int, coprime_to: int | None = None) -> Iterator[tuple[int, ...]]:
    """Multisets of positive parts summing to `total`, descending parts;
    optionally only parts not divisible by `coprime_to`."""

    def recurse(remaining: int, largest: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            if coprime_to is not None and part % coprime_to == 0:
                continue
            for rest in recurse(remaining - part, part):
                yield (part,) + rest

    return recurse(total, total)


def _power_product_match(powers: _Powers, target: LocalAlgebra, exponent: int,
                         coprime_to: int | None = None
                         ) -> tuple[tuple[int, ...], Word] | None:
    """The first multiset of exponents summing to `exponent` (in
    `_partitions_with_parts` order) whose product of powers is
    isomorphic to `target`, with the isomorphism, or None."""
    for multiset in _partitions_with_parts(exponent, coprime_to):
        iso = _isomorphism(powers.product(multiset), target, powers.caps)
        if iso is not None:
            return multiset, iso
    return None


def simulates(target: LocalAlgebra, simulator: LocalAlgebra,
              bounds: SearchBounds = DEFAULT_BOUNDS,
              caps: Caps = DEFAULT_CAPS) -> SimulationVerdict:
    """Decide whether `simulator` simulates `target`.

    Singleton targets are always simulated.  A doubly bijective
    canonical additive simulator is decided exactly: its closure is the
    products of its iterative powers (singletons aside), and since the
    p^k-fold powers split, it suffices to try every multiset of powers
    coprime to p whose sizes multiply to the target's state count.
    Everything else falls back to bounded closure search, which can
    return Yes with a witness or Unknown, never No.
    """
    if target.r != simulator.r:
        raise ValueError("simulation is defined between algebras of equal radius")
    if target.m == 1:
        witness = SimulationWitness(
            Derivation((1,), _full_carrier(simulator), (_full_carrier(simulator),)), (0,))
        return SimulationVerdict("yes", witness=witness)
    if simulator.m == 1:
        return SimulationVerdict(
            "no", reason="a singleton simulator generates only singleton algebras")
    canonical = affine_ca.fit_canonical_additive(simulator)
    if canonical is not None and affine_ca.is_doubly_bijective(canonical):
        return _decide_doubly_bijective(target, simulator, canonical, caps)
    inventory = closure_members(simulator, bounds, caps)
    for member in inventory.members_of_size(target.m):
        iso = _isomorphism(member.algebra, target, caps)
        if iso is not None:
            return SimulationVerdict(
                "yes", witness=SimulationWitness(member.derivation, iso))
    return SimulationVerdict(
        "unknown", bounds=bounds,
        reason="no member of the bounded closure matches; bounded search cannot refute")


def _decide_doubly_bijective(target: LocalAlgebra, simulator: LocalAlgebra,
                             canonical: CanonicalAdditive, caps: Caps) -> SimulationVerdict:
    p = canonical.p
    exponent = affine_ca._dimension_over(target.m, p)
    if exponent is None:
        return SimulationVerdict(
            "no", reason=(
                f"every member of the simulator's closure has p^k states (p={p}); "
                f"{target.m} is not such a power"))
    require(target.m ** target.arity <= caps.table_cap,
            f"target table of {target.m ** target.arity} entries exceeds the cap")
    match = _power_product_match(_Powers(simulator, caps), target, exponent, coprime_to=p)
    if match is not None:
        multiset, iso = match
        derivation = Derivation(multiset, _full_carrier(target),
                                tuple((s,) for s in range(target.m)))
        return SimulationVerdict("yes", witness=SimulationWitness(derivation, iso))
    return SimulationVerdict(
        "no", reason=(
            "the simulator is doubly bijective canonical additive, so its closure is "
            "exactly the products of its iterative powers plus singletons; no multiset "
            f"of powers coprime to {p} with total exponent {exponent} is isomorphic to "
            "the target"))


@dataclass(frozen=True)
class CanonicalClass:
    """Capacity class of a radius-1 canonical additive rule."""

    rule: CanonicalAdditive
    kind: str  # "constant" | "projection" | "characterized"
    coordinate: int | None
    doubly_bijective: bool
    caveat: str | None

    def describe(self) -> str:
        if self.kind == "constant":
            return "constant mappings class"
        if self.kind == "projection":
            return f"projection to coordinate {self.coordinate} class"
        return "HSPfinXi(B) = PfinXi(B) + SING_r"


def classify_canonical(rule: CanonicalAdditive) -> CanonicalClass:
    """Place a radius-1 canonical additive rule in its capacity class:
    constant rules, single-coordinate rules, and rules with at least two
    nonzero coefficients, whose closure is the products of their powers.
    Rules with a zero center coefficient carry a caveat: they are not
    doubly bijective, so the exact decision procedure does not apply."""
    if rule.r != 1:
        raise ValueError("the capacity classification covers radius 1 only")
    support = rule.support()
    if not support:
        return CanonicalClass(rule, "constant", None, False, None)
    if len(support) == 1:
        return CanonicalClass(rule, "projection", support[0], False, None)
    db = affine_ca.is_doubly_bijective(rule)
    caveat = None
    if not db:
        caveat = ("center coefficient is zero: not doubly bijective, so membership "
                  "is checked by bounded search instead of the exact procedure")
    return CanonicalClass(rule, "characterized", None, db, caveat)


@dataclass(frozen=True)
class CharacterizationItem:
    derivation: Derivation
    size: int
    ok: bool
    matched_powers: tuple[int, ...] | None
    isomorphism: Word | None
    note: str


@dataclass(frozen=True)
class CharacterizationReport:
    """Per-member confirmation that a bounded closure stays inside the
    products of iterative powers (plus singletons)."""

    rule: CanonicalAdditive
    bounds: SearchBounds
    doubly_bijective: bool
    complete: bool
    items: tuple[CharacterizationItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def violations(self) -> list[CharacterizationItem]:
        return [item for item in self.items if not item.ok]


def verify_characterization(rule: CanonicalAdditive, bounds: SearchBounds = DEFAULT_BOUNDS,
                            caps: Caps = DEFAULT_CAPS) -> CharacterizationReport:
    """Check, member by member, that the bounded closure of a canonical
    additive rule consists of products of its iterative powers and
    singletons.  For doubly bijective rules this is the characterization
    theorem and every item passes; rules that merely satisfy the
    bijective condition can fail, and the failing member's derivation
    names the offending subalgebra or quotient.
    """
    if len(rule.support()) < 2:
        raise ValueError("the characterization check needs at least two nonzero coefficients")
    generator = rule.to_table()
    inventory = closure_members(generator, bounds, caps)
    p = rule.p
    powers = _Powers(generator, caps)
    items = []
    for member in inventory.members:
        if member.size == 1:
            items.append(CharacterizationItem(
                member.derivation, 1, True, (), None, "singleton"))
            continue
        exponent = affine_ca._dimension_over(member.size, p)
        if exponent is None:
            items.append(CharacterizationItem(
                member.derivation, member.size, False, None, None,
                f"size {member.size} is not a power of {p}"))
            continue
        match = _power_product_match(powers, member.algebra, exponent)
        if match is None:
            items.append(CharacterizationItem(
                member.derivation, member.size, False, None, None,
                "isomorphic to no product of iterative powers"))
        else:
            matched, iso = match
            items.append(CharacterizationItem(
                member.derivation, member.size, True, matched, iso,
                "x".join(f"B^[{n}]" for n in matched)))
    return CharacterizationReport(rule, bounds, affine_ca.is_doubly_bijective(rule),
                                  inventory.complete, tuple(items))


@dataclass(frozen=True)
class AffineClosureItem:
    derivation: Derivation
    size: int
    affine: bool
    method: str
    witnesses: tuple[int | None, int | None]
    preserved: bool
    note: str

    @property
    def ok(self) -> bool:
        return self.affine and self.preserved


@dataclass(frozen=True)
class AffineClosureReport:
    """Member-by-member affinity check of a bounded closure.

    `applicable` records whether the generator has bijective outermost
    effective components on both sides (with the left one strictly left
    of the right one); when it does not, the report exists to exhibit
    the members or congruences that break affinity."""

    algebra: AffineAlgebra
    bounds: SearchBounds
    applicable: bool
    left: int | None
    right: int | None
    complete: bool
    items: tuple[AffineClosureItem, ...]

    @property
    def passed(self) -> bool:
        return self.applicable and self.complete and all(item.ok for item in self.items)

    def violations(self) -> list[AffineClosureItem]:
        return [item for item in self.items if not item.ok]


def _certify_affine(member: ClosureMember, p: int, caps: Caps) -> tuple[bool, str]:
    """Decide whether a closure member is affine over F_p up to
    relabeling, and name the rung that decided it: size not a power of
    p, constant table, direct fit, then a relabeling search on members
    of at most `relabel_cap` states.  Singletons never reach it."""
    algebra = member.algebra
    if affine_ca._dimension_over(algebra.m, p) is None:
        return False, f"size {algebra.m} is not a power of {p}"
    first = algebra.table[0]
    if all(x == first for x in algebra.table):
        return True, "constant table"
    if affine_ca._affine_form(algebra) is not None:  # p is the least prime dividing m
        return True, "direct fit"
    if algebra.m <= caps.relabel_cap:
        if affine_ca.is_affine_up_to_iso(algebra, p, caps) is not None:
            return True, "relabel search"
        return False, "no relabeling yields an affine table"
    return False, "affinity could not be certified within caps"


def verify_affine_closure(algebra: AffineAlgebra, bounds: SearchBounds = DEFAULT_BOUNDS,
                          caps: Caps = DEFAULT_CAPS) -> AffineClosureReport:
    """Check that every bounded closure member of an affine rule is
    affine up to isomorphism with the generator's permutivity witnesses
    preserved.

    `_certify_affine` decides each member by a direct fit before any
    relabeling search.  A coset carrier in ascending order, and a coset
    partition's blocks by least element, list the cosets in the order of
    their reduced coordinates, so members built from cosets of invariant
    subspaces fit directly without replaying their derivations.

    For generators with bijective outermost components (left strictly
    left of right) this is the closure theorem and the report passes.
    For generators violating that condition the report is marked not
    applicable and its violation items exhibit why: non-affine members
    or congruences that are not coset partitions.
    """
    classification = affine_ca.classify_affine(algebra)
    left, right = classification.left_witness, classification.right_witness
    applicable = classification.in_witness_class
    generator = affine_ca.to_table(algebra, caps)
    inventory = closure_members(generator, bounds, caps)
    items = []
    for member in inventory.members:
        if member.size == 1:
            items.append(AffineClosureItem(
                member.derivation, 1, True, "singleton", (None, None), True, "singleton"))
            continue
        affine, method = _certify_affine(member, algebra.p, caps)
        witnesses = ca_core.permutivity(member.algebra)
        preserved = affine and witnesses == (left, right)
        items.append(AffineClosureItem(
            member.derivation, member.size, affine, method, witnesses, preserved, method))
    return AffineClosureReport(algebra, bounds, applicable, left, right,
                               inventory.complete, tuple(items))
