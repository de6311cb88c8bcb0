import gc
import random

import pytest

from casim import affine_ca, ca_core
from casim.affine_ca import (AffineAlgebra, _bijection_conjugates, _dimension_over,
                             _relabeled_table, canonical_additive, fit_affine, to_table)
from casim.caps import DEFAULT_CAPS, CapExceeded, Caps
from casim.ca_core import (LocalAlgebra, are_isomorphic, eca, enumerate_congruences,
                           enumerate_subalgebras, iterative_power, product, quotient,
                           restrict, singleton)
from casim.fp_linalg import FpMatrix, smallest_prime_factor
from casim.simulation import (SearchBounds, _isomorphism, classify_canonical, closure_members,
                              replay_derivation, replay_witness, simulates,
                              verify_affine_closure, verify_characterization)
from conftest import (IsoMatcherOracle, closure_members_brute_oracle, closure_members_oracle,
                      coset_construction_oracle, random_local_algebra)

SMALL = SearchBounds(1, 1)


@pytest.mark.parametrize("bounds", [(0, 1), (1, 0), (-2, 2), (2, 2, 0), (2, 2, -3)])
def test_search_bounds_reject_empty_searches(bounds):
    with pytest.raises(ValueError, match="search bounds need"):
        SearchBounds(*bounds)


def test_closure_members_incomplete_past_table_cap():
    # B^[3] of ECA 110 has 8^3 = 512 table entries, above table_cap 200;
    # B^[1] (8 entries) and B^[2] (64 entries) stay within it
    caps = Caps(table_cap=200)
    cut = closure_members(eca(110), SearchBounds(3, 1), caps)
    within = closure_members(eca(110), SearchBounds(2, 1), caps)
    assert not cut.complete and within.complete
    assert cut.members == within.members


def test_isomorphism_lifts_iso_cap_to_the_size_compared(rng):
    # 12 states is above the default iso_cap of 10, and 12 is no prime
    # power, so the ladder reaches the backtracking search; the ladder
    # raises the gate itself and returns the lex-least witness
    a = random_local_algebra(rng, 12)
    sigma = list(range(12))
    rng.shuffle(sigma)
    b = _relabeled_table(a, sigma)
    assert a.table != b.table
    witness = _isomorphism(a, b, DEFAULT_CAPS)
    assert witness == are_isomorphic(a, b, Caps(iso_cap=12))
    assert _bijection_conjugates(a, b, witness)
    with pytest.raises(CapExceeded):
        are_isomorphic(a, b, DEFAULT_CAPS)


def test_equal_tables_of_different_shapes_are_not_isomorphic():
    table = (0, 1) * 4
    a, b = LocalAlgebra(8, 0, table), LocalAlgebra(2, 1, table)
    assert ca_core.algebra_fingerprint(a) != ca_core.algebra_fingerprint(b)
    assert are_isomorphic(a, b) is None
    assert _isomorphism(a, b, DEFAULT_CAPS) is None


def _ladder_pairs(rng):
    """(rung, a, b) pairs that reach every rung of the ladder: relabelled
    F_2^2 and F_3 affine tables (every permutation of their states is an
    affine map, so both tables fit), relabelled tables that fit no affine
    form, equal tables, and tables whose fingerprints differ."""
    for _ in range(5):
        for p, d in ((2, 2), (3, 1)):
            a = to_table(_random_affine(rng, p, d))
            yield "affine", a, _relabeled_table(a, rng.sample(range(a.m), a.m))
        for m in (3, 4):
            a = random_local_algebra(rng, m)
            yield "search", a, _relabeled_table(a, rng.sample(range(m), m))
        yield "equal", a, LocalAlgebra(a.m, a.r, a.table)
        yield "fingerprint", a, random_local_algebra(rng, a.m)
    a = random_local_algebra(rng, 12)  # above the default iso_cap
    yield "search", a, _relabeled_table(a, rng.sample(range(12), 12))


def test_isomorphism_matches_the_ladder_oracle(rng):
    reached = set()
    for rung, a, b in _ladder_pairs(rng):
        witness = _isomorphism(a, b, DEFAULT_CAPS)
        assert witness == IsoMatcherOracle(DEFAULT_CAPS).find(a, b)
        forms = affine_ca._affine_form(a), affine_ca._affine_form(b)
        if rung == "affine":
            assert witness == affine_ca.affine_isomorphism(*forms, DEFAULT_CAPS) is not None
        elif rung == "search":
            assert forms == (None, None)
            assert witness == are_isomorphic(a, b, Caps(iso_cap=a.m)) is not None
        elif rung == "equal":
            assert a is not b and witness == tuple(range(a.m))
        else:
            assert ca_core.algebra_fingerprint(a) != ca_core.algebra_fingerprint(b)
            assert witness is None
        assert witness is None or _bijection_conjugates(a, b, witness)
        reached.add(rung)
    assert reached == {"affine", "search", "equal", "fingerprint"}


def test_affine_form_is_the_fit_over_the_least_prime(rng):
    tables = [to_table(_random_affine(rng, p, d)) for p, d in ((2, 1), (2, 2), (3, 1), (2, 3))]
    tables += [random_local_algebra(rng, m) for m in (2, 3, 4, 5, 6, 8, 9, 12)]
    fitted = 0
    for algebra in tables:
        p = smallest_prime_factor(algebra.m)
        expected = fit_affine(algebra, p) if _dimension_over(algebra.m, p) else None
        assert affine_ca._affine_form(algebra) == expected
        fitted += expected is not None
    assert fitted >= 4


def _count_fits(monkeypatch):
    """Record the algebra of every `affine_ca.fit_affine` call."""
    fitted = []
    fit = affine_ca.fit_affine

    def counted(algebra, p):
        fitted.append(algebra)
        return fit(algebra, p)

    monkeypatch.setattr(affine_ca, "fit_affine", counted)
    return fitted


def test_closure_and_affine_report_fit_no_member_twice(monkeypatch):
    # the ladder fits a member of ECA 105's closure while it deduplicates
    # (ECA 150's members all match by value, with no fit); the report's
    # direct fit then reads the same memo
    rule, bounds = fit_affine(eca(105), 2), SearchBounds(2, 2, 16)
    fitted = _count_fits(monkeypatch)
    inventory = closure_members(eca(105), bounds)
    in_ladder = list(fitted)
    assert verify_affine_closure(rule, bounds).passed
    members = [member.algebra for member in inventory.members]
    assert any(a in members for a in in_ladder)
    assert all(sum(a == member for a in fitted) <= 1 for member in members)


def test_simulates_fits_an_equal_simulator_once(monkeypatch):
    simulator, target = eca(150), product([eca(150), eca(150)])
    fitted = _count_fits(monkeypatch)
    assert simulates(target, simulator).is_yes
    assert simulates(target, LocalAlgebra(2, 1, simulator.table)).is_yes
    assert sum(a == simulator for a in fitted) == 1


def test_affine_form_memo_drops_a_collected_algebra():
    algebra = LocalAlgebra(2, 1, eca(150).table)
    copy = LocalAlgebra(2, 1, eca(150).table)
    assert affine_ca._affine_form(algebra) is not None
    assert copy in affine_ca._AFFINE_FORMS
    del algebra
    gc.collect()
    assert copy not in affine_ca._AFFINE_FORMS


def test_closure_of_singleton():
    inventory = closure_members(singleton(1), SMALL)
    assert [m.size for m in inventory.members] == [1]
    assert inventory.complete


def test_closure_of_eca150_small():
    inventory = closure_members(eca(150), SMALL)
    assert inventory.sizes() == [1, 2]
    two = inventory.members_of_size(2)
    assert len(two) == 1 and two[0].algebra.table == eca(150).table


def test_closure_of_z4_contains_parity_quotient(z4_rule):
    inventory = closure_members(z4_rule, SMALL)
    assert any(m.size == 2 and are_isomorphic(m.algebra, eca(90)) is not None
               for m in inventory.members)


def test_closure_members_deduplicated_and_replayable(z4_rule):
    for generator in (eca(150), z4_rule):
        inventory = closure_members(generator, SMALL)
        members = inventory.members
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if a.size == b.size and a.size <= 8:
                    assert are_isomorphic(a.algebra, b.algebra) is None
        for member in members:
            rebuilt = replay_derivation(generator, member.derivation)
            assert rebuilt.table == member.algebra.table


def test_closure_is_closed_at_bounds(z4_rule):
    # applying S or H to any member stays inside the inventory
    for generator in (eca(150), eca(90), z4_rule):
        inventory = closure_members(generator, SMALL)
        tables = inventory.members
        for member in tables:
            algebra = member.algebra
            for carrier in enumerate_subalgebras(algebra):
                image = restrict(algebra, carrier)
                assert any(are_isomorphic(image, other.algebra) is not None
                           for other in tables if other.size == image.m)
            for congruence in enumerate_congruences(algebra):
                image = quotient(congruence)
                assert any(are_isomorphic(image, other.algebra) is not None
                           for other in tables if other.size == image.m)


def _outcome(inventory):
    """Members, in order, with their first derivations, `complete` and
    `bounds`."""
    return inventory.members, inventory.complete, inventory.bounds


@pytest.mark.parametrize("m, bounds", [(2, (2, 1)), (2, (1, 2)), (2, (2, 2, 8)), (3, (1, 1))])
def test_closure_matches_brute_force_oracle(m, bounds):
    rng = random.Random(1000 * m + sum(bounds))
    for _ in range(6):
        generator = random_local_algebra(rng, m)
        assert (_outcome(closure_members(generator, SearchBounds(*bounds)))
                == _outcome(closure_members_brute_oracle(generator, SearchBounds(*bounds))))


def _count_congruence_enumerations(monkeypatch):
    """Count `enumerate_congruences` calls, and the calls among them that
    raise CapExceeded; the inventory cache starts empty in every test."""
    calls = {"all": 0, "capped": 0}
    enumerate_all = ca_core.enumerate_congruences

    def counted(algebra, caps):
        calls["all"] += 1
        try:
            return enumerate_all(algebra, caps)
        except CapExceeded:
            calls["capped"] += 1
            raise

    monkeypatch.setattr(ca_core, "enumerate_congruences", counted)
    return calls


@pytest.mark.parametrize("number, bounds, skipped", [
    (7, (2, 1), 2), (13, (2, 1), 2), (41, (2, 2, 8), 1), (57, (2, 2, 8), 1)])
def test_closure_skips_restrictions_isomorphic_to_a_member(monkeypatch, number, bounds,
                                                           skipped):
    # each skipped restriction is isomorphic to a member but has another
    # table, so the exact-table dedups of the oracle enumerate it
    calls = _count_congruence_enumerations(monkeypatch)
    oracle = closure_members_oracle(eca(number), SearchBounds(*bounds))
    oracle_calls, calls["all"] = calls["all"], 0
    assert _outcome(closure_members(eca(number), SearchBounds(*bounds))) == _outcome(oracle)
    assert calls["all"] == oracle_calls - skipped


@pytest.mark.parametrize("number", [60, 150])
def test_closure_with_a_product_equal_to_a_power(number):
    generator = eca(number)
    assert iterative_power(generator, 2).table == product([generator, generator]).table
    bounds = SearchBounds(2, 2, 16)
    assert (_outcome(closure_members(generator, bounds))
            == _outcome(closure_members_oracle(generator, bounds)))


def test_closure_with_capped_congruence_enumeration(monkeypatch):
    calls = _count_congruence_enumerations(monkeypatch)
    bounds, caps = SearchBounds(2, 2, 8), Caps(lattice_cap=3)
    inventory = closure_members(eca(9), bounds, caps)
    assert calls["capped"] and not inventory.complete
    assert _outcome(inventory) == _outcome(closure_members_oracle(eca(9), bounds, caps))


@pytest.mark.parametrize("table_cap, top", [(64, 2), (4096, 4)])
@pytest.mark.parametrize("bounds", [(10**5, 2), (2, 10**5), (10**5, 10**5), (10**5, 2, 8)])
def test_closure_with_huge_bounds_is_the_closure_clipped_to_the_table_cap(table_cap, top,
                                                                          bounds):
    # ECA 90's products of exponent total above `top` exceed table_cap,
    # so huge bounds search exactly the clipped ones, and stay incomplete
    # where a product of total top + 1 lies within them
    n_max, k_max, *size_cap = bounds
    caps = Caps(table_cap=table_cap)
    inventory = closure_members(eca(90), SearchBounds(*bounds), caps)
    oracle = closure_members_oracle(
        eca(90), SearchBounds(min(n_max, top), min(k_max, top), *size_cap), caps)
    assert (inventory.members, inventory.complete) == (oracle.members, oracle.complete)


def test_simulates_singleton_always():
    for number in (0, 30, 110):
        verdict = simulates(singleton(1), eca(number))
        assert verdict.is_yes
        assert replay_witness(singleton(1), eca(number), verdict.witness)


def test_singleton_simulates_nothing_else():
    verdict = simulates(eca(90), singleton(1))
    assert verdict.is_no


def test_simulates_radius_mismatch():
    with pytest.raises(ValueError):
        simulates(LocalAlgebra(2, 0, (0, 1)), eca(90))


def test_simulates_quotient_witness(z4_rule):
    verdict = simulates(eca(90), z4_rule, SMALL)
    assert verdict.is_yes
    assert replay_witness(eca(90), z4_rule, verdict.witness)


def test_exact_path_incomparability():
    no = simulates(eca(90), eca(150))
    assert no.is_no and "doubly bijective" in no.reason
    other = simulates(eca(150), eca(90), SearchBounds(2, 2, 8))
    assert other.outcome in ("no", "unknown")
    assert simulates(eca(60), eca(150)).is_no


def test_exact_path_reflexive_and_power():
    verdict = simulates(eca(150), eca(150))
    assert verdict.is_yes and verdict.witness.derivation.powers == (1,)
    four = product([eca(150), eca(150)])
    verdict = simulates(four, eca(150))
    assert verdict.is_yes
    assert replay_witness(four, eca(150), verdict.witness)


def test_exact_and_bounded_paths_agree():
    # where the exact path says yes, bounded search must find a witness too
    for target in (eca(150), product([eca(150), eca(150)])):
        exact = simulates(target, eca(150))
        assert exact.is_yes
        bounded = closure_members(eca(150), SearchBounds(2, 2))
        assert any(m.size == target.m and are_isomorphic(m.algebra, target) is not None
                   for m in bounded.members)


def test_simulates_reflexivity_sampled(rng):
    for _ in range(5):
        algebra = random_local_algebra(rng, rng.randrange(2, 4))
        verdict = simulates(algebra, algebra, SMALL)
        assert verdict.is_yes
        assert replay_witness(algebra, algebra, verdict.witness)


def test_simulates_transitive_consequence(z4_rule):
    big = product([z4_rule, eca(150)])
    assert simulates(z4_rule, big, SMALL).is_yes
    assert simulates(eca(90), z4_rule, SMALL).is_yes
    assert simulates(eca(90), big, SearchBounds(1, 1)).is_yes


def test_size_spectrum_of_doubly_bijective_closure():
    inventory = closure_members(eca(150), SearchBounds(2, 2))
    for member in inventory.members:
        size = member.size
        while size % 2 == 0:
            size //= 2
        assert size == 1


def test_classify_canonical_cases():
    record = classify_canonical(canonical_additive(3, [0, 0, 0]))
    assert record.kind == "constant"
    record = classify_canonical(canonical_additive(3, [0, 1, 0]))
    assert record.kind == "projection" and record.coordinate == 0
    record = classify_canonical(canonical_additive(3, [0, 0, 2]))
    assert record.kind == "projection" and record.coordinate == 1
    record = classify_canonical(canonical_additive(3, [2, 1, 1]))
    assert record.kind == "characterized" and record.doubly_bijective
    assert record.doubly_bijective and record.caveat is None
    record = classify_canonical(canonical_additive(3, [2, 0, 1]))
    assert record.kind == "characterized" and not record.doubly_bijective
    assert record.caveat is not None
    with pytest.raises(ValueError):
        classify_canonical(canonical_additive(3, [1, 1, 1, 1, 1]))


def test_characterization_f3_rules_pass():
    for coeffs in ([2, 1, 1], [1, 1, 1], [1, 2, 1]):
        report = verify_characterization(canonical_additive(3, coeffs), SearchBounds(2, 1))
        assert report.passed and report.doubly_bijective


def test_characterization_fails_for_2x_plus_z():
    rule = canonical_additive(3, [2, 0, 1])
    report = verify_characterization(rule, SearchBounds(2, 1))
    assert not report.passed and not report.doubly_bijective
    violations = report.violations()
    assert violations
    witness = violations[0]
    assert witness.derivation.powers == (2,)
    member = replay_derivation(rule.to_table(), witness.derivation)
    target = canonical_additive(3, [1, 1, 1]).to_table()
    assert are_isomorphic(member, target) is not None


def test_characterization_requires_two_coefficients():
    with pytest.raises(ValueError):
        verify_characterization(canonical_additive(3, [0, 1, 0]))


def test_affine_closure_small_bounds():
    report = verify_affine_closure(fit_affine(eca(60), 2), SMALL)
    assert report.passed and (report.left, report.right) == (-1, 0)
    report = verify_affine_closure(fit_affine(eca(150), 2), SMALL)
    assert report.passed and (report.left, report.right) == (-1, 1)


def test_affine_closure_not_applicable_counterexample():
    zero = AffineAlgebra(2, 2, 1, tuple(FpMatrix.zero(2, 2) for _ in range(3)), (0, 0))
    report = verify_affine_closure(zero, SearchBounds(1, 1, 4))
    assert not report.applicable and not report.passed
    assert any(v.size == 3 for v in report.violations())


def test_inventory_cache_returns_identical_object():
    first = closure_members(eca(150), SMALL)
    second = closure_members(eca(150), SMALL)
    assert first is second


def test_inventory_cache_keeps_the_callers_bounds():
    # (2, 2) and (2, 2, 16) search the same products of ECA 150, but each
    # call gets an inventory with its own bounds, and equal bounds share one
    default = closure_members(eca(150), SearchBounds(2, 2))
    capped = closure_members(eca(150), SearchBounds(2, 2, 16))
    assert default.bounds == SearchBounds(2, 2)
    assert capped.bounds == SearchBounds(2, 2, 16)
    assert capped.members == default.members
    assert closure_members(eca(150), SearchBounds(2, 2, None)) is default


def test_closure_fingerprints_no_copy_of_a_member(monkeypatch):
    # most restrictions and quotients of ECA 150's products equal a
    # member; the registry finds those by value, without a fingerprint
    fingerprinted = []
    fingerprint = ca_core.algebra_fingerprint

    def counted(algebra):
        fingerprinted.append(algebra)
        return fingerprint(algebra)

    monkeypatch.setattr(ca_core, "algebra_fingerprint", counted)
    inventory = closure_members(eca(150), SearchBounds(2, 2, 16))
    members = [member.algebra for member in inventory.members]
    copies = [a for a in fingerprinted if a in members and not any(a is m for m in members)]
    assert fingerprinted and copies == []


def test_characterization_builds_each_product_once(monkeypatch):
    # F_3 x + z is not doubly bijective: its 9-state members match no
    # power, so each tries B x B, which one report builds once
    rule = canonical_additive(3, [1, 0, 1])
    bounds = SearchBounds(2, 2, 27)
    closure_members(rule.to_table(), bounds)
    built = []
    product_of = ca_core.product

    def counted(algebras, caps):
        built.append(tuple(algebras))
        return product_of(algebras, caps)

    monkeypatch.setattr(ca_core, "product", counted)
    report = verify_characterization(rule, bounds)
    assert len(report.violations()) > 1
    assert built and len(set(built)) == len(built)


def _random_affine(rng, p, d):
    """Random radius-1 affine rule over F_p^d with at least two nonzero
    components (constant and one-component rules make every subset a
    subalgebra, which is slow and exercises no coset)."""
    while True:
        mats = tuple(FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(d)]
                                            for _ in range(d)]) for _ in range(3))
        if sum(any(any(row) for row in m.entries) for m in mats) >= 2:
            return AffineAlgebra(p, d, 1, mats, tuple(rng.randrange(p) for _ in range(d)))


def test_direct_fit_recovers_every_coset_construction(rng):
    # a coset carrier and a coset partition list their states in the
    # order of reduced coordinates, so replaying a derivation through the
    # coset machinery yields exactly the member's fitted form
    bounds = SearchBounds(1, 2, 16)
    forms, proper = 0, 0
    for p, d in [(2, 1), (3, 1), (2, 2)] * 10:
        rule = _random_affine(rng, p, d)
        generator = to_table(rule)
        inventory = closure_members(generator, bounds)
        report = verify_affine_closure(rule, bounds)
        for member, item in zip(inventory.members, report.items):
            if member.size == 1:
                continue
            form = coset_construction_oracle(member, generator, p)
            if form is None:
                continue
            forms += 1
            proper += len(member.derivation.partition) < len(member.derivation.carrier)
            assert fit_affine(member.algebra, p) == form
            constant = len(set(member.algebra.table)) == 1
            assert item.method == ("constant table" if constant else "direct fit")
    assert forms >= 80 and proper >= 20


def test_affine_closure_methods_of_non_applicable_rule():
    # outermost components [[1,0],[0,0]] are not bijective; six members
    # of size 4 fit no affine table under any relabeling.  The list was
    # recorded while the ladder still had a coset-construction rung.
    mats = tuple(FpMatrix.from_rows(2, rows) for rows in
                 ([[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]))
    report = verify_affine_closure(AffineAlgebra(2, 2, 1, mats, (0, 1)), SearchBounds(1, 2, 16))
    assert not report.applicable and not report.complete
    fit, const, none = "direct fit", "constant table", "no relabeling yields an affine table"
    sizes = {n: f"size {n} is not a power of 2" for n in (3, 5, 6, 7)}
    assert [(item.size, item.method) for item in report.items] == [
        (1, "singleton"), (2, const), (4, fit), (3, sizes[3]), (3, sizes[3]), (2, fit),
        (3, sizes[3]), (4, const), (5, sizes[5]), (4, none), (4, none), (3, sizes[3]),
        (5, sizes[5]), (4, none), (4, none), (3, sizes[3]), (6, sizes[6]), (5, sizes[5]),
        (5, sizes[5]), (4, none), (6, sizes[6]), (5, sizes[5]), (5, sizes[5]), (4, fit),
        (6, sizes[6]), (5, sizes[5]), (5, sizes[5]), (4, none), (7, sizes[7]), (6, sizes[6]),
        (6, sizes[6]), (5, sizes[5]), (7, sizes[7]), (6, sizes[6]), (6, sizes[6]),
        (5, sizes[5]), (8, fit), (7, sizes[7]), (7, sizes[7]), (6, sizes[6]), (5, sizes[5])]
