import hashlib
import itertools
import random
import re

import pytest

from casim.affine_ca import (AffineAlgebra, CanonicalAdditive, CoefficientProfile,
                             affine_isomorphism,
                             canonical_additive, check_structure, classify_affine,
                             component_matrices, e0_evolution,
                             fit_affine, fit_canonical_additive, interleaving_bijection,
                             is_affine_up_to_iso, is_doubly_bijective, quotient_affine,
                             subalgebra_affine, to_table, verify_splitting,
                             _affine_outputs, _bijection_conjugates, _relabeled_table,
                             _verify_coset_embedding)
from casim.ca_core import (Congruence, LocalAlgebra, are_isomorphic, eca, enumerate_congruences,
                           enumerate_subalgebras, evolve, iterative_power, product, quotient)
from casim.caps import DEFAULT_CAPS, CapExceeded, Caps
from casim.fp_linalg import FpMatrix, Subspace, common_invariant_subspaces
from conftest import (all_canonical_rules, apply_vectors_oracle, coset_congruence_oracle,
                      component_matrices_oracle, doubly_bijective_rules, is_invariant,
                      profile_value_at, random_affine_f2, random_local_algebra,
                      relabel_scan_oracle)


def test_to_table_eca_cases():
    assert to_table(canonical_additive(2, [1, 1, 1])).table == eca(150).table
    assert to_table(canonical_additive(2, [1, 0, 1])).table == eca(90).table
    zero = AffineAlgebra(2, 1, 1, tuple(FpMatrix.zero(2, 1) for _ in range(3)), (0,))
    assert to_table(zero).table == (0,) * 8


def _outputs_oracle(algebra, vectors):
    return [algebra.encode_state(apply_vectors_oracle(algebra, [vectors[x] for x in nb]))
            for nb in itertools.product(range(len(vectors)), repeat=algebra.arity)]


def test_to_table_matches_apply_vectors_oracle():
    rng = random.Random(7)
    picker = random.Random(70)
    cases = [(p, d, r) for p, d, r in itertools.product((2, 3, 5), range(1, 4), range(3))
             if (p ** d) ** (2 * r + 1) <= 20000]
    for p, d, r in cases + [(2, 12, 0)]:  # the last rule has 4096 states
        m = p ** d
        mats = tuple(FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(d)]
                                            for _ in range(d)]) for _ in range(2 * r + 1))
        constant = (0,) * d
        while not any(constant):
            constant = tuple(rng.randrange(p) for _ in range(d))
        algebra = AffineAlgebra(p, d, r, mats, constant)
        table = to_table(algebra)
        assert (table.m, table.r) == (m, r)
        states = [algebra.decode_state(v) for v in range(m)]
        assert list(table.table) == _outputs_oracle(algebra, states)
        # sublists with a repeat, as the coset embedding passes them
        for k in (1, 2, 3):
            picks = [picker.choice(states) for _ in range(k)]
            vectors = picks + picks[:1]
            assert _affine_outputs(algebra, vectors) == _outputs_oracle(algebra, vectors)


def test_affine_outputs_match_oracle_on_decide_tables():
    """The affine evaluator on the largest tables the decide benchmark
    fits: F_3 (2,1,1)'s B^[2] x B^[1] (27 states) and ECA 150's B^[5]
    (32 states), against the neighborhood-by-neighborhood oracle and the
    truth tables of the powers."""
    rule = to_table(canonical_additive(3, [2, 1, 1]))
    for table, p in ((product([iterative_power(rule, 2), rule]), 3),
                     (iterative_power(eca(150), 5), 2)):
        algebra = fit_affine(table, p)
        states = [algebra.decode_state(v) for v in range(algebra.m)]
        assert _affine_outputs(algebra, states) == _outputs_oracle(algebra, states)
        assert to_table(algebra) == table


def test_to_table_canonical_additive_sums():
    rng = random.Random(8)
    for p, r in itertools.product((2, 3, 5), range(3)):
        rule = canonical_additive(p, [rng.randrange(p) for _ in range(2 * r + 1)])
        expected = tuple(sum(a * x for a, x in zip(rule.coefficients, nb)) % p
                         for nb in itertools.product(range(p), repeat=2 * r + 1))
        assert rule.to_table().table == to_table(rule).table == expected


def test_eca_affine_family():
    # the additive-or-affine elementary rules all round-trip through the fit
    for number in (60, 90, 102, 105, 150, 170, 195, 240):
        affine = fit_affine(eca(number), 2)
        assert affine is not None
        assert to_table(affine).table == eca(number).table


def test_fit_affine_examples():
    affine = fit_affine(eca(150), 2)
    assert [m.entries[0][0] for m in affine.components] == [1, 1, 1]
    assert affine.constant == (0,)
    affine = fit_affine(eca(105), 2)
    assert [m.entries[0][0] for m in affine.components] == [1, 1, 1]
    assert affine.constant == (1,)
    assert fit_affine(eca(110), 2) is None
    from casim.ca_core import LocalAlgebra
    with pytest.raises(ValueError):
        fit_affine(LocalAlgebra(6, 0, tuple(range(6))), 2)


def test_fit_affine_on_canonical_rules_and_their_squares():
    """fit_affine checks its candidate against the whole table: it must
    return the rule's own affine form on every radius-1 canonical rule
    over F_2, F_3 and F_5 and on its B^[2], and None once the last
    entry, which no probe reads, is changed."""
    for p in (2, 3, 5):
        for rule in all_canonical_rules(p):
            table = to_table(rule)
            square = AffineAlgebra(p, 2, 1, tuple(component_matrices(rule, 2)), (0, 0))
            for algebra, expected in ((table, rule.as_affine()),
                                      (iterative_power(table, 2), square)):
                assert fit_affine(algebra, p) == expected
                last = (algebra.table[-1] + 1) % algebra.m
                changed = LocalAlgebra(algebra.m, algebra.r, algebra.table[:-1] + (last,))
                assert fit_affine(changed, p) is None


def test_fit_canonical_additive(z4_rule):
    rule = fit_canonical_additive(eca(90))
    assert rule == CanonicalAdditive(2, 1, (1, 0, 1))
    assert fit_canonical_additive(eca(105)) is None  # affine but not additive
    assert fit_canonical_additive(z4_rule) is None


def test_residues_must_be_integers_below_p():
    one = FpMatrix.identity(3, 2)
    for bad in ((0, 0.5), (0, 3), (-1, 5)):
        with pytest.raises(ValueError, match="^constant entries out of range$"):
            AffineAlgebra(3, 2, 0, (one,), bad)
        with pytest.raises(ValueError, match="^coefficients must be residues mod p$"):
            CanonicalAdditive(3, 1, bad + (1,))
        with pytest.raises(ValueError, match="^profile entries must be residues mod p$"):
            CoefficientProfile(3, 1, bad + (1,))
    assert CanonicalAdditive(3, 0, (True,)) == CanonicalAdditive(3, 0, (1,))


def test_affine_up_to_iso():
    found = is_affine_up_to_iso(eca(105), 2)
    assert found is not None and found[0] == (0, 1)
    assert is_affine_up_to_iso(eca(110), 2) is None
    # non-power state counts are never affine over F_p
    from casim.ca_core import LocalAlgebra
    assert is_affine_up_to_iso(LocalAlgebra(3, 0, (0, 1, 2)), 2) is None


def test_affine_up_to_iso_quotient(z4_rule):
    parity = Congruence.from_blocks(z4_rule, [[0, 2], [1, 3]])
    image = quotient(parity)
    found = is_affine_up_to_iso(image, 2)
    assert found is not None
    bijection, affine = found
    assert affine.is_additive()
    assert tuple(m.entries[0][0] for m in affine.components) == (1, 0, 1)


def test_affine_up_to_iso_matches_full_relabel_scan(rng):
    # seeded random tables (a few are affine up to iso by chance) and
    # affine tables under a random relabeling (always are); the search
    # over sigma(0) = 0, sigma(1) = 1 must return the full scan's witness
    cases = [(p, random_local_algebra(rng, m))
             for p, m in [(2, 2), (3, 3), (2, 4), (5, 5)] for _ in range(6)]
    for p, d, r in [(2, 2, 1), (3, 1, 1), (5, 1, 1), (2, 3, 1), (3, 2, 0)]:
        for _ in range(3):
            sigma = list(range(p ** d))
            rng.shuffle(sigma)
            cases.append((p, _relabeled_table(to_table(_random_affine(rng, p, d, r)), sigma)))
    found = 0
    for p, algebra in cases:
        expected = relabel_scan_oracle(algebra, p)
        assert is_affine_up_to_iso(algebra, p) == expected, (p, algebra)
        found += expected is not None
    assert found >= 15


def test_e0_evolution_known_rows():
    rule = canonical_additive(3, [2, 1, 1])
    assert e0_evolution(rule, 4).values == (1, 1, 2, 1, 1, 2, 2, 2, 1)
    assert e0_evolution(rule, 1).values == (1, 1, 2)


def test_e0_evolution_single_step_reverses_coefficients():
    rule = canonical_additive(5, [2, 3, 4])
    profile = e0_evolution(rule, 1)
    assert [profile_value_at(profile, k) for k in (-1, 0, 1)] == [4, 3, 2]


def test_e0_evolution_frobenius_spacing():
    profile = e0_evolution(canonical_additive(2, [1, 1, 1]), 2)
    assert profile.values == (1, 0, 1, 0, 1)


def test_e0_evolution_convolves(rng):
    for p in (2, 3, 5):
        for _ in range(5):
            rule = canonical_additive(p, [rng.randrange(p) for _ in range(3)])
            a, b = rng.randrange(1, 4), rng.randrange(1, 4)
            left = e0_evolution(rule, a)
            right = e0_evolution(rule, b)
            combined = e0_evolution(rule, a + b)
            for k in range(-combined.reach, combined.reach + 1):
                convolution = sum(
                    profile_value_at(left, i) * profile_value_at(right, k - i)
                    for i in range(-left.reach, left.reach + 1)) % p
                assert profile_value_at(combined, k) == convolution


def test_component_matrices_known_values():
    mats = component_matrices(canonical_additive(2, [1, 1, 1]), 3)
    assert mats[1].entries == ((1, 0, 1), (0, 1, 0), (1, 0, 1))
    assert mats[1].rank() < 3  # the middle matrix is singular
    mats = component_matrices(canonical_additive(3, [2, 0, 1]), 2)
    identity = FpMatrix.identity(3, 2)
    assert all(m == identity for m in mats)


def test_component_matrices_prime_power_scalars():
    for p in (2, 3, 5):
        for rule in all_canonical_rules(p):
            k = 1
            while p ** k <= 9:
                mats = component_matrices(rule, p ** k)
                for mat, a in zip(mats, rule.coefficients):
                    assert mat == FpMatrix.identity(p, p ** k).scale(a)
                k += 1


def test_component_matrices_match_power_table_f5(rng):
    # same oracle as below, at the larger prime where tables reach 5^6
    for _ in range(8):
        rule = canonical_additive(5, [rng.randrange(5) for _ in range(3)])
        n = rng.randrange(1, 3)
        mats = component_matrices(rule, n)
        power = iterative_power(to_table(rule), n)
        for i in range(-1, 2):
            nb = [0, 0, 0]
            nb[i + 1] = 5 ** (n - 1)
            image = power.apply(nb)
            column = []
            for _ in range(n):
                column.append(image % 5)
                image //= 5
            column.reverse()
            assert tuple(column) == tuple(row[0] for row in mats[i + 1].entries)


def test_component_matrices_match_power_table(rng):
    for p in (2, 3):
        for _ in range(6):
            rule = canonical_additive(p, [rng.randrange(p) for _ in range(3)])
            n = rng.randrange(1, 4)
            mats = component_matrices(rule, n)
            power = iterative_power(to_table(rule), n)
            for i in range(-1, 2):
                for t in range(n):
                    nb = [0, 0, 0]
                    nb[i + 1] = p ** (n - 1 - t)
                    image = power.apply(nb)
                    column = []
                    for _ in range(n):
                        column.append(image % p)
                        image //= p
                    column.reverse()
                    assert tuple(column) == tuple(row[t] for row in mats[i + 1].entries)


def seed_oracle_rules(rng, p, r):
    """The all-ones rule, a zero rule at r = 0, and random rules with a
    zero at the centre or at an outer end."""
    arity = 2 * r + 1
    rules = [(1,) * arity, [rng.randrange(p) for _ in range(arity)]]
    if r == 0:
        rules.append((0,))
    else:
        rules.append([0 if k == r else rng.randrange(1, p) for k in range(arity)])
        rules.append([0] + [rng.randrange(1, p) for _ in range(arity - 1)])
    return [canonical_additive(p, coeffs) for coeffs in rules]


def test_e0_evolution_matches_evolve_oracle(rng):
    # the definition: run the rule from a single 1 and read the light cone
    for p in (2, 3, 5, 7):
        near_powers = {p ** k + d for k in range(1, 4) for d in (-1, 0, 1)}
        ns = sorted(set(range(1, 61)) | {n for n in near_powers if 1 <= n <= 130})
        for r in range(3):
            for rule in seed_oracle_rules(rng, p, r):
                diagram = evolve(to_table(rule), (1,), 0, ns[-1])
                for n in ns:
                    assert e0_evolution(rule, n).values == diagram.window(n, r), (rule, n)


def test_component_matrices_match_entrywise_oracle(rng):
    for p in (2, 3, 5):
        for r in range(3):
            for rule in seed_oracle_rules(rng, p, r):
                for n in range(1, 31):
                    assert component_matrices(rule, n) == component_matrices_oracle(rule, n)


def test_seed_profile_and_matrices_gated_on_table_cap():
    rule = canonical_additive(3, [1, 1, 2])
    # 2nr + 1 = 11 profile entries, (2r + 1) n^2 = 108 matrix entries
    assert len(e0_evolution(rule, 5, Caps(table_cap=11)).values) == 11
    with pytest.raises(CapExceeded, match="seed profile needs 11 entries"):
        e0_evolution(rule, 5, Caps(table_cap=10))
    assert len(component_matrices(rule, 6, Caps(table_cap=108))) == 3
    assert check_structure(rule, 6, Caps(table_cap=108)).n == 6
    for build in (component_matrices, check_structure):
        with pytest.raises(CapExceeded, match="component matrices need 108 entries"):
            build(rule, 6, Caps(table_cap=107))


def test_first_rows_spell_reflected_profile():
    # the concatenated first rows of the component matrices read off the
    # reflected seed evolution: entry j of block i is c at -(i*n + j)
    rule = canonical_additive(3, [2, 1, 1])
    n = 4
    profile = e0_evolution(rule, n)
    mats = component_matrices(rule, n)
    first = [x for mat in mats for x in mat.entries[0]]
    reflected = [profile_value_at(profile, -k) for k in range(-n, 2 * n)]
    assert first == reflected


def test_check_structure_examples():
    report = check_structure(canonical_additive(2, [1, 1, 1]), 3)
    assert report.passed
    superdiag = next(c for c in report.checks if c.name == "component -1 first superdiagonal")
    assert superdiag.expected == (1, 1)  # 3 * 1^2 * 1 mod 2
    report = check_structure(canonical_additive(3, [2, 1, 1]), 4)
    assert report.passed
    diagonal = next(c for c in report.checks if c.name == "component -1 diagonal")
    assert diagonal.expected == (1,) * 4  # 2^4 = 16 = 1 mod 3


def test_check_structure_vanishing_superdiagonal_at_p():
    # n = p makes the first off-diagonal coefficient n * a^(n-1) * a' vanish
    for p in (2, 3):
        for rule in doubly_bijective_rules(p):
            report = check_structure(rule, p)
            for check in report.checks:
                if "first superdiagonal" in check.name or "first subdiagonal" in check.name:
                    assert check.expected == (0,) * (p - 1)


def test_check_structure_sweep():
    for p in (2, 3):
        for rule in all_canonical_rules(p):
            if len(rule.support()) < 2:
                continue
            for n in range(1, 7):
                assert check_structure(rule, n).passed


def test_check_structure_pinned_check_lists():
    zero = ((0, 0, 0),) * 3
    report = check_structure(canonical_additive(3, [0, 2, 1, 1, 0]), 3)
    assert (report.least, report.greatest) == (-1, 1)
    assert [(c.name, c.passed, c.expected, c.actual) for c in report.checks] == [
        ("component -2 zero", True, "zero matrix", zero),
        ("component 2 zero", True, "zero matrix", zero),
        ("component -1 upper triangular", True, "zeros", (0, 0, 0)),
        ("component 1 lower triangular", True, "zeros", (0, 0, 0)),
        ("component -1 diagonal", True, (2, 2, 2), (2, 2, 2)),
        ("component 1 diagonal", True, (1, 1, 1), (1, 1, 1)),
        ("component -1 first superdiagonal", True, (0, 0), (0, 0)),
        ("component 1 first subdiagonal", True, (0, 0), (0, 0)),
        ("component -1 second superdiagonal", True, (0,), (0,)),
        ("component 1 second subdiagonal", True, (0,), (0,)),
    ]
    # a single nonzero coefficient is both outermost positions
    report = check_structure(canonical_additive(3, [0, 2, 0]), 3)
    assert (report.least, report.greatest) == (0, 0)
    assert [(c.name, c.passed, c.expected, c.actual) for c in report.checks] == [
        ("component -1 zero", True, "zero matrix", zero),
        ("component 1 zero", True, "zero matrix", zero),
        ("component 0 upper triangular", True, "zeros", (0, 0, 0)),
        ("component 0 lower triangular", True, "zeros", (0, 0, 0)),
        ("component 0 diagonal", True, (2, 2, 2), (2, 2, 2)),
        ("component 0 diagonal", True, (2, 2, 2), (2, 2, 2)),
        ("component 0 first superdiagonal", True, (0, 0), (0, 0)),
        ("component 0 first subdiagonal", True, (0, 0), (0, 0)),
        ("component 0 second superdiagonal", True, (0,), (0,)),
        ("component 0 second subdiagonal", True, (0,), (0,)),
    ]


def test_check_structure_rejects_zero_rule():
    with pytest.raises(ValueError):
        check_structure(canonical_additive(3, [0, 0, 0]), 2)


def test_doubly_bijective():
    assert is_doubly_bijective(canonical_additive(2, [1, 1, 1]))
    assert not is_doubly_bijective(canonical_additive(2, [1, 0, 1]))
    assert is_doubly_bijective(canonical_additive(3, [2, 1, 1]))
    assert is_doubly_bijective(canonical_additive(2, [1, 1, 0]))  # adjacent support
    assert not is_doubly_bijective(canonical_additive(3, [0, 2, 0]))


def test_verify_splitting_cases():
    assert verify_splitting(canonical_additive(2, [1, 1, 1]), 1, 1).ok
    assert verify_splitting(canonical_additive(3, [2, 0, 1]), 1, 1).ok
    trivial = verify_splitting(canonical_additive(2, [1, 0, 1]), 0, 2)
    assert trivial.ok and trivial.witness == tuple(range(4))
    transposed = verify_splitting(canonical_additive(2, [1, 1, 1]), 1, 2)
    assert transposed.ok and transposed.witness != tuple(range(16))


def test_interleaving_bijection_degenerate():
    assert interleaving_bijection(3, 1, 2) == tuple(range(8))
    assert interleaving_bijection(1, 3, 2) == tuple(range(8))


def test_subalgebra_affine_singleton_on_idempotent():
    affine = fit_affine(eca(150), 2)
    sub = subalgebra_affine(affine, Subspace.zero(2, 1), (1,))
    assert sub.d == 0 and to_table(sub).table == (0,)
    # state 0 of ECA-105 is not idempotent, so the coset test fails
    with pytest.raises(ValueError):
        subalgebra_affine(fit_affine(eca(105), 2), Subspace.zero(2, 1), (0,))


def test_subalgebra_affine_full_space_of_zero_rule():
    zero = AffineAlgebra(2, 2, 1, tuple(FpMatrix.zero(2, 2) for _ in range(3)), (0, 0))
    sub = subalgebra_affine(zero, Subspace.full(2, 2), (0, 0))
    assert to_table(sub).table == to_table(zero).table


def test_subalgebra_affine_diagonal():
    affine = fit_affine(product([eca(150), eca(150)]), 2)
    diagonal = Subspace.span(2, 2, [(1, 1)])
    sub = subalgebra_affine(affine, diagonal, (0, 0))
    assert to_table(sub).table == eca(150).table


def test_subalgebra_affine_reports_failing_vector():
    affine = fit_affine(product([eca(90), eca(150)]), 2)
    skew = Subspace.span(2, 2, [(0, 1)])
    sub = subalgebra_affine(affine, skew, (0, 0))  # invariant: both rules fix e2 line
    assert to_table(sub).table == eca(150).table
    # a subspace that no component preserves is rejected by name
    mixed = fit_affine(product([eca(240), eca(170)]), 2)  # shifts in opposite directions
    with pytest.raises(ValueError, match="not invariant"):
        subalgebra_affine(mixed, Subspace.span(2, 2, [(1, 1)]), (0, 0))


def test_coset_embedding_names_first_failing_neighborhood(rng):
    # a wrong sub-rule is rejected at the first neighborhood, in table
    # order, where sub and the ambient rule disagree through the embedding
    affine = fit_affine(product([eca(90), eca(150)]), 2)
    skew = Subspace.span(2, 2, [(0, 1)])
    wrong = fit_affine(eca(90), 2)  # the right sub-rule is ECA 150
    with pytest.raises(RuntimeError, match=re.escape("commute on (0, 1, 0)")):
        _verify_coset_embedding(affine, skew, (0, 0), wrong, DEFAULT_CAPS)
    checked = 0
    for _ in range(12):
        algebra = random_affine_f2(rng, d=3, require_witnesses=False)
        sub = random_affine_f2(rng, d=1, require_witnesses=False)
        space = Subspace.span(2, 3, [(1, 1, 0)])
        anchor = tuple(rng.randrange(2) for _ in range(3))
        embed = [anchor, tuple((a + w) % 2 for a, w in zip(anchor, space.basis[0]))]
        sub_table = to_table(sub)
        failing = next((nb for nb in itertools.product(range(2), repeat=3)
                        if embed[sub_table.apply(nb)]
                        != apply_vectors_oracle(algebra, [embed[t] for t in nb])), None)
        if failing is None:
            _verify_coset_embedding(algebra, space, anchor, sub, DEFAULT_CAPS)
            continue
        checked += 1
        with pytest.raises(RuntimeError, match=re.escape(f"commute on {failing}")):
            _verify_coset_embedding(algebra, space, anchor, sub, DEFAULT_CAPS)
    assert checked > 0


def test_quotient_affine_projects_second_factor():
    affine = fit_affine(product([eca(90), eca(150)]), 2)
    image = quotient_affine(affine, Subspace.span(2, 2, [(1, 0)]))
    assert to_table(image).table == eca(150).table
    assert quotient_affine(affine, Subspace.zero(2, 2)) == affine
    assert quotient_affine(affine, Subspace.full(2, 2)).d == 0


def test_quotient_affine_matches_table_quotient():
    affine = fit_affine(product([eca(90), eca(150)]), 2)
    space = Subspace.span(2, 2, [(1, 0)])
    table = to_table(affine)
    congruence = coset_congruence_oracle(affine, space)
    direct = quotient(congruence)
    constructed = to_table(quotient_affine(affine, space))
    assert are_isomorphic(direct, constructed) is not None


def test_classify_affine_examples():
    record = classify_affine(fit_affine(eca(60), 2))
    assert (record.left_witness, record.right_witness) == (-1, 0)
    assert record.additive and record.canonical_additive and record.in_witness_class
    record = classify_affine(fit_affine(eca(195), 2))
    assert record.additive and record.idempotent == (1,)
    assert not record.canonical_additive
    record = classify_affine(fit_affine(eca(105), 2))
    assert not record.additive and record.idempotent is None
    assert record.bijective_condition


def test_subalgebras_are_cosets(rng):
    # with two bijective components, every closed carrier is a coset of
    # an invariant subspace with an admissible anchor
    for _ in range(8):
        algebra = random_affine_f2(rng, d=2)
        table = to_table(algebra)
        mats = list(algebra.components)
        invariant = common_invariant_subspaces(mats)
        expected = set()
        for space in invariant:
            members = set(space.vectors())
            for anchor in itertools.product(range(2), repeat=2):
                image = apply_vectors_oracle(algebra, [anchor] * 3)
                drift = tuple((a - b) % 2 for a, b in zip(image, anchor))
                if drift in members:
                    carrier = tuple(sorted(
                        algebra.encode_state([(a + w) % 2 for a, w in zip(anchor, vec)])
                        for vec in members))
                    expected.add(carrier)
        assert set(enumerate_subalgebras(table)) == expected


def test_congruence_zero_classes_are_invariant_subspaces(rng):
    for _ in range(8):
        algebra = random_affine_f2(rng, d=2)
        table = to_table(algebra)
        for congruence in enumerate_congruences(table):
            zero_block = next(b for b in congruence.blocks if 0 in b)
            vectors = [algebra.decode_state(s) for s in zero_block]
            space = Subspace.span(2, 2, vectors)
            assert len(zero_block) == 2 ** space.dim
            assert is_invariant(space, list(algebra.components))


def test_counterexamples_break_linearity():
    # constant rule: carriers need not be cosets, congruence classes need
    # not be subspaces
    zero = AffineAlgebra(2, 2, 1, tuple(FpMatrix.zero(2, 2) for _ in range(3)), (0, 0))
    table = to_table(zero)
    sizes = {len(c) for c in enumerate_subalgebras(table)}
    assert 3 in sizes  # odd carrier: no coset has three elements over F_2
    odd_zero_class = [
        c for c in enumerate_congruences(table)
        if len(next(b for b in c.blocks if 0 in b)) == 3]
    assert odd_zero_class
    # one bijective component only: an orbit congruence with three classes
    shear = FpMatrix.from_rows(2, [[1, 1], [0, 1]])
    projector = AffineAlgebra(2, 2, 1, (shear, FpMatrix.zero(2, 2), FpMatrix.zero(2, 2)),
                              (0, 0))
    ptable = to_table(projector)
    orbit = next(c for c in enumerate_congruences(ptable) if len(c.blocks) == 3)
    image = quotient(orbit)
    assert image.m == 3
    assert is_affine_up_to_iso(image, 2) is None


def test_affine_isomorphism_gated_by_onedim_cap():
    # identity components commute with all 16 matrices over F_2
    identity = AffineAlgebra(2, 2, 1, tuple(FpMatrix.identity(2, 2) for _ in range(3)), (0, 0))
    assert affine_isomorphism(identity, identity) is not None
    with pytest.raises(CapExceeded):
        affine_isomorphism(identity, identity, Caps(onedim_cap=15))
    assert affine_isomorphism(identity, identity, Caps(onedim_cap=16)) is not None


def test_affine_isomorphism_matches_general_search(rng):
    for _ in range(10):
        a = random_affine_f2(rng, d=1, require_witnesses=False)
        b = random_affine_f2(rng, d=1, require_witnesses=False)
        fast = affine_isomorphism(a, b)
        general = are_isomorphic(to_table(a), to_table(b))
        if fast is not None:
            assert general is not None
            ta, tb = to_table(a), to_table(b)
            assert all(fast[ta.apply(nb)] == tb.apply([fast[x] for x in nb])
                       for nb in itertools.product(range(2), repeat=3))
        # the affine search can miss non-affine witnesses, but for d=1 a
        # bijection on F_p is affine iff ... p=2: all 2 bijections are affine
        if general is not None:
            assert fast is not None


def _random_matrix(rng, p, d):
    return FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])


def _random_affine(rng, p, d, r):
    mats = tuple(_random_matrix(rng, p, d) for _ in range(2 * r + 1))
    return AffineAlgebra(p, d, r, mats, tuple(rng.randrange(p) for _ in range(d)))


def test_affine_isomorphism_witnesses_pinned():
    # witnesses on seeded pairs: a with an affine conjugate of itself
    # (always isomorphic) and with an unrelated rule; the sha256 of the
    # whole list was recorded from the decode/apply/encode construction
    rng = random.Random(14)
    witnesses = []
    for p, d, r in [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1),
                    (2, 2, 2), (3, 2, 0), (2, 4, 0)]:
        for _ in range(4):
            a = _random_affine(rng, p, d, r)
            matrix = FpMatrix.zero(p, d)
            while not matrix.is_invertible():
                matrix = _random_matrix(rng, p, d)
            shift = tuple(rng.randrange(p) for _ in range(d))
            sigma = [a.encode_state([x + u for x, u in zip(matrix.apply(a.decode_state(v)), shift)])
                     for v in range(a.m)]
            conjugate = fit_affine(_relabeled_table(to_table(a), sigma), p)
            for b in (conjugate, _random_affine(rng, p, d, r)):
                witness = affine_isomorphism(a, b)
                if witness is not None:
                    assert _bijection_conjugates(to_table(a), to_table(b), witness)
                witnesses.append(witness)
    assert all(w is not None for w in witnesses[::2])
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
    assert digest == "0b85c8bf1499b57f4bbddc81f4c8c1129798c8ace7700734501c8673a127bec8"
