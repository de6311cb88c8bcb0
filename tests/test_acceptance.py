"""Acceptance suite: one test per criterion, each printing a PASS or
FAIL line.  Every expected value is either a worked example reproduced
exactly, or cross-checked against an independent brute-force oracle in
the body of the test."""

from contextlib import contextmanager

from casim.affine_ca import (AffineAlgebra, canonical_additive, check_structure,
                             component_matrices, e0_evolution, fit_affine,
                             interleaving_bijection, is_affine_up_to_iso, to_table,
                             verify_splitting, _bijection_conjugates)
from casim.ca_core import (LocalAlgebra, are_isomorphic, check_translation, eca,
                           enumerate_congruences, enumerate_subalgebras, evolve,
                           iterative_power, product, quotient, restrict)
from casim.fp_linalg import FpMatrix, is_simple
from casim.simulation import (SearchBounds, replay_derivation, simulates,
                              verify_affine_closure, verify_characterization)
from conftest import (all_canonical_rules, all_subspaces, doubly_bijective_rules,
                      is_invariant, is_trivial, random_affine_f2)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


_SUBSPACE_CACHE = {}


def cached_subspaces(p, n):
    if (p, n) not in _SUBSPACE_CACHE:
        _SUBSPACE_CACHE[(p, n)] = all_subspaces(p, n)
    return _SUBSPACE_CACHE[(p, n)]


def test_criterion_01_seed_evolution_reproduction():
    with criterion(1, "seed evolution of rule (2,1,1) over F_3, four steps, exact rows"):
        rule = canonical_additive(3, [2, 1, 1])
        diagram = evolve(to_table(rule), (1,), 0, 4)
        windows = [diagram.window(t, 1) for t in range(5)]
        assert windows == [
            (1,),
            (1, 1, 2),
            (1, 2, 2, 1, 1),
            (1, 0, 0, 1, 0, 0, 2),
            (1, 1, 2, 1, 1, 2, 2, 2, 1),
        ]
        # padded rows carry the zero background around the light cone
        assert diagram.rows[2] == (0, 0, 1, 2, 2, 1, 1, 0, 0)
        assert e0_evolution(rule, 4).values == windows[4]


def test_criterion_02_prime_power_coefficients():
    with criterion(2, "p^k-th powers have scalar component matrices a_i * I"):
        for p in (2, 3, 5):
            for rule in all_canonical_rules(p):
                k = 1
                while p ** k <= 9:
                    n = p ** k
                    mats = component_matrices(rule, n)
                    for mat, a in zip(mats, rule.coefficients):
                        assert mat == FpMatrix.identity(p, n).scale(a)
                    k += 1


def _columns_from_power_table(rule, n):
    """Independent oracle: read each component matrix column out of the
    truth table of the n-th iterative power, one one-hot block at a time."""
    power = iterative_power(to_table(rule), n)
    p = rule.p
    matrices = []
    for i in (-1, 0, 1):
        columns = []
        for t in range(n):
            neighborhood = [0, 0, 0]
            neighborhood[i + 1] = p ** (n - 1 - t)
            value = power.apply(neighborhood)
            column = []
            for _ in range(n):
                column.append(value % p)
                value //= p
            column.reverse()
            columns.append(tuple(column))
        matrices.append(tuple(zip(*columns)))
    return matrices


def test_criterion_03_matrix_assembly_oracle():
    with criterion(3, "polynomial assembly equals truth-table extraction"):
        for p, max_n in ((2, 4), (3, 3)):
            for rule in all_canonical_rules(p):
                for n in range(1, max_n + 1):
                    assembled = [m.entries for m in component_matrices(rule, n)]
                    assert assembled == _columns_from_power_table(rule, n)


def test_criterion_04_structure_checks():
    with criterion(4, "banded triangular structure of outermost matrices"):
        for p in (2, 3):
            for rule in all_canonical_rules(p):
                if len(rule.support()) < 2:
                    continue
                for n in range(1, 7):
                    report = check_structure(rule, n)
                    assert report.passed, (rule.coefficients, n, report.failures())


def test_criterion_05_simplicity():
    with criterion(5, "powers coprime to p of doubly bijective rules are simple"):
        for p in (2, 3):
            for rule in doubly_bijective_rules(p):
                for n in range(1, 6):
                    if n % p == 0:
                        continue
                    mats = component_matrices(rule, n)
                    assert is_simple(mats), (rule.coefficients, n)
                    if p ** n <= 81:
                        invariant = [s for s in cached_subspaces(p, n)
                                     if is_invariant(s, mats)]
                        assert all(is_trivial(s) for s in invariant)


def test_criterion_06_splitting():
    with criterion(6, "p-th iterative powers split into p-fold products"):
        for number in (150, 90):
            rule = canonical_additive(2, tuple(
                m.entries[0][0] for m in fit_affine(eca(number), 2).components))
            result = verify_splitting(rule, 1, 1)
            assert result.ok and result.witness == tuple(range(4))
        for rule in all_canonical_rules(3):
            if len(rule.support()) < 2:
                continue
            result = verify_splitting(rule, 1, 1)
            assert result.ok, rule.coefficients
            # replay the witness against both tables once more
            assert _bijection_conjugates(result.power, result.split, result.witness)


def test_criterion_07_quotient_fixture(z4_rule):
    with criterion(7, "x+z mod 4 has the parity quotient onto the xor rule"):
        congruences = enumerate_congruences(z4_rule)
        parity = next(c for c in congruences if c.blocks == ((0, 2), (1, 3)))
        image = quotient(parity)
        witness = are_isomorphic(image, eca(90))
        assert witness is not None
        check = check_translation(eca(90), z4_rule, [0, 1, 0, 1], "project",
                                  width=7, steps=1)
        assert check.ok


def test_criterion_08_characterization():
    with criterion(8, "closure equals products of powers for doubly bijective rules"):
        report = verify_characterization(
            canonical_additive(2, [1, 1, 1]), SearchBounds(2, 2))
        assert report.passed and report.complete
        for coeffs in ([2, 1, 1], [1, 1, 1], [1, 2, 1]):
            report = verify_characterization(
                canonical_additive(3, coeffs), SearchBounds(2, 1))
            assert report.passed and report.complete, coeffs
        # the almost doubly bijective rule 2x+z breaks at its square
        rule = canonical_additive(3, [2, 0, 1])
        report = verify_characterization(rule, SearchBounds(2, 1))
        assert not report.passed
        violation = report.violations()[0]
        assert violation.derivation.powers == (2,)
        member = replay_derivation(rule.to_table(), violation.derivation)
        target = canonical_additive(3, [1, 1, 1]).to_table()
        assert are_isomorphic(member, target) is not None


def test_criterion_09_incomparability():
    with criterion(9, "the xor rule and the three-cell sum rule are incomparable"):
        verdict = simulates(eca(90), eca(150))
        assert verdict.is_no  # decided exactly via the characterization
        reverse = simulates(eca(150), eca(90), SearchBounds(2, 2, 8))
        assert reverse.outcome in ("no", "unknown")
        sixty = simulates(eca(60), eca(150))
        assert sixty.is_no


def test_criterion_10_affine_closure(rng):
    with criterion(10, "bounded closures of witness-class affine rules stay affine"):
        bounds = SearchBounds(2, 2, 16)
        for number in (60, 150):
            report = verify_affine_closure(fit_affine(eca(number), 2), bounds)
            assert report.passed, number
        for _ in range(3):
            algebra = random_affine_f2(rng, d=2)
            report = verify_affine_closure(algebra, bounds)
            assert report.passed, algebra
        one_dim = random_affine_f2(rng, d=1)
        assert verify_affine_closure(one_dim, bounds).passed

        # counterexample constructions: each must produce a non-affine
        # member or a non-linear congruence
        zero = AffineAlgebra(2, 2, 1, tuple(FpMatrix.zero(2, 2) for _ in range(3)),
                             (0, 1))
        table = to_table(zero)
        assert any(len(c) == 3 for c in enumerate_subalgebras(table))
        three_state = restrict(table, next(
            c for c in enumerate_subalgebras(table) if len(c) == 3))
        assert is_affine_up_to_iso(three_state, 2) is None
        report = verify_affine_closure(zero, SearchBounds(1, 1, 4))
        assert not report.applicable and any(v.size == 3 for v in report.violations())

        odd_class = [c for c in enumerate_congruences(table)
                     if len(next(b for b in c.blocks if 0 in b)) == 3]
        assert odd_class  # 0-class of odd size: not a subspace of F_2^2

        shear = FpMatrix.from_rows(2, [[1, 1], [0, 1]])
        projector = AffineAlgebra(
            2, 2, 1, (shear, FpMatrix.zero(2, 2), FpMatrix.zero(2, 2)), (0, 0))
        ptable = to_table(projector)
        orbit = next(c for c in enumerate_congruences(ptable) if len(c.blocks) == 3)
        image = quotient(orbit)
        assert image.m == 3 and is_affine_up_to_iso(image, 2) is None
        report = verify_affine_closure(projector, SearchBounds(1, 1, 4))
        assert not report.applicable and any(v.size == 3 for v in report.violations())


def test_criterion_11_operator_laws(rng):
    with criterion(11, "power composition, power of products, and SH within HS"):
        # (A^[m])^[n] = A^[mn] exactly, here with the identity witness
        for number in range(256):
            rule = eca(number)
            assert iterative_power(rule, 1) is rule
            fourth = iterative_power(rule, 4)
            assert iterative_power(iterative_power(rule, 2), 2).table == fourth.table
        # (A x B)^[n] vs A^[n] x B^[n]: conjugate under cell de-interleaving
        transpose = interleaving_bijection(2, 2, 2)
        pairs = [(n, n) for n in range(256)]
        pairs += [(rng.randrange(256), rng.randrange(256)) for _ in range(300)]
        for a_num, b_num in pairs:
            a, b = eca(a_num), eca(b_num)
            lhs = iterative_power(product([a, b]), 2)
            rhs = product([iterative_power(a, 2), iterative_power(b, 2)])
            assert _bijection_conjugates(lhs, rhs, transpose), (a_num, b_num)
        # every subalgebra of a quotient is a quotient of some subalgebra
        for _ in range(100):
            algebra = LocalAlgebra(3, 1, tuple(rng.randrange(3) for _ in range(27)))
            hs_members = []
            for carrier in enumerate_subalgebras(algebra):
                sub = restrict(algebra, carrier)
                for congruence in enumerate_congruences(sub):
                    hs_members.append(quotient(congruence))
            for congruence in enumerate_congruences(algebra):
                image = quotient(congruence)
                for carrier in enumerate_subalgebras(image):
                    sh_member = restrict(image, carrier)
                    assert any(
                        are_isomorphic(sh_member, candidate) is not None
                        for candidate in hs_members
                        if candidate.m == sh_member.m), (algebra.table, congruence.blocks)
