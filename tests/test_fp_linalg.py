import collections
import itertools
import operator
import random
import time
from array import array

import pytest

from casim.affine_ca import canonical_additive, component_matrices
from casim import ca_core
from casim.ca_core import (LocalAlgebra, eca, enumerate_congruences, enumerate_subalgebras,
                           iterative_power, product)
from casim.caps import CapExceeded, Caps
from casim import fp_linalg
from casim.fp_linalg import (FpMatrix, Subspace, _check_maps, common_invariant_subspaces,
                             invariant_closure, is_prime, is_simple,
                             join_closure, nullspace_basis, one_dim_representatives, rref,
                             solve)
from conftest import (all_canonical_rules, all_subspaces, invariant_closure_fixpoint_oracle,
                      is_invariant, is_simple_scan_oracle, is_trivial, join_closure_oracle,
                      first_out_of_range_oracle, low_image_algebra, one_dim_filter_oracle,
                      rref_gauss_jordan_oracle)


def random_matrix(rng, p, rows, cols):
    return FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


# x -> [[0,1],[1,1]] x has characteristic polynomial x^2 + x + 1, which has
# no root in F_2: no M - lambda*I is singular, on it or on two copies of it
NO_EIGENVALUE_F2 = FpMatrix.from_rows(2, [[0, 1], [1, 1]])
NO_EIGENVALUE_F2_TWICE = FpMatrix.from_rows(
    2, [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]])


def test_prime_validation():
    assert is_prime(2) and is_prime(13)
    assert not is_prime(1) and not is_prime(9)
    with pytest.raises(ValueError):
        FpMatrix.from_rows(4, [[1]])
    for p in (0, 4, -3):
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            Subspace.span(p, 2, [(1, 0)])


def test_rref_identity():
    m = FpMatrix.identity(2, 2)
    reduced, rank = rref(m)
    assert reduced == m and rank == 2


def test_rref_duplicate_rows():
    reduced, rank = rref(FpMatrix.from_rows(2, [[1, 1], [1, 1]]))
    assert reduced.entries == ((1, 1), (0, 0)) and rank == 1


def test_rref_singular_f3():
    # det = 2*2 - 1*1 = 3 = 0 mod 3, so rank drops to 1
    reduced, rank = rref(FpMatrix.from_rows(3, [[2, 1], [1, 2]]))
    assert reduced.entries == ((1, 2), (0, 0)) and rank == 1


def test_rref_idempotent_and_row_space_preserved():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(25):
            m = random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
            reduced, rank = rref(m)
            again, rank2 = rref(reduced)
            assert again == reduced and rank2 == rank
            original = Subspace.span(p, m.cols, m.entries)
            kept = Subspace.span(p, m.cols, reduced.entries[:rank])
            assert original == kept


def random_rows_with_dependencies(rng, p, n_rows, cols):
    """Random rows where some are zero, repeats or combinations of
    earlier rows, so ranks below min(rows, cols) are common."""
    rows = []
    for k in range(n_rows):
        kind = rng.randrange(4) if k else 0
        if kind == 1:
            rows.append([0] * cols)
        elif kind == 2:
            rows.append(list(rng.choice(rows)))
        elif kind == 3:
            a, b, c = rng.choice(rows), rng.choice(rows), rng.randrange(p)
            rows.append([(x + c * y) % p for x, y in zip(a, b)])
        else:
            rows.append([rng.randrange(p) for _ in range(cols)])
    return rows


def test_insertion_matches_gauss_jordan_oracle():
    rng = random.Random(12)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            n_rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            rows = random_rows_with_dependencies(rng, p, n_rows, cols)
            m = FpMatrix.from_rows(p, rows)
            reduced, rank = rref_gauss_jordan_oracle(m)
            assert rref(m) == (reduced, rank)
            assert m.rank() == rank
            space = Subspace.span(p, cols, rows)
            assert space.basis == reduced.entries[:rank]

            cut = rng.randrange(n_rows + 1)
            head, tail = Subspace.span(p, cols, rows[:cut]), Subspace.span(p, cols, rows[cut:])
            assert head.join(tail) == Subspace.span(p, cols, head.basis + tail.basis) == space
            assert space.join(head) is space and space.join(tail) is space

            if rng.randrange(2):
                rhs = m.apply([rng.randrange(p) for _ in range(cols)])
            else:
                rhs = tuple(rng.randrange(p) for _ in range(n_rows))
            augmented, _ = rref_gauss_jordan_oracle(
                FpMatrix.from_rows(p, [row + [b] for row, b in zip(rows, rhs)]))
            inconsistent = any(row.index(1) == cols for row in augmented.entries if any(row))
            x = solve(m, rhs)
            assert (x is None) == inconsistent
            if x is not None:
                assert m.apply(x) == rhs

            kernel = nullspace_basis(m)
            assert len(kernel) == cols - rank
            assert Subspace.span(p, cols, kernel).dim == cols - rank
            assert all(not any(m.apply(v)) for v in kernel)


def test_subspace_canonical_form():
    a = Subspace.span(3, 2, [(2, 1), (1, 2)])
    b = Subspace.span(3, 2, [(1, 2)])
    assert a == b and a.dim == 1
    assert a.contains((2, 1)) and not a.contains((1, 0))
    assert len(list(a.vectors())) == 3


def test_reduce_is_coset_normal_form():
    rng = random.Random(5)
    for p in (2, 3):
        for n in range(4):
            for _ in range(4):
                seeds = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
                space = Subspace.span(p, n, seeds)
                members = set(space.vectors())
                pivots = space.pivots()
                representatives = set()
                for vec in itertools.product(range(p), repeat=n):
                    rep = space.reduce(vec)
                    representatives.add(rep)
                    assert all(rep[t] == 0 for t in pivots)
                    assert tuple((x - y) % p for x, y in zip(vec, rep)) in members
                    for w in members:
                        assert space.reduce([x + y for x, y in zip(vec, w)]) == rep
                    assert (not any(rep)) == (vec in members) == space.contains(vec)
                assert len(representatives) == p ** (n - space.dim)


def test_subspace_rejects_non_rref_basis():
    with pytest.raises(ValueError):
        Subspace(2, 2, ((0, 1), (1, 0)))  # pivots not increasing
    with pytest.raises(ValueError):
        Subspace(3, 2, ((2, 0),))  # pivot not normalized
    # entries outside 0..p-1 would give one line two spellings
    # and of two bad entries the first in row order is named
    for p, row, bad in ((2, (2, 1), "2"), (3, (1, 5), "5"), (3, (1, -1), "-1"),
                        (3, (1, 0.5), "0.5"), (3, (5, -1), "5"), (3, (-1, 5), "-1")):
        with pytest.raises(ValueError, match=rf"^entry {bad} out of range mod {p}$"):
            Subspace(p, 2, (row,))
    assert Subspace(3, 2, ((True, 2),)) == Subspace(3, 2, ((1, 2),))


def test_matrix_validation_names_the_first_bad_entry():
    for rows, cols, entries, message in (
            (1, 2, ((1, 5),), "entry 5 out of range mod 3"),
            (1, 2, ((-1, 0),), "entry -1 out of range mod 3"),
            # two bad entries, or a bad entry and a short row: whichever
            # comes first in row order is named
            (2, 2, ((0, 7), (-1, 0)), "entry 7 out of range mod 3"),
            (2, 2, ((0, -1), (7, 0)), "entry -1 out of range mod 3"),
            (2, 2, ((0, 5), (1,)), "entry 5 out of range mod 3"),
            (2, 2, ((0,), (5, 1)), "column count does not match entries"),
            (1, 2, ((1, 0.5),), "entry 0.5 out of range mod 3"),
            (1, 2, ((1, 1.0),), "entry 1.0 out of range mod 3")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FpMatrix(3, rows, cols, entries)
    assert FpMatrix(3, 1, 2, ((True, False),)).entries == ((1, 0),)
    # a non-integer is refused at once, however large the prime p
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^entry 0.5 out of range mod 10000019$"):
        FpMatrix(10000019, 1, 2, ((1, 0.5),))
    assert time.perf_counter() - started < 0.25


def test_first_out_of_range_matches_oracle(rng):
    """Random lists and tuples of in-range, negative, too large, bool and
    non-integer entries, including floats equal to a state, on either
    side of the bytes route's 256 bound.  A namedtuple and an array('H')
    are read as tuples, so they take the bytes route too; a one-shot
    iterator (a fresh one per call) is tested on everything it holds;
    and a bare int raises, as bytes(5) would not."""
    Cells = collections.namedtuple("Cells", "a b c")
    for bound in (1, 2, 3, 7, 255, 256, 257, 10000019, 2 ** 31 - 1):
        def draw():
            if rng.random() < 0.8:
                return rng.randrange(bound)
            return rng.choice((-rng.randrange(1, 4), bound + rng.randrange(3), True, False,
                               0.5, 0.0, 1.0, None, "a", 2 ** 70))

        for _ in range(200):
            values = [draw() for _ in range(rng.randrange(9))]
            for values in (values, tuple(values), Cells(draw(), draw(), draw()),
                           array("H", (rng.choice((0, bound - 1, bound, 300)) % 65536
                                       for _ in range(rng.randrange(5))))):
                assert (fp_linalg.first_out_of_range(values, bound)
                        == first_out_of_range_oracle(values, bound)), (values, bound)
                assert (fp_linalg.first_out_of_range(iter(values), bound)
                        == first_out_of_range_oracle(iter(values), bound)), (values, bound)
        for find in (fp_linalg.first_out_of_range, first_out_of_range_oracle):
            with pytest.raises(TypeError):
                find(5, bound)


def test_subspace_join_and_coordinates():
    e1 = Subspace.span(2, 3, [(1, 0, 0)])
    e3 = Subspace.span(2, 3, [(0, 0, 1)])
    joined = e1.join(e3)
    assert joined.dim == 2
    assert joined == Subspace.span(2, 3, [(1, 0, 0), (0, 0, 1)])
    assert joined.join(e1) is joined and joined.join(Subspace.zero(2, 3)) is joined
    assert joined.coordinates((1, 0, 1)) == (1, 1)
    with pytest.raises(ValueError):
        joined.coordinates((0, 1, 0))


def test_shift_matrix_chain():
    # J pushes basis vectors one step down the chain and kills the last
    J = FpMatrix.shift(2, 3)
    assert J.apply((1, 0, 0)) == (0, 1, 0)
    assert J.apply((0, 1, 0)) == (0, 0, 1)
    assert J.apply((0, 0, 1)) == (0, 0, 0)


def test_invariant_closure_chain_generator():
    J = FpMatrix.shift(2, 2)
    full = invariant_closure([(1, 0)], [J])
    assert full.is_full()
    line = invariant_closure([(0, 1)], [J])
    assert line.basis == ((0, 1),)


def test_invariant_closure_identity_fixes_lines():
    space = invariant_closure([(1, 0)], [FpMatrix.identity(3, 2)])
    assert space.basis == ((1, 0),)


def test_invariant_closure_is_invariant(rng):
    for p in (2, 3):
        for _ in range(20):
            n = rng.randrange(2, 5)
            maps = [random_matrix(rng, p, n, n) for _ in range(rng.randrange(1, 3))]
            seed = [tuple(rng.randrange(p) for _ in range(n))]
            space = invariant_closure(seed, maps)
            assert is_invariant(space, maps)
            assert space.contains(seed[0])


def test_invariant_closure_matches_fixpoint_oracle(rng):
    for _ in range(400):
        p, n = rng.choice((2, 3, 5)), rng.randrange(1, 6)
        # mostly-zero entries leave room for proper invariant subspaces
        maps = [FpMatrix.from_rows(p, [[rng.randrange(p) if rng.random() < 0.4 else 0
                                        for _ in range(n)] for _ in range(n)])
                for _ in range(rng.randrange(1, 4))]
        seed = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(4))]
        if seed and rng.random() < 0.3:
            seed += [seed[0], (0,) * n]
        assert invariant_closure(seed, maps) == invariant_closure_fixpoint_oracle(seed, maps, p, n)
    for rule in all_canonical_rules(3):
        for n in range(1, 6):
            maps = component_matrices(rule, n)
            units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
            spare = tuple(rng.randrange(3) for _ in range(n))
            for seed in [[e] for e in units] + [[spare], units[-1:] + units[:1], []]:
                assert invariant_closure(seed, maps) == \
                    invariant_closure_fixpoint_oracle(seed, maps, 3, n)


def test_invariant_closure_rejects_bad_input():
    J = FpMatrix.shift(3, 2)
    with pytest.raises(ValueError, match="empty map list"):
        invariant_closure([(1, 0)], [])
    with pytest.raises(ValueError, match="length"):
        invariant_closure([(1, 0, 0)], [J])
    with pytest.raises(ValueError, match="mismatched moduli"):
        invariant_closure([(1, 0)], [J, FpMatrix.shift(2, 2)])


def test_common_invariant_subspaces_two_chains():
    J = FpMatrix.shift(2, 2)
    lattice = common_invariant_subspaces([J, J.transpose()])
    assert [s.dim for s in lattice] == [0, 2]


def test_common_invariant_subspaces_identity():
    lattice = common_invariant_subspaces([FpMatrix.identity(3, 2)])
    assert len(lattice) == 6  # {0}, four lines, the plane


def test_lattice_matches_exhaustive_oracle(rng):
    cases = [
        (2, 2, [FpMatrix.shift(2, 2), FpMatrix.shift(2, 2).transpose()]),
        (2, 4, [FpMatrix.shift(2, 4)]),
        (3, 2, [FpMatrix.identity(3, 2)]),
        (3, 4, [FpMatrix.shift(3, 4), FpMatrix.shift(3, 4).transpose()]),
    ]
    for p in (2, 3):
        for _ in range(6):
            n = rng.randrange(2, 5 if p == 2 else 4)
            cases.append((p, n, [random_matrix(rng, p, n, n)]))
        for _ in range(4):  # pairs, mostly simple: the lattice is read off Norton's test
            n = rng.randrange(2, 5 if p == 2 else 4)
            cases.append((p, n, [random_matrix(rng, p, n, n) for _ in range(2)]))
    cases += [(2, 2, [NO_EIGENVALUE_F2]), (2, 4, [NO_EIGENVALUE_F2_TWICE])]
    for p, n, maps in cases:
        expected = [s for s in all_subspaces(p, n) if is_invariant(s, maps)]
        assert common_invariant_subspaces(maps) == expected


def test_is_simple_examples():
    J2 = FpMatrix.shift(2, 2)
    assert is_simple([J2, J2.transpose()])
    assert not is_simple([FpMatrix.identity(3, 2)])


def test_is_simple_gated_on_onedim_cap(monkeypatch):
    # F_2^2 has three lines; past a cap of 2 the scan is refused before
    # any line is spun
    J2 = FpMatrix.shift(2, 2)
    assert is_simple([J2, J2.transpose()], caps=Caps(onedim_cap=3))
    monkeypatch.setattr(fp_linalg, "invariant_closure", None)
    with pytest.raises(CapExceeded, match="^3 one-dimensional subspaces exceed cap 2$"):
        is_simple([J2, J2.transpose()], caps=Caps(onedim_cap=2))


def test_is_simple_matches_scan_on_canonical_rules():
    # every radius-1 canonical rule over F_2, F_3 and F_5, its n-th powers
    for p, n_max in ((2, 7), (3, 6), (5, 3)):
        for rule in all_canonical_rules(p):
            for n in range(1, n_max + 1):
                maps = component_matrices(rule, n)
                assert is_simple(maps) == is_simple_scan_oracle(maps), (rule.coefficients, n)


def test_is_simple_matches_scan_on_random_maps():
    rng = random.Random(17)
    undecided = 0
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5 if p < 5 else 4)
        maps = [random_matrix(rng, p, n, n) for _ in range(rng.randrange(1, 4))]
        assert is_simple(maps) == is_simple_scan_oracle(maps), (p, maps)
        undecided += fp_linalg._norton(maps) is None
    assert undecided > 0  # some sets reach the fallback scan
    # no singular M - lambda*I: the fallback scan decides, both ways
    for maps, simple in (([NO_EIGENVALUE_F2], True), ([NO_EIGENVALUE_F2_TWICE], False)):
        assert fp_linalg._norton(maps) is None
        assert is_simple(maps) is simple is is_simple_scan_oracle(maps)


def test_norton_spins_two_lines_where_the_scan_spins_every_line(monkeypatch):
    # F_3 (2,1,1) at n = 10 has 29,524 lines; Norton's test spins one line
    # of a one-dimensional null(theta) and one of null(theta^T)
    maps = component_matrices(canonical_additive(3, [2, 1, 1]), 10)
    spins = []

    def counting_closure(seed, spin_maps):
        spins.append(seed)
        return invariant_closure(seed, spin_maps)

    monkeypatch.setattr(fp_linalg, "invariant_closure", counting_closure)
    assert is_simple(maps)
    assert len(spins) <= 2
    spins.clear()
    assert [s.dim for s in common_invariant_subspaces(maps)] == [0, 10]
    assert len(spins) <= 2


def test_norton_answers_at_once_in_one_dimension(monkeypatch):
    # F_p^1 has no proper nonzero subspace; the lambda scan would build
    # and reduce M - lambda*I for 100,000 lambdas before one is singular
    p = 100003
    maps = [FpMatrix(p, 1, 1, ((100000,),))] * 3
    nullspaces = []

    def counting_nullspace(matrix):
        nullspaces.append(matrix)
        return nullspace_basis(matrix)

    monkeypatch.setattr(fp_linalg, "nullspace_basis", counting_nullspace)
    assert is_simple(maps)
    assert common_invariant_subspaces(maps) == [Subspace.zero(p, 1), Subspace.full(p, 1)]
    assert nullspaces == []


def test_lattice_cap_gates_a_simple_module():
    # the shortcut still joins {0} and F_p^n under the lattice cap
    J = FpMatrix.shift(3, 6)
    with pytest.raises(CapExceeded, match="^invariant-subspace lattice exceeds 1 members$"):
        common_invariant_subspaces([J, J.transpose()], caps=Caps(lattice_cap=1))
    assert len(common_invariant_subspaces([J, J.transpose()], caps=Caps(lattice_cap=2))) == 2


@pytest.mark.parametrize("maps, message", [
    ([], "empty map list"),
    ([FpMatrix.zero(2, 2, 3)], "map dimensions 2x3 do not match ambient 2"),
    ([FpMatrix.identity(2, 2), FpMatrix.identity(2, 3)],
     "map dimensions 3x3 do not match ambient 2"),
    ([FpMatrix.identity(2, 2), FpMatrix.identity(3, 2)], "maps have mismatched moduli"),
], ids=["empty", "non-square", "unequal", "moduli"])
def test_check_maps_refuses_inconsistent_maps(maps, message):
    with pytest.raises(ValueError, match=message):
        _check_maps(maps)
    with pytest.raises(ValueError, match=message):
        is_simple(maps)


def test_check_maps_reads_modulus_and_dimension():
    assert _check_maps([FpMatrix.identity(3, 4), FpMatrix.shift(3, 4)]) == (3, 4)


def test_single_chain_pairs_are_simple():
    # the two opposite shift chains admit no common invariant subspace
    for p in (2, 3):
        for n in range(1, 7):
            J = FpMatrix.shift(p, n)
            assert is_simple([J, J.transpose()])
            lattice = common_invariant_subspaces([J, J.transpose()])
            assert [s.dim for s in lattice] == sorted({0, n})


def test_double_chain_odd_dimension():
    # J^2 and its transpose on odd n: the only nontrivial invariant
    # subspaces are the even- and odd-position coordinate subspaces
    for p in (2, 3):
        for n in (1, 3, 5):
            J2 = FpMatrix.shift(p, n).power(2)
            lattice = common_invariant_subspaces([J2, J2.transpose()])
            nontrivial = {s.basis for s in lattice if not is_trivial(s)}
            odd = Subspace.span(p, n, [tuple(1 if i == k else 0 for i in range(n))
                                       for k in range(0, n, 2)])
            even = Subspace.span(p, n, [tuple(1 if i == k else 0 for i in range(n))
                                        for k in range(1, n, 2)])
            expected = {s.basis for s in (odd, even) if not is_trivial(s)}
            assert nontrivial == expected


def test_one_dim_representatives_count():
    assert len(list(one_dim_representatives(3, 2))) == 4
    assert len(list(one_dim_representatives(2, 4))) == 15
    # the same lexicographic sequence as filtering all p^n vectors
    for p in (2, 3, 5):
        for n in range(6):
            assert list(one_dim_representatives(p, n)) == list(one_dim_filter_oracle(p, n))


def test_lattice_cap():
    with pytest.raises(CapExceeded):
        common_invariant_subspaces([FpMatrix.identity(2, 8)], caps=Caps(onedim_cap=10))


@pytest.mark.parametrize("enumerate_lattice, size, what", [
    # F_2^4 has 67 subspaces, all invariant under the identity
    (lambda caps: common_invariant_subspaces([FpMatrix.identity(2, 4)], caps=caps), 67,
     "invariant-subspace lattice"),
    # every one of the 15 partitions of 4 states is a congruence of the identity rule
    (lambda caps: enumerate_congruences(LocalAlgebra(4, 0, (0, 1, 2, 3)), caps), 15,
     "congruence lattice"),
    # every one of the 15 nonempty subsets of 4 states is closed under the identity rule
    (lambda caps: enumerate_subalgebras(LocalAlgebra(4, 0, (0, 1, 2, 3)), caps), 15,
     "subalgebra lattice"),
], ids=["invariant-subspaces", "congruences", "subalgebras"])
def test_join_closure_lattice_cap(enumerate_lattice, size, what):
    with pytest.raises(CapExceeded, match=f"^{what} exceeds 10 members$"):
        enumerate_lattice(Caps(lattice_cap=10))
    with pytest.raises(CapExceeded, match=f"^{what} exceeds {size - 1} members$"):
        enumerate_lattice(Caps(lattice_cap=size - 1))
    assert len(enumerate_lattice(Caps(lattice_cap=size))) == size


def test_join_closure_matches_plain_loop_oracle(monkeypatch):
    tables = []

    def recorded_array(typecode):
        tables.append(array(typecode))
        return tables[-1]

    monkeypatch.setattr(fp_linalg, "array", recorded_array)
    closures = []

    def checked(bottom, generators, join, limit, what):
        """`join_closure`, checked to return the oracle's members in the
        oracle's order, to hold the oracle's joins in its table, and to
        raise the oracle's CapExceeded one member short of the lattice.
        The table is checked on its own because a wrong entry below its
        row changes no member."""
        closures.append(what)
        generators = list(generators)
        members = join_closure(bottom, generators, join, limit, what)
        table = tables[-1]
        joins = []  # the oracle joins every member with every generator, row by row

        def recorded(a, b):
            joins.append(join(a, b))
            return joins[-1]

        assert members == join_closure_oracle(bottom, generators, recorded, limit, what)
        index = {member: i for i, member in enumerate(members)}
        assert list(table) == [index[joined] for joined in joins]
        messages = []
        for closure in (join_closure, join_closure_oracle):
            with pytest.raises(CapExceeded) as raised:
                closure(bottom, generators, join, len(members) - 1, what)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == f"{what} exceeds {len(members) - 1} members"
        return members

    rng = random.Random(20240809)
    for _ in range(30):  # bitmask OR: a semilattice with no structure of its own
        bits = rng.randrange(3, 11)
        generators = [rng.randrange(1 << bits) for _ in range(rng.randrange(1, 9))]
        generators += rng.sample(generators, rng.randrange(len(generators)))  # repeats
        checked(rng.choice([0, generators[0]]), generators, operator.or_, 1 << bits,
                "bitmask lattice")
    monkeypatch.setattr(ca_core, "join_closure", checked)
    monkeypatch.setattr(fp_linalg, "join_closure", checked)
    algebras = [low_image_algebra(rng, rng.randrange(5, 9), rng.randrange(2))
                for _ in range(20)]
    for number in (30, 60, 150):
        b2 = iterative_power(eca(number), 2)
        algebras.append(product([b2, b2]))
    for algebra in algebras:
        caps = Caps().scaled_to(algebra.m)
        enumerate_subalgebras(algebra, caps)
        enumerate_congruences(algebra, caps)
    maps_list = [component_matrices(canonical_additive(5, [0, 1, 0]), 3)]
    for p, sizes in ((2, (2, 3, 4)), (3, (2, 3)), (5, (2,))):
        for rule in all_canonical_rules(p):
            maps_list += [component_matrices(rule, n) for n in sizes]
    for maps in maps_list:
        common_invariant_subspaces(maps)
    assert closures.count("bitmask lattice") == 30
    assert closures.count("subalgebra lattice") == closures.count("congruence lattice") == 23
    assert closures.count("invariant-subspace lattice") == len(maps_list)


def test_join_closure_reads_most_joins_off_its_table(monkeypatch):
    calls = []

    def counting(bottom, generators, join, limit, what):
        def counted(a, b):
            calls.append(what)
            return join(a, b)
        return join_closure(bottom, generators, counted, limit, what)

    monkeypatch.setattr(ca_core, "join_closure", counting)
    monkeypatch.setattr(fp_linalg, "join_closure", counting)
    b2 = iterative_power(eca(150), 2)
    assert len(enumerate_subalgebras(product([b2, b2]))) == 307
    # joining each of the 307 members with each of 15 generators: 4,605
    assert len(calls) <= 2_303
    calls.clear()
    maps = component_matrices(canonical_additive(5, [0, 1, 0]), 3)
    assert len(common_invariant_subspaces(maps)) == 64
    # joining each of the 64 members with each of 31 line closures: 1,984
    assert len(calls) <= 992


def test_solve_and_nullspace():
    m = FpMatrix.from_rows(3, [[1, 2], [2, 1]])
    x = solve(m, (0, 0))
    assert x == (0, 0)
    singular = FpMatrix.from_rows(2, [[1, 1], [1, 1]])
    assert solve(singular, (1, 0)) is None
    assert solve(singular, (1, 1)) is not None
    basis = nullspace_basis(singular)
    assert basis == [(1, 1)]
    for vec in basis:
        assert singular.apply(vec) == (0, 0)


def test_matrix_power_and_rank():
    J = FpMatrix.shift(2, 3)
    assert J.power(3).is_zero()
    assert J.rank() == 2
    assert not J.is_invertible()
    assert FpMatrix.identity(5, 3).is_invertible()
