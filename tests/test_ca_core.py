import ast
import itertools
import math
import time
from pathlib import Path

import pytest

import casim
from casim import ca_core
from casim.affine_ca import (_bijection_conjugates, _relabeled_table, canonical_additive,
                             to_table)
from casim.caps import CapExceeded, Caps
from casim.ca_core import (Congruence, LocalAlgebra, SpaceTimeDiagram, _diagonal, _join,
                           _partition_of_labels, _principal_congruences, _subalgebra_closure,
                           _translations, are_isomorphic, canonical_partition,
                           check_translation, decode_word, eca, encode_word,
                           enumerate_congruences, enumerate_subalgebras, evolve, idempotents,
                           iterative_power, outputs_on, permutivity, product,
                           quotient, restrict, singleton, unpack, unravel)
from conftest import (check_translation_unravel_oracle, evolve_unravel_oracle,
                      iterative_power_unravel_oracle, join_closure_oracle, join_labels_oracle,
                      low_image_algebra, outputs_on_oracle, pack,
                      principal_congruence_stack_oracle, product_componentwise_oracle,
                      random_local_algebra, set_partitions, unravel_apply_oracle,
                      wolfram_number)


def random_lattice_algebra(rng):
    """Random rule of radius 0, 1 or 2 (arity 1, 3 or 5) on m <= 4 states,
    m <= 3 at radius 2, so the exhaustive lattice oracles stay small."""
    r = rng.randrange(3)
    return random_local_algebra(rng, rng.randrange(2, 5 if r < 2 else 4), r)


def principal_congruence_oracle(algebra, a, b):
    """Smallest congruence identifying a and b, as blocks: merge a and b,
    then merge the images of every related pair under every
    one-coordinate substitution over every context until nothing
    changes."""
    m, arity = algebra.m, algebra.arity
    contexts = list(itertools.product(range(m), repeat=arity - 1))
    block_of = {x: frozenset([x]) for x in range(m)}

    def relate(x, y):
        if block_of[x] is block_of[y]:
            return False
        merged = block_of[x] | block_of[y]
        for z in merged:
            block_of[z] = merged
        return True

    changed = relate(a, b)
    while changed:
        changed = False
        for x, y in itertools.combinations(range(m), 2):
            if block_of[x] is not block_of[y]:
                continue
            for pos in range(arity):
                for ctx in contexts:
                    u = algebra.apply(ctx[:pos] + (x,) + ctx[pos:])
                    v = algebra.apply(ctx[:pos] + (y,) + ctx[pos:])
                    changed |= relate(u, v)
    return canonical_partition(set(block_of.values()))


def least_state_labels(blocks):
    """Each state labeled by the least state of its block."""
    return tuple(min(block) for x in range(sum(map(len, blocks)))
                 for block in blocks if x in block)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra
        return ra != rb

    def labels(self):
        return [self.find(x) for x in range(len(self.parent))]


def congruences_union_find_oracle(algebra):
    """Every congruence's blocks, finest to coarsest: union-find
    principal congruences, which push the images under every
    non-constant translation not yet related, joined by union-find
    over the blocks of both partitions."""
    m = algebra.m
    maps = list(dict.fromkeys(t for translations in _translations(algebra)
                              for t in translations if len(set(t)) > 1))

    def principal(a, b):
        uf = _UnionFind(m)
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            if uf.union(x, y):
                queue.extend((t[x], t[y]) for t in maps
                             if uf.find(t[x]) != uf.find(t[y]))
        return _partition_of_labels(uf.labels())

    def join(p1, p2):
        uf = _UnionFind(m)
        for block in p1 + p2:
            for x in block[1:]:
                uf.union(block[0], x)
        return _partition_of_labels(uf.labels())

    principals = [principal(a, b) for a in range(m) for b in range(a + 1, m)]
    found = join_closure_oracle(tuple((x,) for x in range(m)), principals, join,
                                Caps().lattice_cap, "congruence lattice")
    return sorted(found, key=lambda part: (-len(part), part))


def permutivity_oracle(algebra):
    """Outermost-essential bijectivity witnesses by scanning every context."""
    m, r, arity = algebra.m, algebra.r, algebra.arity

    def images(pos):
        for ctx in itertools.product(range(m), repeat=arity - 1):
            yield {algebra.apply(ctx[:pos] + (x,) + ctx[pos:]) for x in range(m)}

    essentials = [pos for pos in range(arity) if any(len(out) > 1 for out in images(pos))]
    if not essentials:
        return (None, None)
    return tuple(pos - r if all(len(out) == m for out in images(pos)) else None
                 for pos in (essentials[0], essentials[-1]))


def test_wolfram_convention():
    rule = eca(150)
    # bit v of the rule number is the output for neighborhood value v
    assert rule.table == (0, 1, 1, 0, 1, 0, 0, 1)
    assert all(rule.apply((x, y, z)) == (x + y + z) % 2
               for x in (0, 1) for y in (0, 1) for z in (0, 1))
    assert wolfram_number(rule) == 150
    assert eca(90).apply((1, 0, 1)) == 0 and eca(90).apply((1, 1, 0)) == 1


def test_table_validation():
    with pytest.raises(ValueError, match=r"^table length 7 != m\^\(2r\+1\) = 8$"):
        LocalAlgebra(2, 1, (0,) * 7)
    # a count that a huge radius makes enormous is named, not computed
    for m, r in ((10 ** 9, 3 * 10 ** 6), (1000, 2000)):
        count = rf"{m}\^{2 * r + 1}"
        with pytest.raises(ValueError, match=rf"^table length 1 != m\^\(2r\+1\) = {count}$"):
            LocalAlgebra(m, r, (0,))
    with pytest.raises(ValueError, match=r"^table output 2 out of range$"):
        LocalAlgebra(2, 1, (0,) * 7 + (2,))
    # one output too large and one negative: whichever comes first in
    # table order is named
    with pytest.raises(ValueError, match=r"^table output 5 out of range$"):
        LocalAlgebra(3, 0, (0, 5, -1))
    with pytest.raises(ValueError, match=r"^table output -1 out of range$"):
        LocalAlgebra(3, 0, (-1, 2, 5))
    # a non-integer is refused, even one equal to a state listed before it
    for table, bad in (((0, 1.5), "1.5"), ((1, 1.0), "1.0"), ((0, None), "None")):
        with pytest.raises(ValueError, match=rf"^table output {bad} out of range$"):
            LocalAlgebra(2, 0, table)
    assert LocalAlgebra(2, 0, (False, True)) == LocalAlgebra(2, 0, (0, 1))


def test_repr_spells_out_small_tables_only():
    assert repr(eca(30)) == "LocalAlgebra(m=2, r=1, table=01111000)"
    assert repr(LocalAlgebra(11, 0, tuple(range(11)))) == (
        "LocalAlgebra(m=11, r=0, table=<11 entries>)")
    assert repr(LocalAlgebra(2, 2, (0,) * 32)) == f"LocalAlgebra(m=2, r=2, table={'0' * 32})"
    assert repr(LocalAlgebra(2, 3, (0,) * 128)) == "LocalAlgebra(m=2, r=3, table=<128 entries>)"


def test_diagram_validation():
    def diagram(*rows):
        return SpaceTimeDiagram(2, rows, 0, (0,) * len(rows), "background")

    assert diagram((0, 1), (1, 0)).width == 2
    for rows, message in ((((0, 1), (1, 2)), "row entry out of range"),
                          (((0, -1), (1, 0)), "row entry out of range"),
                          # the first bad row in row order is named
                          (((0, 2), (1,)), "row entry out of range"),
                          (((0, 1), (1,), (2, 0)), "rows must have equal length"),
                          (((0, 0.5), (1, 0)), "row entry out of range"),
                          (((0, 1), (1, 0.5, 0)), "rows must have equal length")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            diagram(*rows)
    assert diagram((True, False), (0, 1)).rows == ((1, 0), (0, 1))


def test_encodings_roundtrip():
    assert encode_word((1, 0, 2), 3) == 11
    assert decode_word(11, 3, 3) == (1, 0, 2)
    assert unpack([2], 2, 2) == (1, 0)
    assert unpack([5, 0], 2, 3) == (1, 2, 0, 0)
    assert unpack([4], 1, 5) == (4,)  # block size 1 is the identity
    assert pack((1, 2, 0, 0), 2, 3) == (5, 0)
    with pytest.raises(ValueError):
        unpack([9], 2, 3)
    # the first bad block in word order is named; a non-integer is refused
    for word, bad in (([4, 9, -1], 9), ([4, -1, 9], -1), ([0.5], 0.5)):
        with pytest.raises(ValueError, match=rf"^block value {bad} out of range for m=3, n=2$"):
            unpack(word, 2, 3)
    assert unpack([True], 2, 2) == (0, 1)
    assert unpack(iter([5, 0]), 2, 3) == (1, 2, 0, 0)


def test_unravel_examples():
    assert unravel(eca(150), (0, 0, 1, 0, 0), 2) == (1,)
    # a window of exactly 2r+1 cells collapses to the table output
    assert unravel(eca(110), (1, 0, 1), 1) == (eca(110).apply((1, 0, 1)),)
    rule211 = LocalAlgebra.from_function(3, 1, lambda x, y, z: (2 * x + y + z) % 3)
    assert unravel(rule211, (0, 0, 1, 0, 0), 2) == (2,)
    with pytest.raises(ValueError):
        unravel(eca(150), (0, 0, 1), 2)
    # the first state out of range in word order is named
    with pytest.raises(ValueError, match=r"^state 2 out of range for m=2$"):
        unravel(eca(110), (0, 2, 3))
    with pytest.raises(ValueError, match=r"^state -1 out of range for m=2$"):
        unravel(eca(110), (1, -1, 2))
    with pytest.raises(ValueError, match=r"^state 0.5 out of range for m=2$"):
        unravel(eca(90), (0, 0.5, 1))
    assert unravel(eca(90), (True, False, True, True)) == unravel(eca(90), (1, 0, 1, 1))


def test_unravel_matches_apply_oracle_on_both_routes(rng):
    """Either side of both switches of the bytes route: tables of 216, 256
    and one entry take it from _BYTES_PASS_MIN cells on, tables of 257
    and 343 entries never; words of bools too."""
    shortest = ca_core._BYTES_PASS_MIN
    for m, r in ((6, 1), (256, 0), (257, 0), (7, 1), (1, 1), (1, 3), (2, 3)):
        algebra = random_local_algebra(rng, m, r)
        for length in (2 * r + 1, shortest - 1, shortest, 700):
            words = [tuple(rng.randrange(m) for _ in range(length))]
            if m > 1:
                words.append(tuple(rng.random() < 0.5 for _ in range(length)))
            for word in words:
                for iterations in (1, 2, 5):
                    if length >= 2 * iterations * r + 1:
                        assert (unravel(algebra, word, iterations)
                                == unravel_apply_oracle(algebra, word, iterations))
                b = rng.randrange(m)
                for mode in ("background", "cyclic"):
                    assert (evolve(algebra, word, b, 3, mode)
                            == evolve_unravel_oracle(algebra, word, b, 3, mode))


def test_unravel_composes(rng):
    for _ in range(20):
        algebra = random_local_algebra(rng, rng.randrange(2, 4))
        word = tuple(rng.randrange(algebra.m) for _ in range(9))
        assert unravel(algebra, word, 3) == unravel(algebra, unravel(algebra, word, 1), 2)
        assert unravel(algebra, word, 3) == unravel(algebra, unravel(algebra, word, 2), 1)


def test_iterative_power_unit():
    rule = eca(110)
    assert iterative_power(rule, 1) is rule


def test_iterative_power_matches_blockwise_unravel(rng):
    for r, m, n in itertools.product(range(3), range(1, 4), range(1, 4)):
        entries = m ** (n * (2 * r + 1))
        if entries > 3 ** 10:
            continue  # m=3, r=2, n=3 needs 3^15 entries, over the default table cap
        for _ in range(4 if entries <= 3 ** 6 else 1):
            algebra = random_local_algebra(rng, m, r)
            power = iterative_power(algebra, n)
            assert power.m == m ** n and power.r == r
            assert power.table == iterative_power_unravel_oracle(algebra, n)


def test_iterative_power_frobenius_split():
    assert iterative_power(eca(150), 2).table == product([eca(150), eca(150)]).table


def test_iterative_power_composition_sample():
    for number in (30, 90, 110, 150):
        rule = eca(number)
        assert iterative_power(iterative_power(rule, 2), 2).table == \
            iterative_power(rule, 4).table


def test_iterative_power_cap():
    with pytest.raises(CapExceeded):
        iterative_power(eca(150), 4, Caps(table_cap=1000))
    # at the cap the power is built, one entry under it is refused
    assert iterative_power(eca(150), 3, Caps(table_cap=2 ** 9)).m == 8
    with pytest.raises(CapExceeded, match=r"2\^9 entries"):
        iterative_power(eca(150), 3, Caps(table_cap=2 ** 9 - 1))


def test_iterative_power_cap_checked_before_arithmetic():
    # the gate must not build 2^15000 to compare it with the cap
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"2\^15000"):
        iterative_power(eca(150), 5000)
    one_state = LocalAlgebra(1, 1, (0,))
    assert iterative_power(one_state, 100000) is one_state
    assert time.perf_counter() - start < 1


def test_product_examples():
    rule = eca(110)
    assert product([singleton(1), rule]).table == rule.table
    pair = product([eca(90), eca(90)])
    assert pair.m == 4
    nb = (encode_word((0, 1), 2), encode_word((1, 0), 2), encode_word((1, 1), 2))
    assert pair.apply(nb) == encode_word((1, 0), 2)
    with pytest.raises(ValueError):
        product([eca(90), LocalAlgebra(2, 0, (0, 1))])


def test_product_matches_componentwise_oracle(rng):
    """The row-memo kernel against the neighborhood-by-neighborhood
    oracle at r = 0, 1 and 2, on one to four factors: random tables,
    whose rows rarely repeat; iterative powers of canonical rules, whose
    rows mostly repeat; 1-state factors; and one factor used twice.
    Products stay within 4096 entries so the oracle stays quick."""
    for r in range(3):
        arity = 2 * r + 1
        random_tables = [random_local_algebra(rng, m, r) for m in (1, 2, 2, 3, 4)]
        powers = [iterative_power(to_table(canonical_additive(p, [rng.randrange(p)
                                                                  for _ in range(arity)])), n)
                  for p, n in ((2, 1), (2, 2), (3, 1), (2, 1))]
        pool = random_tables + powers
        one, power = singleton(r), powers[0]
        cases = [[power], [power, power], [one, power, one], [power, one, power, one], [one]]
        for _ in range(16):
            factors = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
            while math.prod(a.m for a in factors) ** arity > 4096:
                factors.pop()
            cases.append(factors)
        for factors in cases:
            combined = product(factors)
            assert combined.m == math.prod(a.m for a in factors)
            assert combined.table == product_componentwise_oracle(factors)


# the F_3 rules whose B^[2] x B^[1] (27 states, 19,683 entries) the decide
# benchmark relabels, and ECA 150's B^[5] (32 states, 32,768 entries)
DECIDE_F3_RULES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1))


def test_outputs_on_matches_oracle(rng):
    """The itemgetter kernel against the comprehension it replaced, on
    seeded random algebras, with state lists that repeat states, hold
    one state or are empty, as lists and as tuples."""
    for m, r in itertools.product(range(1, 13), range(3)):
        algebra = random_local_algebra(rng, m, r)
        longest = max(k for k in range(1, 2 * m + 3) if k ** algebra.arity <= 4096)
        picks = [rng.randrange(m) for _ in range(longest)]
        lists = [[], [rng.randrange(m)], picks[:1] * 2, picks, list(range(m)),
                 sorted(set(picks)), picks[::-1] + picks[:1]]
        for states in lists:
            for given in (states, tuple(states)):
                assert outputs_on(algebra, given) == outputs_on_oracle(algebra, states)


@pytest.mark.parametrize("coefficients", DECIDE_F3_RULES)
def test_product_and_power_match_oracles_on_27_state_tables(coefficients):
    rule = to_table(canonical_additive(3, coefficients))
    square = iterative_power(rule, 2)
    assert square.table == iterative_power_unravel_oracle(rule, 2)
    assert product([square, rule]).table == product_componentwise_oracle([square, rule])


def test_product_and_power_match_oracles_on_eca150_decide_tables():
    rule = eca(150)
    assert iterative_power(rule, 5).table == iterative_power_unravel_oracle(rule, 5)
    cube = iterative_power(rule, 3)
    for factors in ([cube, rule], [rule] * 4):
        assert product(factors).table == product_componentwise_oracle(factors)


def test_evolve_seed_rows_of_2x_y_z():
    rule = LocalAlgebra.from_function(3, 1, lambda x, y, z: (2 * x + y + z) % 3)
    diagram = evolve(rule, (1,), 0, 4)
    expected = [(1,), (1, 1, 2), (1, 2, 2, 1, 1), (1, 0, 0, 1, 0, 0, 2),
                (1, 1, 2, 1, 1, 2, 2, 2, 1)]
    assert [diagram.window(t, 1) for t in range(5)] == expected
    assert diagram.origin == -4
    assert diagram.background == (0,) * 5
    assert all(len(row) == 9 for row in diagram.rows)


def test_evolve_zero_rule():
    diagram = evolve(LocalAlgebra(2, 1, (0,) * 8), (1, 1, 0, 1), 0, 3)
    assert all(all(x == 0 for x in row) for row in diagram.rows[1:])


def test_evolve_2x_plus_z():
    rule = LocalAlgebra.from_function(3, 1, lambda x, y, z: (2 * x + z) % 3)
    diagram = evolve(rule, (1,), 0, 2)
    assert diagram.window(2, 1) == (1, 0, 1, 0, 1)


def test_evolve_non_quiescent_background():
    # x+y+z+1 has no fixed background: 0 -> 1 -> 0 -> ...
    diagram = evolve(eca(105), (1,), 0, 3)
    assert diagram.background == (0, 1, 0, 1)
    assert diagram.cell(1, 5) == 1  # far outside the light cone


def test_evolve_cyclic_matches_background_interior(rng):
    for _ in range(10):
        algebra = random_local_algebra(rng, rng.randrange(2, 4))
        word = tuple(rng.randrange(algebra.m) for _ in range(5))
        steps = 3
        ring = word + (0,) * 14
        cyclic = evolve(algebra, ring, 0, steps, "cyclic")
        background = evolve(algebra, word, 0, steps)
        # cells whose light cone never touches the padding or the seam
        for t in range(steps + 1):
            for i in range(t, 5 - t):
                assert cyclic.rows[t][i] == background.cell(t, i)


def test_cyclic_diagram_window_and_cell():
    diagram = evolve(eca(30), (0, 1, 1, 0, 1), steps=2, mode="cyclic")
    assert diagram.rows == ((0, 1, 1, 0, 1), (0, 1, 0, 0, 1), (0, 1, 1, 1, 1))
    # a cyclic row is its own window, and cells wrap around the ring
    assert [diagram.window(t, 1) for t in range(3)] == list(diagram.rows)
    assert [diagram.cell(1, i) for i in (-1, 0, 2, 5, 7, 12)] == [1, 0, 0, 0, 0, 0]


def test_evolve_cyclic_matches_per_cell_oracle(rng):
    # rings shorter than 2r+1 and than r, and rings read as bytes
    shortest = ca_core._BYTES_PASS_MIN
    for r, n in ([(r, n) for r in range(3) for n in range(1, 8)]
                 + [(3, 1), (3, 2), (1, shortest - 2), (2, shortest), (1, 40)]):
        algebra = random_local_algebra(rng, rng.randrange(2, 4) if r < 3 else 2, r)
        ring = tuple(rng.randrange(algebra.m) for _ in range(n))
        rows = [ring]
        for _ in range(4):
            prev = rows[-1]
            rows.append(tuple(algebra.apply([prev[(i + k) % n] for k in range(-r, r + 1)])
                              for i in range(n)))
        diagram = evolve(algebra, ring, 0, 4, "cyclic")
        assert diagram.rows == tuple(rows)


def test_evolve_matches_unravel_oracle(rng):
    for r in range(3):
        for _ in range(12):
            algebra = random_local_algebra(rng, rng.randrange(1, 5), r)
            word = tuple(rng.randrange(algebra.m) for _ in range(rng.randrange(1, 9)))
            background = rng.randrange(algebra.m)
            steps = rng.randrange(7)
            for mode in ("background", "cyclic"):
                assert (evolve(algebra, word, background, steps, mode)
                        == evolve_unravel_oracle(algebra, word, background, steps, mode))


def test_evolve_validation():
    # the first state out of range in word order is named
    for word, background, message in (((0, 2, 3), 0, "state 2 out of range for m=2"),
                                      ((1, -1, 2), 0, "state -1 out of range for m=2"),
                                      ((0, 0.5, 1), 0, "state 0.5 out of range for m=2"),
                                      ((0, 1), 2, "background state 2 out of range"),
                                      ((0, 1), 0.5, "background state 0.5 out of range")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            evolve(eca(110), word, background, 2)
    for mode in ("background", "cyclic"):
        with pytest.raises(ValueError, match="^step count must be nonnegative$"):
            evolve(eca(110), (0, 1), 0, -1, mode)
    assert evolve(eca(110), (True, False), True, 2) == evolve(eca(110), (1, 0), 1, 2)
    # row 0 is the word as given, bools and all, in either mode
    row = evolve(eca(90), (True, False, True), 0, 2).rows[0]
    assert row == (0, 0, 1, 0, 1, 0, 0) and [type(x) for x in row[2:5]] == [bool] * 3
    assert evolve(eca(90), (True, False, True), 0, 2, "cyclic").rows[0] == (True, False, True)
    assert all(type(x) is bool
               for x in evolve(eca(90), (True, False, True), 0, 2, "cyclic").rows[0])


def test_evolve_gated_on_table_cap():
    # 3 steps from a 3-cell word at radius 1: 4 rows of 3 + 2*3 = 9 cells
    # in background mode, 4 rows of the 3-cell ring in cyclic mode
    word = (1, 0, 1)
    assert evolve(eca(30), word, 0, 3, caps=Caps(table_cap=36)).width == 9
    with pytest.raises(CapExceeded, match="^space-time diagram needs 4x9 cells, cap 35$"):
        evolve(eca(30), word, 0, 3, caps=Caps(table_cap=35))
    assert evolve(eca(30), word, 0, 3, "cyclic", Caps(table_cap=12)).width == 3
    with pytest.raises(CapExceeded, match="^space-time diagram needs 4x3 cells, cap 11$"):
        evolve(eca(30), word, 0, 3, "cyclic", Caps(table_cap=11))
    # checked before the first step: 10^6 steps would take minutes
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        evolve(eca(30), (1,), 0, 10 ** 6)
    assert time.perf_counter() - start < 1.0


def test_subalgebra_examples():
    assert enumerate_subalgebras(eca(150)) == [(0,), (1,), (0, 1)]
    assert enumerate_subalgebras(eca(90)) == [(0,), (0, 1)]


def subalgebras_frontier_oracle(algebra):
    """Every nonempty closed carrier, by adjoining each outside state to
    each closed carrier found so far until nothing new appears."""
    closed = {_subalgebra_closure(algebra, [s]) for s in range(algebra.m)}
    frontier = list(closed)
    while frontier:
        carrier = frontier.pop()
        for s in set(range(algebra.m)) - set(carrier):
            grown = _subalgebra_closure(algebra, carrier + (s,))
            if grown not in closed:
                closed.add(grown)
                frontier.append(grown)
    return sorted(closed, key=lambda c: (len(c), c))


def test_subalgebras_match_powerset_oracle(rng):
    larger = [random_local_algebra(rng, rng.randrange(5, 8), rng.randrange(2)) for _ in range(12)]
    for algebra in [random_lattice_algebra(rng) for _ in range(15)] + larger:
        oracle = []
        for size in range(1, algebra.m + 1):
            for subset in itertools.combinations(range(algebra.m), size):
                closed = all(algebra.apply(nb) in subset
                             for nb in itertools.product(subset, repeat=algebra.arity))
                if closed:
                    oracle.append(subset)
        oracle.sort(key=lambda c: (len(c), c))
        assert enumerate_subalgebras(algebra) == oracle
        for carrier in oracle:
            sub = restrict(algebra, carrier)
            for nb in itertools.product(range(len(carrier)), repeat=algebra.arity):
                out = algebra.apply([carrier[x] for x in nb])
                assert carrier[sub.apply(nb)] == out


@pytest.mark.parametrize("number", [30, 110, 150])
def test_subalgebras_match_frontier_oracle_on_eca_products(number):
    b = eca(number)
    b2 = iterative_power(b, 2)
    for algebra in (b2, product([b, b2]), product([b2, b2])):
        assert enumerate_subalgebras(algebra) == subalgebras_frontier_oracle(algebra)


def test_subalgebras_match_frontier_oracle_where_joins_reach_known_carriers(rng):
    b = to_table(canonical_additive(3, [2, 1, 1]))
    algebra = product([b, iterative_power(b, 2)])
    found = enumerate_subalgebras(algebra, Caps().scaled_to(algebra.m))
    assert len(found) == 40
    assert found == subalgebras_frontier_oracle(algebra)
    for _ in range(10):
        algebra = low_image_algebra(rng, rng.randrange(5, 9), rng.randrange(2))
        assert enumerate_subalgebras(algebra) == subalgebras_frontier_oracle(algebra)


def test_subalgebra_joins_stop_at_known_carriers(monkeypatch):
    b2 = iterative_power(eca(150), 2)
    algebra = product([b2, b2])
    evaluated = []

    def counted(rule, states):
        outputs = outputs_on(rule, states)
        evaluated.append(len(outputs))
        return outputs

    monkeypatch.setattr(ca_core, "outputs_on", counted)
    found = enumerate_subalgebras(algebra)
    monkeypatch.undo()
    assert len(found) == 307
    assert found == subalgebras_frontier_oracle(algebra)
    # joins that re-derive a carrier already found evaluate 2,234,041
    assert sum(evaluated) <= 1_121_116


def test_full_carrier_always_closed(rng):
    algebra = random_local_algebra(rng, 4)
    assert tuple(range(4)) in enumerate_subalgebras(algebra)


def test_congruence_examples(z4_rule):
    parts = [c.blocks for c in enumerate_congruences(z4_rule)]
    assert ((0, 2), (1, 3)) in parts
    assert tuple((s,) for s in range(4)) in parts
    assert ((0, 1, 2, 3),) in parts
    trivial = [c.blocks for c in enumerate_congruences(eca(150))]
    assert trivial == [((0,), (1,)), ((0, 1),)]


def test_congruences_match_partition_oracle(rng):
    for _ in range(10):
        algebra = random_lattice_algebra(rng)
        oracle = set()
        for part in set_partitions(list(range(algebra.m))):
            blocks = canonical_partition(part)
            label = {}
            for k, block in enumerate(blocks):
                for x in block:
                    label[x] = k
            # relate two neighborhoods whenever all positions are related
            compatible = all(
                label[algebra.apply(nb)] == label[algebra.apply(other)]
                for nb in itertools.product(range(algebra.m), repeat=algebra.arity)
                for other in itertools.product(range(algebra.m), repeat=algebra.arity)
                if all(label[a] == label[b] for a, b in zip(nb, other)))
            if compatible:
                oracle.add(blocks)
        congruences = enumerate_congruences(algebra)
        assert {c.blocks for c in congruences} == oracle
        for congruence in congruences:
            image = quotient(congruence)
            block_of = {x: k for k, block in enumerate(congruence.blocks) for x in block}
            for nb in itertools.product(range(algebra.m), repeat=algebra.arity):
                assert image.apply([block_of[x] for x in nb]) == block_of[algebra.apply(nb)]


def translation_columns(algebra):
    """columns[x]: the images of x under the distinct non-constant basic
    translations, as enumerate_congruences builds them."""
    maps = list(dict.fromkeys(t for translations in _translations(algebra)
                              for t in translations if len(set(t)) > 1))
    return list(zip(*maps)) or [()] * algebra.m


def test_principal_congruences_match_context_scan_oracle(rng):
    for _ in range(20):
        r = rng.randrange(3)
        algebra = random_local_algebra(rng, rng.randrange(2, 7 if r < 2 else 4), r)
        m = algebra.m
        columns = translation_columns(algebra)
        pairs = list(itertools.combinations(range(m), 2))
        assert _principal_congruences(columns) == \
            [least_state_labels(principal_congruence_oracle(algebra, a, b)) for a, b in pairs] == \
            [principal_congruence_stack_oracle(columns, a, b) for a, b in pairs]


@pytest.mark.parametrize("number", [110, 150])
def test_principal_congruences_match_stack_oracle_on_five_blocks(number):
    """B^[5], 32 states: 496 pairs, whose graph has long cycles."""
    columns = translation_columns(iterative_power(eca(number), 5))
    assert _principal_congruences(columns) == [
        principal_congruence_stack_oracle(columns, a, b)
        for a, b in itertools.combinations(range(32), 2)]


class _CountingColumns(list):
    def __init__(self, columns):
        super().__init__(columns)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_principal_congruences_read_each_pair_column_four_times():
    """Two reads per pair to walk the pair graph and two to label its
    component, however many principal runs would reach it."""
    b2 = iterative_power(eca(30), 2)
    columns = _CountingColumns(translation_columns(product([b2, b2])))
    m = len(columns)
    principals = _principal_congruences(columns)
    assert len(principals) == m * (m - 1) // 2
    assert columns.reads <= 4 * (m * (m - 1) // 2)


def test_union_find_join_matches_label_merge_oracle(rng):
    for m in range(1, 13):
        discrete, full = tuple(range(m)), (0,) * m
        randoms = []
        for _ in range(6):
            label = [rng.randrange(m) for _ in range(m)]
            randoms.append(least_state_labels(_partition_of_labels(label)))
        vectors = [discrete, full] + randoms
        for l1 in vectors:
            for l2 in vectors + [l1]:
                assert _join(l1, l2) == join_labels_oracle(l1, l2)


@pytest.mark.parametrize("number", [30, 110, 150])
def test_congruences_match_union_find_oracle_on_eca_powers(number):
    """Restrictions of B^[3] and B^[2]xB^[2] (8 and 16 states), whose
    translations have long cycles."""
    b = eca(number)
    b2 = iterative_power(b, 2)
    caps = Caps().scaled_to(16)
    for power in (iterative_power(b, 3), product([b2, b2])):
        for carrier in enumerate_subalgebras(power):
            algebra = restrict(power, carrier)
            assert [c.blocks for c in enumerate_congruences(algebra, caps)] == \
                congruences_union_find_oracle(algebra)


def test_quotient_parity(z4_rule):
    parity = Congruence.from_blocks(z4_rule, [[0, 2], [1, 3]])
    image = quotient(parity)
    assert image.table == eca(90).table
    assert are_isomorphic(image, eca(90)) == (0, 1)


def test_quotient_trivial_cases(rng):
    algebra = random_local_algebra(rng, 3)
    discrete = Congruence.from_blocks(algebra, [[0], [1], [2]])
    assert quotient(discrete).table == algebra.table
    full = Congruence.from_blocks(algebra, [[0, 1, 2]])
    assert quotient(full).m == 1


def test_congruence_rejects_incompatible(z4_rule):
    # x+z mod 4 with z = 1: putting 1 for 0 at offset -1 turns output 1 into 2
    with pytest.raises(ValueError, match=r"states 0,1 at position -1 "):
        Congruence.from_blocks(z4_rule, [[0, 1], [2, 3]])
    # an empty block is refused like any other non-partition
    for blocks in (((), (0,), (1,)), ((0,), (1,), ()), ((0,),), ((0, 1), (1,))):
        with pytest.raises(ValueError, match="^blocks do not partition the state set$"):
            Congruence(eca(90), blocks)
        with pytest.raises(ValueError, match="^blocks do not partition the state set$"):
            Congruence.from_blocks(eca(90), [list(block) for block in blocks])
    with pytest.raises(ValueError, match="^block elements must be ascending$"):
        Congruence(eca(90), ((1, 0),))
    with pytest.raises(ValueError, match="^blocks must be sorted by least element$"):
        Congruence(eca(90), ((1,), (0,)))


def test_restrict_requires_closure():
    with pytest.raises(ValueError):
        restrict(eca(90), (1,))
    for not_a_carrier in ((-1,), (2,), (0, 0), (1.0,), (0.5,)):
        with pytest.raises(ValueError, match="is not a set of states below 2$"):
            restrict(eca(150), not_a_carrier)
    sub = restrict(eca(150), (1,))
    assert sub.m == 1 and sub.table == (0,)


def test_iso_identity_and_failure():
    assert are_isomorphic(eca(150), eca(150)) == (0, 1)
    assert are_isomorphic(eca(90), eca(150)) is None


def _least_conjugating_permutation(a, b):
    """Brute-force oracle: the least permutation phi with
    phi(f(x)) = g(phi(x)) on every neighborhood, or None."""
    neighborhoods = list(itertools.product(range(a.m), repeat=a.arity))
    return next((phi for phi in itertools.permutations(range(a.m))
                 if all(phi[a.apply(nb)] == b.apply([phi[x] for x in nb])
                        for nb in neighborhoods)), None)


def _pair_with_collapsing_map(rng):
    """a = c x k, and a 4-state b holding c on {0, 1}, for 2-state rules
    c and k with f(0,0,0) = 1, f(1,1,1) = 0 and each output 4 times.
    Every state of a and b has one signature, and (x, i) -> x is a
    homomorphism from a into b that is not a bijection."""
    def swap_rule():
        while True:
            table = (1,) + tuple(rng.randrange(2) for _ in range(6)) + (0,)
            if sum(table) == 4:
                return LocalAlgebra(2, 1, table)

    c, k = swap_rule(), swap_rule()
    table = [c.apply(nb) if max(nb) < 2 else None
             for nb in itertools.product(range(4), repeat=3)]
    table[42], table[63] = 3, 2  # f(2,2,2) = 3 and f(3,3,3) = 2
    pool = [s for s in range(4) for _ in range(16 - table.count(s))]
    rng.shuffle(pool)
    fill = iter(pool)
    return product([c, k]), LocalAlgebra(4, 1, tuple(
        next(fill) if out is None else out for out in table))


def test_iso_returns_lex_least(rng):
    # differential against the permutation oracle: None exactly when no
    # conjugating permutation exists, otherwise the least one.  Relabeled
    # pairs (random, low-image and symmetric rules, which have many
    # witnesses), relabeled pairs with one entry changed, and unrelated
    # random pairs
    shapes = [(m, r) for m in range(2, 6) for r in (0, 1)] + [(2, 2), (3, 2)]
    found = missed = 0
    for m, r in shapes:
        arity = 2 * r + 1
        symmetric = LocalAlgebra.from_function(m, r, lambda *x: x[0] + x[-1] + 1)
        for trial in range(8):
            if trial % 4 == 3:
                algebra = symmetric
            elif trial % 4 == 2:
                algebra = LocalAlgebra(m, r, tuple(rng.randrange(2) for _ in range(m ** arity)))
            else:
                algebra = random_local_algebra(rng, m, r)
            sigma = list(range(m))
            rng.shuffle(sigma)
            inverse = [sigma.index(s) for s in range(m)]
            relabeled = LocalAlgebra(m, r, tuple(
                sigma[algebra.apply([inverse[y] for y in nb])]
                for nb in itertools.product(range(m), repeat=arity)))
            assert _relabeled_table(algebra, sigma) == relabeled
            assert _bijection_conjugates(algebra, relabeled, sigma)
            assert _relabeled_table(relabeled, inverse) == algebra
            assert _bijection_conjugates(relabeled, algebra, inverse)
            changed = list(relabeled.table)
            v = rng.randrange(len(changed))
            changed[v] = (changed[v] + 1 + rng.randrange(m - 1)) % m
            pairs = [(algebra, relabeled), (algebra, LocalAlgebra(m, r, tuple(changed))),
                     (algebra, random_local_algebra(rng, m, r))]
            for a, b in pairs:
                expected = _least_conjugating_permutation(a, b)
                assert are_isomorphic(a, b) == expected, (a, b)
                found += expected is not None
                missed += expected is None
    # propagation must not map two states to one image
    for _ in range(4):
        a, b = _pair_with_collapsing_map(rng)
        assert are_isomorphic(a, b) == _least_conjugating_permutation(a, b), (a, b)
    assert found > 0 and missed > 0


def test_iso_is_equivalence(rng):
    for _ in range(10):
        a = random_local_algebra(rng, 3)
        b = random_local_algebra(rng, 3)
        ab = are_isomorphic(a, b)
        ba = are_isomorphic(b, a)
        assert (ab is None) == (ba is None)  # symmetry: witnesses invert
        if ab is not None:
            relabeled = [b.apply([ab[x] for x in nb])
                         for nb in itertools.product(range(3), repeat=3)]
            assert relabeled == [ab[x] for x in a.table]


def test_signatures_computed_once_per_algebra(monkeypatch):
    calls = []
    diagonal = ca_core._diagonal

    def counted(algebra):
        calls.append(algebra)
        return diagonal(algebra)

    monkeypatch.setattr(ca_core, "_diagonal", counted)
    # more algebras than a small LRU cache would hold, each read repeatedly
    algebras = [LocalAlgebra.from_function(3, 1, lambda x, y, z, c=c: x + 2 * z + c * y)
                for c in range(3)] + [eca(n) for n in (30, 45, 75, 86, 89, 101, 135, 149)]
    pairs = [(a, _relabeled_table(a, list(range(a.m))[::-1])) for a in algebras]
    for _ in range(2):
        for a, b in pairs:
            ca_core.algebra_fingerprint(a)
            are_isomorphic(a, b)
            ca_core.algebra_fingerprint(b)
    assert sorted(map(id, calls)) == sorted(id(x) for pair in pairs for x in pair)


def test_iso_cap():
    big = LocalAlgebra(12, 0, tuple(range(12)))
    other = LocalAlgebra(12, 0, tuple((x + 1) % 12 for x in range(12)))
    with pytest.raises(CapExceeded):
        are_isomorphic(big, other)


def test_idempotents():
    assert idempotents(eca(105)) == []
    assert idempotents(eca(150)) == [0, 1]
    assert idempotents(LocalAlgebra(2, 1, (0,) * 8)) == [0]


def test_diagonal_matches_one_lookup_per_state(rng):
    """The diagonal read as every step-th table entry against f(s, ..., s)
    looked up state by state, on seeded random algebras with 1 to 12
    states and r = 0, 1 and 2."""
    for m, r in itertools.product(range(1, 13), range(3)):
        if m ** (2 * r + 1) > 4096:
            continue
        algebra = random_local_algebra(rng, m, r)
        assert _diagonal(algebra) == [algebra.apply((s,) * algebra.arity) for s in range(m)]


def test_permutivity():
    assert permutivity(eca(60)) == (-1, 0)
    assert permutivity(eca(150)) == (-1, 1)
    assert permutivity(LocalAlgebra(2, 1, (0,) * 8)) == (None, None)
    assert permutivity(eca(30)) == (-1, None)  # left-permutive only
    assert permutivity(eca(110)) == (None, None)


def test_permutivity_matches_context_scan_oracle(rng):
    for _ in range(60):
        r = rng.randrange(3)
        m = rng.randrange(1, 5 if r < 2 else 4)
        algebra = random_local_algebra(rng, m, r)
        if rng.randrange(2):
            # linear rules mod m: permutive where the coefficient is a unit
            coeffs = [rng.randrange(m) for _ in range(algebra.arity)]
            algebra = LocalAlgebra.from_function(
                m, r, lambda *nb: sum(c * x for c, x in zip(coeffs, nb)))
        assert permutivity(algebra) == permutivity_oracle(algebra)
    for number in range(256):
        assert permutivity(eca(number)) == permutivity_oracle(eca(number))


def test_check_translation_projection(z4_rule):
    scanned = check_translation(eca(90), z4_rule, [0, 1, 0, 1], "project", 7, 1)
    assert scanned.ok and scanned.sample is None
    bad = check_translation(eca(150), z4_rule, [0, 1, 0, 1], "project", 7, 1)
    assert not bad.ok and bad.counterexample is not None and bad.sample is None
    # 4^9 = 262144 words exceed the exhaustive limit, so a sample is drawn
    sampled = check_translation(eca(90), z4_rule, [0, 1, 0, 1], "project", 9, 1, sample=40)
    assert sampled.ok and sampled.sample == 40
    bad = check_translation(eca(150), z4_rule, [0, 1, 0, 1], "project", 9, 1, sample=40)
    assert not bad.ok and len(bad.counterexample) == 9 and bad.sample == 40


def test_check_translation_identity_and_embed(z4_rule):
    rule = eca(110)
    assert check_translation(rule, rule, [0, 1], "embed", 7, 2)
    # doubling embeds the parity rule into x+z mod 4
    assert check_translation(eca(90), z4_rule, {0: 0, 1: 2}, "embed", 7, 1)
    with pytest.raises(ValueError):
        check_translation(eca(90), z4_rule, [0, 0], "embed", 7, 1)
    # injectivity is judged on the source's own states: a key outside
    # them neither helps nor hides a collision
    zeros = LocalAlgebra(3, 1, (0,) * 27)
    for state_map in ({0: 0, 1: 0}, {0: 0, 1: 0, 2: 1}):
        with pytest.raises(ValueError, match="^embedding state maps must be injective$"):
            check_translation(eca(0), zeros, state_map, "embed")
    assert check_translation(eca(0), zeros, {0: 0, 1: 2, 2: 1}, "embed")


def test_check_translation_matches_unravel_oracle(rng, z4_rule):
    cases = [(eca(90), z4_rule, [0, 1, 0, 1], "project", 7, 1),
             (eca(150), z4_rule, [0, 1, 0, 1], "project", 7, 1),
             (eca(90), z4_rule, [0, 1, 0, 1], "project", 9, 1),  # 4^9 words: sampled
             (eca(150), z4_rule, [0, 1, 0, 1], "project", 9, 1),
             (eca(110), eca(110), [0, 1], "embed", 7, 2),
             (eca(90), z4_rule, {0: 0, 1: 2}, "embed", 7, 1),
             (eca(90), z4_rule, {0: 0, 1: 2}, "embed", 17, 2),  # 2^17 words: sampled
             (eca(30), z4_rule, [1, 3], "embed", 17, 0),
             # windows long enough for the bytes route on both sides
             (eca(90), z4_rule, {0: 0, 1: 2}, "embed", 30, 3),
             (eca(150), z4_rule, [0, 1, 0, 1], "project", 30, 2),
             (eca(30), z4_rule, [1, 3], "embed", 30, 1)]
    for _ in range(12):  # random maps, mostly refuted
        r = rng.randrange(3)
        small = random_local_algebra(rng, 2, r)
        large = random_local_algebra(rng, 3, r)
        width = rng.choice((2 * r + 1, 7, 11))
        cases.append((small, large, rng.sample(range(3), 2), "embed", width, rng.randrange(2)))
        cases.append((small, large, [rng.randrange(2) for _ in range(3)], "project", width, 1))
    for a, b, state_map, kind, width, steps in cases:
        if width < 2 * a.r * steps + 1:
            continue
        for sample, seed in ((40, 0), (25, 7)):
            assert (check_translation(a, b, state_map, kind, width, steps, sample, seed)
                    == check_translation_unravel_oracle(a, b, state_map, kind, width, steps,
                                                        sample, seed))


def test_check_translation_validation(z4_rule):
    # the first bad image in state order is named, whether missing or out of range
    for state_map, message in (({0: 5}, "state map image 5 out of range"),
                               ({1: 5}, "state map is not total: missing 0"),
                               ([0, 7, 9], "state map image 7 out of range"),
                               ([0, 0.5], "state map image 0.5 out of range"),
                               ({0: 0, 1: None}, "state map image None out of range")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_translation(eca(90), z4_rule, state_map, "embed", 7, 1)
    with pytest.raises(ValueError, match="^iteration count must be nonnegative$"):
        check_translation(eca(90), z4_rule, [0, 2], "embed", 7, -1)
    assert check_translation(eca(90), z4_rule, [False, 2], "embed", 7, 1)


def test_no_assert_statements_in_package():
    # assert vanishes under python -O, so no check in the package may use it
    for path in sorted(Path(casim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} uses assert at lines {lines}"
