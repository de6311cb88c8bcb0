import itertools
import random
import weakref

import pytest

from casim.affine_ca import (AffineAlgebra, CanonicalAdditive, _affine_outputs,
                             _bijection_conjugates, _dimension_over, _relabeled_table,
                             classify_affine, e0_evolution, fit_affine, quotient_affine,
                             subalgebra_affine, to_table)
from casim import affine_ca, ca_core, simulation
from casim.caps import DEFAULT_CAPS, CapExceeded, require
from casim.ca_core import (Congruence, LocalAlgebra, SpaceTimeDiagram, TranslationCheck,
                           are_isomorphic, canonical_partition, decode_word, encode_word,
                           iterative_power, product, unpack)
from casim.fp_linalg import FpMatrix, Subspace, invariant_closure, is_prime, smallest_prime_factor
from casim.simulation import ClosureInventory, ClosureMember, Derivation, _Powers


@pytest.fixture(autouse=True)
def empty_inventory_cache(monkeypatch):
    """Every test starts from an empty closure inventory cache and an
    empty affine-form memo, so no answer or count depends on which tests
    ran before it."""
    monkeypatch.setattr(simulation, "_INVENTORY_CACHE", {})
    monkeypatch.setattr(affine_ca, "_AFFINE_FORMS", weakref.WeakKeyDictionary())


@pytest.fixture
def z4_rule():
    """x + z mod 4: not additive over F_2, but has the parity congruence."""
    return LocalAlgebra.from_function(4, 1, lambda x, y, z: (x + z) % 4)


def all_canonical_rules(p, r=1):
    for coeffs in itertools.product(range(p), repeat=2 * r + 1):
        yield CanonicalAdditive(p, r, coeffs)


def rules_with_support(p, minimum, r=1):
    for rule in all_canonical_rules(p, r):
        if len(rule.support()) >= minimum:
            yield rule


def doubly_bijective_rules(p, r=1):
    from casim.affine_ca import is_doubly_bijective
    for rule in all_canonical_rules(p, r):
        if is_doubly_bijective(rule):
            yield rule


def pack(word, n, m):
    """Inverse of unpack: group runs of n cells into block-encoded states."""
    if len(word) % n != 0:
        raise ValueError("word length is not a multiple of the block size")
    return tuple(encode_word(word[i:i + n], m) for i in range(0, len(word), n))


def wolfram_number(algebra):
    if algebra.m != 2 or algebra.r != 1:
        raise ValueError("Wolfram numbering applies to 2-state radius-1 rules")
    return sum(bit << v for v, bit in enumerate(algebra.table))


def is_invariant(space, maps):
    return all(space.contains(m.apply(v)) for m in maps for v in space.basis)


def is_trivial(space):
    return space.is_zero() or space.is_full()


def profile_value_at(profile, k):
    """F^n(e^0)_k of a seed profile, 0 outside positions -nr..nr."""
    if abs(k) > profile.reach:
        return 0
    return profile.values[k + profile.reach]


def outputs_on_oracle(algebra, states):
    """`ca_core.outputs_on` as one comprehension per position: the index
    of every neighborhood over `states`, then one table lookup each."""
    m = algebra.m
    idx = [0]
    for _ in range(algebra.arity):
        idx = [i * m + s for i in idx for s in states]
    table = algebra.table
    return [table[i] for i in idx]


def product_componentwise_oracle(factors):
    """The product table built neighborhood by neighborhood: each factor
    applied to its own mixed-radix digit of every cell, leftmost factor
    most significant."""
    states = list(itertools.product(*(range(a.m) for a in factors)))
    code = {state: v for v, state in enumerate(states)}
    return tuple(code[tuple(a.apply([states[x][t] for x in nb]) for t, a in enumerate(factors))]
                 for nb in itertools.product(range(len(states)), repeat=factors[0].arity))


def unravel_apply_oracle(algebra, word, iterations=1):
    """`ca_core.unravel` as one `algebra.apply` per window, with the same
    checks: a nonnegative count, every state an int in range (the first
    bad one named) and at least 2*iterations*r + 1 cells."""
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    m, r, k = algebra.m, algebra.r, algebra.arity
    word = tuple(word)
    for x in word:
        if not (isinstance(x, int) and 0 <= x < m):
            raise ValueError(f"state {x} out of range for m={m}")
    if len(word) < 2 * iterations * r + 1:
        raise ValueError(
            f"word of length {len(word)} too short for {iterations} passes of radius {r}")
    for _ in range(iterations):
        word = tuple(algebra.apply(word[i:i + k]) for i in range(len(word) - k + 1))
    return word


def iterative_power_unravel_oracle(algebra, n):
    """The n-th power's table built block neighborhood by block
    neighborhood: unpack the 2r+1 blocks into cells, unravel n times and
    encode the n cells left."""
    m = algebra.m
    return tuple(encode_word(unravel_apply_oracle(algebra, unpack(nb, n, m), n), m)
                 for nb in itertools.product(range(m ** n), repeat=algebra.arity))


def component_matrices_oracle(rule, n):
    """Component matrices of the n-th power built entry by entry: the
    block for position i has entry c_{-i*n + (row - col)} of the seed
    evolution."""
    profile = e0_evolution(rule, n)
    return [FpMatrix(rule.p, n, n, tuple(
                tuple(profile_value_at(profile, -i * n + t - j) for j in range(n))
                for t in range(n)))
            for i in range(-rule.r, rule.r + 1)]


def all_subspaces(p, n):
    """Every subspace of F_p^n, by join-closure of the one-dimensional
    subspaces: the exhaustive oracle for invariant-subspace lattices,
    for p^n <= 729."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p ** n > 729:
        raise ValueError(f"all_subspaces is an oracle for small spaces, got p^n={p ** n}")
    lattice = {(): Subspace.zero(p, n)}
    lines = [Subspace.span(p, n, [v]) for v in one_dim_filter_oracle(p, n)]
    for line in lines:
        lattice[line.basis] = line
    pending = list(lines)
    while pending:
        current = pending.pop()
        for line in lines:
            joined = current.join(line)
            if joined.basis not in lattice:
                lattice[joined.basis] = joined
                pending.append(joined)
    return sorted(lattice.values(), key=Subspace.sort_key)


def one_dim_filter_oracle(p, n):
    """One normalized vector (first nonzero entry 1) per line of F_p^n,
    by filtering all p^n vectors in lexicographic order."""
    vectors = itertools.product(range(p), repeat=n)
    next(vectors)  # the zero vector spans no line
    for vec in vectors:
        if next(x for x in vec if x) == 1:
            yield vec


def is_simple_scan_oracle(maps):
    """True when the invariant closure of every line of F_p^n is F_p^n:
    the exhaustive simplicity scan, (p^n-1)/(p-1) spins."""
    p, n = maps[0].p, maps[0].rows
    return all(invariant_closure([v], maps).is_full() for v in one_dim_filter_oracle(p, n))


def invariant_closure_fixpoint_oracle(seed, maps, p, n):
    """Smallest subspace of F_p^n containing `seed` and invariant under
    every map, by fixpoint iteration: push every basis vector through
    every map, re-span, repeat until the dimension stops growing."""
    space = Subspace.span(p, n, seed)
    while True:
        images = [m.apply(v) for m in maps for v in space.basis]
        grown = Subspace.span(p, n, list(space.basis) + images)
        if grown.dim == space.dim:
            return space
        space = grown


def rref_gauss_jordan_oracle(matrix):
    """Reduced row-echelon form and rank by column-by-column Gauss-Jordan
    elimination: find a pivot row, swap it up, normalize it and clear its
    column from every other row."""
    p = matrix.p
    rows = [list(row) for row in matrix.entries]
    n_rows, n_cols = matrix.rows, matrix.cols
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if rows[r][col] % p != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and rows[r][col] % p != 0:
                factor = rows[r][col] % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    reduced = FpMatrix(p, n_rows, n_cols, tuple(tuple(row) for row in rows))
    return reduced, pivot_row


def apply_vectors_oracle(algebra, vectors):
    """f(v_1, ..., v_k) of an affine rule on one neighborhood of state
    vectors: the constant plus each position's matrix applied to its
    vector, coordinate by coordinate."""
    acc = list(algebra.constant)
    for mat, vec in zip(algebra.components, vectors):
        acc = [(x + y) % algebra.p for x, y in zip(acc, mat.apply(vec))]
    return tuple(acc)


def coset_congruence_oracle(algebra, space):
    """The congruence on an affine rule's truth table whose classes are
    the cosets of a subspace; from_blocks refuses a subspace that is not
    invariant under every component."""
    table = to_table(algebra)
    blocks = {}
    for value in range(table.m):
        blocks.setdefault(space.reduce(algebra.decode_state(value)), []).append(value)
    return Congruence.from_blocks(table, blocks.values())


def coset_construction_oracle(member, generator, p, caps=DEFAULT_CAPS):
    """Replay a closure member's derivation through the affine machinery:
    the carrier must be a coset of an invariant subspace and the
    partition classes cosets of another.  Returns the resulting affine
    form, verified against the member's table, or None when any step
    fails to be affine-shaped."""
    derivation = member.derivation
    powers = [iterative_power(generator, n, caps) for n in derivation.powers]
    affine_prod = fit_affine(powers[0] if len(powers) == 1 else product(powers, caps), p)
    if affine_prod is None:
        return None
    d = affine_prod.d
    carrier = derivation.carrier
    vectors = [decode_word(s, p, d) for s in carrier]
    anchor = vectors[0]
    diffs = [tuple((x - a) % p for x, a in zip(vec, anchor)) for vec in vectors]
    space = Subspace.span(p, d, diffs)
    if p ** space.dim != len(carrier):
        return None
    try:
        sub = subalgebra_affine(affine_prod, space, anchor, caps)
    except ValueError:
        return None
    # member state k (carrier order) -> sub-rule state
    embed = [encode_word(space.coordinates(diff), p) if sub.d else 0 for diff in diffs]
    if sorted(embed) != list(range(len(carrier))):
        return None
    partition = derivation.partition
    zero_class = next(block for block in partition if 0 in [embed[x] for x in block])
    kernel = Subspace.span(p, sub.d, [decode_word(embed[x], p, sub.d) for x in zero_class])
    if p ** kernel.dim != len(zero_class):
        return None
    for block in partition:
        block_vecs = [decode_word(embed[x], p, sub.d) for x in block]
        base = block_vecs[0]
        for vec in block_vecs:
            if not kernel.contains(tuple((x - y) % p for x, y in zip(vec, base))):
                return None
        if len(block) != p ** kernel.dim:
            return None
    try:
        result = quotient_affine(sub, kernel, caps)
    except ValueError:
        return None
    # member state k is the k-th block; its image encodes the block's
    # reduced coset representative on the non-pivot coordinates
    result_table = to_table(result, caps)
    free = [t for t in range(sub.d) if t not in kernel.pivots()]

    def class_rep_coords(block):
        vec = kernel.reduce(decode_word(embed[block[0]], p, sub.d))
        return encode_word([vec[t] for t in free], p)

    bijection = tuple(class_rep_coords(block) for block in partition)
    if sorted(bijection) != list(range(result_table.m)):
        return None
    if not _bijection_conjugates(member.algebra, result_table, bijection):
        return None
    return result


def fit_affine_full_table_oracle(algebra, p):
    """`affine_ca.fit_affine` without the diagonal rejection: the
    candidate from the constant and the one-hot probes, accepted or
    refused by the whole-table comparison alone."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    d = _dimension_over(algebra.m, p)
    if d is None:
        raise ValueError(f"state count {algebra.m} is not a power of {p}")
    if d == 0:
        raise ValueError("singleton algebras carry no affine structure")
    arity = algebra.arity
    m = algebra.m
    zero_nb = [0] * arity
    constant = decode_word(algebra.apply(zero_nb), p, d)
    components = []
    for pos in range(arity):
        cols = []
        for t in range(d):
            nb = zero_nb[:]
            nb[pos] = p ** (d - 1 - t)  # the one-hot vector e_t, encoded
            image = decode_word(algebra.apply(nb), p, d)
            cols.append(tuple((x - c) % p for x, c in zip(image, constant)))
        components.append(FpMatrix(p, d, d, tuple(zip(*cols))))
    candidate = AffineAlgebra(p, d, algebra.r, tuple(components), constant)
    vectors = [candidate.decode_state(v) for v in range(m)]
    if tuple(_affine_outputs(candidate, vectors)) != algebra.table:
        return None
    return candidate


def relabel_scan_oracle(algebra, p):
    """(bijection, affine form) for the first state relabeling, over all
    m! of them in lexicographic order, whose table fits an affine rule
    over F_p; None when none does."""
    for sigma in itertools.permutations(range(algebra.m)):
        affine = fit_affine(_relabeled_table(algebra, sigma), p)
        if affine is not None:
            return sigma, affine
    return None


def join_closure_oracle(bottom, generators, join, limit, what):
    """`fp_linalg.join_closure` by joining every member with every
    distinct generator, in breadth-first discovery order, with the same
    CapExceeded past `limit` members."""
    members = [bottom]
    seen = {bottom}
    gens = []
    for gen in generators:
        if gen not in seen:
            seen.add(gen)
            gens.append(gen)
    members.extend(gens)
    require(len(members) <= limit, f"{what} exceeds {limit} members")
    for current in members:  # grows while iterated: breadth first
        for gen in gens:
            joined = join(current, gen)
            if joined not in seen:
                require(len(members) < limit, f"{what} exceeds {limit} members")
                seen.add(joined)
                members.append(joined)
    return members


def merge_labels_oracle(label, x, y):
    """The least-state label vector with the classes of x and y merged."""
    lo, hi = sorted((label[x], label[y]))
    return label if lo == hi else [lo if k == hi else k for k in label]


def principal_congruence_stack_oracle(columns, a, b):
    """Least-state labels of the smallest congruence identifying a and b,
    by one stack run: each merged pair pushes its distinct successor
    pairs zip(columns[x], columns[y]), which by transitivity is enough
    (Freese 2008)."""
    label = tuple(range(len(columns)))
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if label[x] != label[y]:
            label = tuple(merge_labels_oracle(label, x, y))
            stack.extend(set(zip(columns[x], columns[y])))
    return label


def join_labels_oracle(l1, l2):
    """The join of two least-state label vectors, merging one state's
    class at a time, O(m^2)."""
    label = l1
    for x, lead in enumerate(l2):
        label = merge_labels_oracle(label, x, lead)
    return tuple(label)


def set_partitions(items):
    """Every partition of the list `items` into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1:]
        yield [[head]] + part


class IsoMatcherOracle:
    """The isomorphism ladder as `simulation._IsoMatcher` was, a per-call
    object with its own affine-form cache: fingerprints, table equality,
    the affine conjugacy fast path, then backtracking search, with
    `iso_cap` raised to the size compared."""

    def __init__(self, caps):
        self.caps = caps
        self._affine_cache = {}

    def _affine_form(self, algebra):
        form = self._affine_cache.get(algebra, False)  # None is a cached result
        if form is False:
            # m > 1: find returns at equal tables first, and all 1-state tables are equal
            p = smallest_prime_factor(algebra.m)
            power_of_p = _dimension_over(algebra.m, p) is not None
            form = self._affine_cache[algebra] = (
                affine_ca.fit_affine(algebra, p) if power_of_p else None)
        return form

    def find(self, a, b):
        # the fingerprint carries m and r, and equal tables have equal ones
        if ca_core.algebra_fingerprint(a) != ca_core.algebra_fingerprint(b):
            return None
        if a.table == b.table:
            return tuple(range(a.m))
        form_a = self._affine_form(a)
        if form_a is not None and (form_b := self._affine_form(b)) is not None:
            witness = affine_ca.affine_isomorphism(form_a, form_b, self.caps)
            if witness is not None:
                return witness
        return ca_core.are_isomorphic(a, b, self.caps.scaled_to(a.m))


def size_cap_oracle(bounds, m):
    """The largest product state count the closure oracles take: the
    stated size cap, or every product within n_max and k_max."""
    return bounds.size_cap if bounds.size_cap is not None else (m ** bounds.n_max) ** bounds.k_max


def closure_members_oracle(generator, bounds, caps=DEFAULT_CAPS):
    """`simulation.closure_members` as it was with three dedups, and
    without the inventory cache: an exact-table set for products,
    another for restrictions, and the member registry on every quotient,
    the discrete one included, matched by the ladder oracle."""
    size_cap = size_cap_oracle(bounds, generator.m)
    scaled = caps.scaled_to(size_cap)
    complete = True
    powers = _Powers(generator, caps)

    members = []
    by_fingerprint = {}
    matcher = IsoMatcherOracle(caps)

    def register(algebra, derivation):
        fingerprint = ca_core.algebra_fingerprint(algebra)
        for index in by_fingerprint.get(fingerprint, []):
            if matcher.find(members[index].algebra, algebra) is not None:
                return
        by_fingerprint.setdefault(fingerprint, []).append(len(members))
        members.append(ClosureMember(algebra, derivation))

    seen_products = set()
    seen_restrictions = set()
    for k in range(1, bounds.k_max + 1):
        for multiset in itertools.combinations_with_replacement(
                range(1, bounds.n_max + 1), k):
            size = generator.m ** sum(multiset)
            if size > size_cap:
                continue
            if size ** generator.arity > caps.table_cap:
                complete = False
                continue
            prod = powers.product(multiset)
            key = (prod.m, prod.table)
            if key in seen_products:
                continue
            seen_products.add(key)
            try:
                carriers = ca_core.enumerate_subalgebras(prod, scaled)
            except CapExceeded:
                complete = False
                continue
            for carrier in carriers:
                restricted = ca_core.restrict(prod, carrier)
                restriction_key = (restricted.m, restricted.table)
                if restriction_key in seen_restrictions:
                    continue
                seen_restrictions.add(restriction_key)
                try:
                    congruences = ca_core.enumerate_congruences(restricted, scaled)
                except CapExceeded:
                    complete = False
                    continue
                for congruence in congruences:
                    register(ca_core.quotient(congruence),
                             Derivation(multiset, carrier, congruence.blocks))
    return ClosureInventory(generator, bounds, tuple(members), complete)


def closure_members_brute_oracle(generator, bounds):
    """The bounded closure with default caps, for products of at most 8
    states, from first principles: powers and products from their
    oracles, every nonempty subset closed under the rule as a carrier,
    every set partition checked for compatibility on the restricted
    table, both sorted as the enumerators sort them, and each quotient
    kept unless `are_isomorphic` matches an earlier member."""
    r, arity = generator.r, generator.arity

    def labels(blocks, m):
        label = [0] * m
        for b, block in enumerate(blocks):
            for x in block:
                label[x] = b
        return label

    members = []
    for k in range(1, bounds.k_max + 1):
        for multiset in itertools.combinations_with_replacement(
                range(1, bounds.n_max + 1), k):
            size = generator.m ** sum(multiset)
            if size > size_cap_oracle(bounds, generator.m):
                continue
            if size > 8:
                raise ValueError("the brute-force closure takes products of at most 8 states")
            prod = LocalAlgebra(size, r, product_componentwise_oracle([
                LocalAlgebra(generator.m ** n, r, iterative_power_unravel_oracle(generator, n))
                for n in multiset]))
            carriers = [c for n in range(1, size + 1)
                        for c in itertools.combinations(range(size), n)
                        if all(prod.apply(nb) in c for nb in itertools.product(c, repeat=arity))]
            for carrier in sorted(carriers, key=lambda c: (len(c), c)):
                restricted = LocalAlgebra.from_function(
                    len(carrier), r, lambda *xs: carrier.index(prod.apply([carrier[x] for x in xs])))
                rows = list(zip(itertools.product(range(restricted.m), repeat=arity),
                                restricted.table))
                partitions = []
                for part in set_partitions(list(range(restricted.m))):
                    blocks = canonical_partition(part)
                    label = labels(blocks, restricted.m)
                    # compatible: related neighborhoods have related outputs
                    image = {}
                    if all(image.setdefault(tuple(label[x] for x in nb), label[out]) == label[out]
                           for nb, out in rows):
                        partitions.append(blocks)
                for blocks in sorted(partitions, key=lambda part: (-len(part), part)):
                    label = labels(blocks, restricted.m)
                    quotient = LocalAlgebra.from_function(len(blocks), r, lambda *xs: label[
                        restricted.apply([blocks[x][0] for x in xs])])
                    if not any(member.size == quotient.m
                               and are_isomorphic(member.algebra, quotient) is not None
                               for member in members):
                        members.append(ClosureMember(quotient,
                                                     Derivation(multiset, carrier, blocks)))
    return ClosureInventory(generator, bounds, tuple(members), True)


def print_ca_oracle(algebra):
    """`cli.print_ca` with one str() per entry: the digits run together
    up to 10 states, a space-separated table-list above."""
    lines = ["CA v1", f"states {algebra.m}", f"radius {algebra.r}"]
    if algebra.m <= 10:
        lines.append("table " + "".join(str(x) for x in algebra.table))
    else:
        lines.append("table-list " + " ".join(str(x) for x in algebra.table))
    return "\n".join(lines) + "\n"


def parse_table_oracle(line):
    """`cli.parse_ca`'s two table readers, one int() per digit of a
    'table' line or per entry of a 'table-list' line."""
    parts = line.split()
    if parts[0] == "table":
        return tuple(int(ch) for ch in parts[1])
    return tuple(int(x) for x in parts[1:])


def render_text_oracle(diagram, dots=False):
    """`cli.render_text` one glyph per cell: base-36 digits up to 36
    states, 0 replaced by '.' under ``dots``; decimals above."""
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
    lines = []
    for row in diagram.rows:
        if diagram.m <= len(glyphs):
            text = "".join(glyphs[x] for x in row)
            if dots:
                text = text.replace("0", ".")
        else:
            text = " ".join(str(x) for x in row)
        lines.append(text)
    return "\n".join(lines) + "\n"


def render_pgm_oracle(diagram):
    """`cli.render_pgm` with one gray level computed per cell."""
    scale = diagram.m - 1
    lines = ["P2", f"{diagram.width} {len(diagram.rows)}", "255"]
    for row in diagram.rows:
        lines.append(" ".join(str((255 * x) // scale if scale else 0) for x in row))
    return "\n".join(lines) + "\n"


def matrix_lines_oracle(mat):
    """`cli._matrix_lines` one str() per entry: digits run together up to
    p = 10, space-separated above."""
    if mat.p <= 10:
        return ["".join(str(x) for x in row) for row in mat.entries]
    return [" ".join(str(x) for x in row) for row in mat.entries]


def first_out_of_range_oracle(values, bound):
    """`fp_linalg.first_out_of_range` as one in-order loop: the position
    of the first entry that is not an int (bool included) in 0..bound-1."""
    for i, x in enumerate(values):
        if not (isinstance(x, int) and 0 <= x < bound):
            return i
    return None


def evolve_unravel_oracle(algebra, word, background=0, steps=0, mode="background",
                          caps=DEFAULT_CAPS):
    """`ca_core.evolve` with one checking `unravel_apply_oracle` call per
    step."""
    m, r = algebra.m, algebra.r
    word = tuple(word)
    if not word:
        raise ValueError("initial word must be nonempty")
    for x in word:
        if not 0 <= x < m:
            raise ValueError(f"state {x} out of range for m={m}")
    if not 0 <= background < m:
        raise ValueError(f"background state {background} out of range")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if mode not in ("background", "cyclic"):
        raise ValueError("mode must be 'background' or 'cyclic'")
    width = len(word) + (2 * steps * r if mode == "background" else 0)
    require((steps + 1) * width <= caps.table_cap,
            f"space-time diagram needs {steps + 1}x{width} cells, cap {caps.table_cap}")
    diagonal = [algebra.apply((s,) * algebra.arity) for s in range(m)]
    backgrounds = [background]
    for _ in range(steps):
        backgrounds.append(diagonal[backgrounds[-1]])
    if mode == "cyclic":
        rows = [word]
        n = len(word)
        for _ in range(steps):
            prev = rows[-1]
            rows.append(unravel_apply_oracle(algebra, [prev[i % n] for i in range(-r, n + r)]))
        return SpaceTimeDiagram(m, tuple(rows), 0, tuple(backgrounds), "cyclic")
    windows = [word]
    for b in backgrounds[:-1]:
        pad = (b,) * (2 * r)
        windows.append(unravel_apply_oracle(algebra, pad + windows[-1] + pad))
    rows = [(b,) * ((steps - t) * r) + win + (b,) * ((steps - t) * r)
            for t, (win, b) in enumerate(zip(windows, backgrounds))]
    return SpaceTimeDiagram(m, tuple(rows), -steps * r, tuple(backgrounds), "background")


def check_translation_unravel_oracle(a, b, state_map, kind, width=7, steps=1, sample=512,
                                     seed=0):
    """`ca_core.check_translation` on a valid state map, with both sides
    of every window unravelled by `unravel_apply_oracle`: the first word,
    in the same enumeration or seeded sample, on which they differ."""
    source, target = (a, b) if kind == "embed" else (b, a)
    mapping = dict(enumerate(state_map)) if not isinstance(state_map, dict) else dict(state_map)
    drawn = None if source.m ** width <= 65536 else sample
    if drawn is None:
        words = itertools.product(range(source.m), repeat=width)
    else:
        rng = random.Random(seed)
        words = (tuple(rng.randrange(source.m) for _ in range(width)) for _ in range(drawn))
    for word in words:
        if (tuple(mapping[x] for x in unravel_apply_oracle(source, word, steps))
                != unravel_apply_oracle(target, tuple(mapping[x] for x in word), steps)):
            return TranslationCheck(False, word, drawn)
    return TranslationCheck(True, None, drawn)


def random_local_algebra(rng, m, r=1):
    size = m ** (2 * r + 1)
    return LocalAlgebra(m, r, tuple(rng.randrange(m) for _ in range(size)))


def low_image_algebra(rng, m, r):
    """Random rule whose outputs fall in two or three states, so most
    joins of one-generated carriers land on a carrier already found."""
    image = rng.sample(range(m), rng.randrange(2, 4))
    return LocalAlgebra(m, r, tuple(rng.choice(image) for _ in range(m ** (2 * r + 1))))


def random_affine_f2(rng, d=2, require_witnesses=True):
    """Random affine rule over F_2^d; optionally resample until both
    outermost effective components are bijective with left < right."""
    while True:
        mats = tuple(
            FpMatrix.from_rows(2, [[rng.randrange(2) for _ in range(d)] for _ in range(d)])
            for _ in range(3))
        constant = tuple(rng.randrange(2) for _ in range(d))
        algebra = AffineAlgebra(2, d, 1, mats, constant)
        if not require_witnesses or classify_affine(algebra).in_witness_class:
            return algebra


@pytest.fixture
def rng():
    return random.Random(20240809)
