import itertools
import random

import pytest

from casim.affine_ca import AffineAlgebra, CanonicalAdditive, classify_affine, e0_evolution
from casim.ca_core import LocalAlgebra
from casim.fp_linalg import FpMatrix, Subspace, is_prime, one_dim_representatives


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


def component_matrices_oracle(rule, n):
    """Component matrices of the n-th power built entry by entry: the
    block for position i has entry c_{-i*n + (row - col)} of the seed
    evolution."""
    profile = e0_evolution(rule, n)
    return [FpMatrix(rule.p, n, n, tuple(
                tuple(profile.value_at(-i * n + t - j) for j in range(n)) for t in range(n)))
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
    lines = [Subspace.span(p, n, [v]) for v in one_dim_representatives(p, n)]
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


def random_local_algebra(rng, m, r=1):
    size = m ** (2 * r + 1)
    return LocalAlgebra(m, r, tuple(rng.randrange(m) for _ in range(size)))


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
