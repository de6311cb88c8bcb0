"""Affine and canonical additive CA rules over prime fields.

An affine rule on V = F_p^d applies one d x d matrix per neighborhood
position and adds a constant.  States are encoded positionally, vector
(v_1, ..., v_d) as sum(v_t * p^(d-t)), so converting to and from truth
tables is pure base-p arithmetic.  The canonical additive case is d=1
with zero constant: scalar coefficients a_{-r}, ..., a_r.

The polynomial machinery lives here too: the one-cell seed evolution
F^n(e^0) is the coefficient sequence of l(x)^n with
l(x) = a_r x^(-r) + ... + a_{-r} x^r, and the n-th power's component
matrices are banded Toeplitz matrices read off that sequence.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from typing import Sequence

from . import ca_core
from .ca_core import LocalAlgebra
from .caps import DEFAULT_CAPS, Caps, require
from .fp_linalg import (FpMatrix, Subspace, _check_prime, first_out_of_range, is_prime,
                        nullspace_basis, smallest_prime_factor, solve)

Vector = tuple[int, ...]


@dataclass(frozen=True)
class AffineAlgebra:
    """Affine local rule over F_p^d: one matrix per position plus a constant.

    d = 0 is allowed and denotes the singleton algebra (empty matrices,
    empty constant); it shows up as the degenerate result of carving a
    sub- or quotient rule out of a trivial subspace.
    """

    p: int
    d: int
    r: int
    components: tuple[FpMatrix, ...]
    constant: Vector

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.d < 0 or self.r < 0:
            raise ValueError("dimension and radius must be nonnegative")
        if self.d == 0:
            if self.components or self.constant:
                raise ValueError("zero-dimensional rules carry no matrices")
            return
        if len(self.components) != self.arity:
            raise ValueError(f"expected {self.arity} component matrices")
        for mat in self.components:
            if (mat.p, mat.rows, mat.cols) != (self.p, self.d, self.d):
                raise ValueError("component matrices must be d x d over p")
        if len(self.constant) != self.d:
            raise ValueError("constant length must equal the dimension")
        if first_out_of_range(self.constant, self.p) is not None:
            raise ValueError("constant entries out of range")

    @property
    def arity(self) -> int:
        return 2 * self.r + 1

    @property
    def m(self) -> int:
        return self.p ** self.d

    @staticmethod
    def singleton(p: int, r: int) -> "AffineAlgebra":
        return AffineAlgebra(p, 0, r, (), ())

    def component(self, i: int) -> FpMatrix:
        if not -self.r <= i <= self.r:
            raise ValueError(f"position {i} outside radius {self.r}")
        if self.d == 0:
            raise ValueError("zero-dimensional rules have no component matrices")
        return self.components[i + self.r]

    def encode_state(self, vec: Sequence[int]) -> int:
        return ca_core.encode_word([x % self.p for x in vec], self.p)

    def decode_state(self, value: int) -> Vector:
        return ca_core.decode_word(value, self.p, self.d)

    def component_sum(self) -> FpMatrix:
        total = FpMatrix.zero(self.p, self.d)
        for mat in self.components:
            total = total.add(mat)
        return total

    def idempotent(self) -> Vector | None:
        """A state v with f(v, ..., v) = v, when one exists."""
        if self.d == 0:
            return ()
        lhs = self.component_sum().add(FpMatrix.identity(self.p, self.d).scale(-1))
        rhs = tuple((-c) % self.p for c in self.constant)
        return solve(lhs, rhs)

    def is_additive(self) -> bool:
        return all(c == 0 for c in self.constant)


@dataclass(frozen=True)
class CanonicalAdditive:
    """Additive rule with state space exactly F_p: scalar coefficients."""

    p: int
    r: int
    coefficients: Vector

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if len(self.coefficients) != 2 * self.r + 1:
            raise ValueError("expected 2r+1 coefficients")
        if first_out_of_range(self.coefficients, self.p) is not None:
            raise ValueError("coefficients must be residues mod p")

    @property
    def m(self) -> int:
        return self.p

    @property
    def arity(self) -> int:
        return 2 * self.r + 1

    def coefficient(self, i: int) -> int:
        return self.coefficients[i + self.r]

    def support(self) -> list[int]:
        """Positions with nonzero coefficient, as offsets in -r..r."""
        return [i - self.r for i, a in enumerate(self.coefficients) if a]

    def as_affine(self) -> AffineAlgebra:
        mats = tuple(FpMatrix.from_rows(self.p, [[a]]) for a in self.coefficients)
        return AffineAlgebra(self.p, 1, self.r, mats, (0,))

    def to_table(self) -> LocalAlgebra:
        return to_table(self)


def canonical_additive(p: int, coefficients: Sequence[int]) -> CanonicalAdditive:
    """The rule sum a_i x_i mod p; the 2r+1 coefficients fix the radius r."""
    _check_prime(p)
    coefficients = tuple(x % p for x in coefficients)
    if len(coefficients) % 2 == 0:
        raise ValueError("coefficient count must be odd (positions -r..r)")
    return CanonicalAdditive(p, len(coefficients) // 2, coefficients)


def to_table(algebra: AffineAlgebra | CanonicalAdditive, caps: Caps = DEFAULT_CAPS) -> LocalAlgebra:
    """Truth table of an affine rule under the positional state encoding."""
    if isinstance(algebra, CanonicalAdditive):
        algebra = algebra.as_affine()
    if algebra.d == 0:
        return ca_core.singleton(algebra.r)
    m, arity = algebra.m, algebra.arity
    require(m ** arity <= caps.table_cap,
            f"affine truth table needs {m ** arity} entries, cap {caps.table_cap}")
    vectors = [algebra.decode_state(v) for v in range(m)]
    return LocalAlgebra(m, algebra.r, tuple(_affine_outputs(algebra, vectors)))


def _affine_outputs(algebra: AffineAlgebra, vectors: Sequence[Vector]) -> list[int]:
    """The encoded rule on every neighborhood over a list of state
    vectors (repeats allowed), in the order of ca_core.outputs_on.

    Like outputs_on, the list grows one position at a time: the partial
    sums start at the encoded constant, and each position adds the
    encoded image of every vector to each distinct partial sum.
    """
    p = algebra.p
    sums = [algebra.encode_state(algebra.constant)]
    for mat in algebra.components:
        images = [algebra.encode_state(mat.apply(vec)) for vec in vectors]
        added: dict[int, list[int]] = {}
        for s in set(sums):
            # shifted[x] encodes s + x, built digit by digit over all states x
            shifted = [0]
            for digit in algebra.decode_state(s):
                shifted = [v * p + (digit + j) % p for v in shifted for j in range(p)]
            added[s] = [shifted[x] for x in images]
        sums = list(itertools.chain.from_iterable(map(added.__getitem__, sums)))
    return sums


def _dimension_over(m: int, p: int) -> int | None:
    d = 0
    while m % p == 0:
        m //= p
        d += 1
    return d if m == 1 else None


def fit_affine(algebra: LocalAlgebra, p: int) -> AffineAlgebra | None:
    """Recover the affine form of a truth table, if it has one.

    The constant is f(0, ..., 0); candidate matrix columns are probed
    with one-hot states, and the candidate is then verified against the
    whole table.  Returns None when verification fails.

    Before the whole table, the candidate's diagonal f(v, ..., v) =
    c + (sum of M_i) v, m evaluations, is compared with the table's:
    most tables that are not affine already differ there.  Only the
    whole-table comparison accepts a fit.
    """
    _check_prime(p)
    d = _dimension_over(algebra.m, p)
    if d is None:
        raise ValueError(f"state count {algebra.m} is not a power of {p}")
    if d == 0:
        raise ValueError("singleton algebras carry no affine structure")
    arity = algebra.arity
    m = algebra.m
    zero_nb = [0] * arity
    constant = ca_core.decode_word(algebra.apply(zero_nb), p, d)
    components = []
    for pos in range(arity):
        cols = []
        for t in range(d):
            nb = zero_nb[:]
            nb[pos] = p ** (d - 1 - t)  # the one-hot vector e_t, encoded
            image = ca_core.decode_word(algebra.apply(nb), p, d)
            cols.append(tuple((x - c) % p for x, c in zip(image, constant)))
        components.append(FpMatrix(p, d, d, tuple(zip(*cols))))
    candidate = AffineAlgebra(p, d, algebra.r, tuple(components), constant)
    vectors = [candidate.decode_state(v) for v in range(m)]
    # the radius-0 rule c + (sum of M_i) v is the candidate's diagonal
    diagonal = AffineAlgebra(p, d, 0, (candidate.component_sum(),), candidate.constant)
    if _affine_outputs(diagonal, vectors) != ca_core._diagonal(algebra):
        return None
    if tuple(_affine_outputs(candidate, vectors)) != algebra.table:
        return None
    return candidate


# weak keys: an entry goes with its algebra object, so the memo keeps no table alive
_AFFINE_FORMS: weakref.WeakKeyDictionary[LocalAlgebra, AffineAlgebra | None] = (
    weakref.WeakKeyDictionary())


def _affine_form(algebra: LocalAlgebra) -> AffineAlgebra | None:
    """The affine form over the least prime p dividing m (m > 1), or None
    when m is not a power of p or the table is not affine.  Fitted once
    per algebra value while an algebra holding that value lives."""
    form = _AFFINE_FORMS.get(algebra, False)  # None is a remembered result
    if form is False:
        p = smallest_prime_factor(algebra.m)
        form = _AFFINE_FORMS[algebra] = (
            fit_affine(algebra, p) if _dimension_over(algebra.m, p) is not None else None)
    return form


def fit_canonical_additive(algebra: LocalAlgebra) -> CanonicalAdditive | None:
    """Canonical additive form (prime state count, linear, no constant)."""
    if not is_prime(algebra.m):
        return None
    affine = _affine_form(algebra)  # a prime m is its own least prime factor
    if affine is None or not affine.is_additive():
        return None
    return canonical_additive(affine.p, [mat.entries[0][0] for mat in affine.components])


def _relabeled_table(algebra: LocalAlgebra, sigma: Sequence[int]) -> LocalAlgebra:
    """The algebra with states renamed by sigma: f'(sigma x) = sigma f(x)."""
    inverse = [0] * algebra.m
    for s, image in enumerate(sigma):
        inverse[image] = s
    return LocalAlgebra(algebra.m, algebra.r,
                        tuple(sigma[out] for out in ca_core.outputs_on(algebra, inverse)))


def is_affine_up_to_iso(algebra: LocalAlgebra, p: int,
                        caps: Caps = DEFAULT_CAPS) -> tuple[Vector, AffineAlgebra] | None:
    """Search state relabelings for one that makes the table affine.

    Returns (bijection, affine form) for the first success in
    lexicographic bijection order, or None.  State counts that are not
    powers of p are rejected immediately: no relabeling can help.

    Only sigma with sigma(0) = 0 and sigma(1) = 1 are tried: an affine
    bijection of F_p^d keeps an affine table affine and can move any two
    distinct states to 0 and 1 (GL is transitive on nonzero vectors),
    and those sigma come first in lexicographic order.
    """
    _check_prime(p)
    d = _dimension_over(algebra.m, p)
    if d is None:
        return None
    if d == 0:
        raise ValueError("singleton algebras carry no affine structure")
    m = algebra.m
    require(m <= caps.relabel_cap,
            f"relabeling search needs m <= {caps.relabel_cap}, got {m}")
    for sigma in ((0, 1) + rest for rest in itertools.permutations(range(2, m))):
        affine = fit_affine(_relabeled_table(algebra, sigma), p)
        if affine is not None:
            return (sigma, affine)
    return None


@dataclass(frozen=True)
class CoefficientProfile:
    """The sequence F^n(e^0) on positions -nr..nr for an additive rule."""

    p: int
    n: int
    values: Vector

    def __post_init__(self) -> None:
        if len(self.values) % 2 != 1:
            raise ValueError("profile covers symmetric positions -nr..nr")
        if first_out_of_range(self.values, self.p) is not None:
            raise ValueError("profile entries must be residues mod p")

    @property
    def reach(self) -> int:
        """nr: the largest tracked offset."""
        return len(self.values) // 2


def e0_evolution(rule: CanonicalAdditive, n: int,
                 caps: Caps = DEFAULT_CAPS) -> CoefficientProfile:
    """Coefficients of l(x)^n, re-indexed so position k holds F^n(e^0)_k.

    l(x) = a_r x^(-r) + ... + a_{-r} x^r, so a single step places a_{-k}
    at position k.  Over F_p, l(x)^(p^j) = l(x^(p^j)), so l(x)^n is the
    product of the factors l(x^(p^j)), each taken n_j times, where n_j
    are the base-p digits of n; a factor is the 2r+1 coefficients spread
    p^j apart, multiplied in by shift-and-add.
    """
    if n < 1:
        raise ValueError("the seed evolution needs n >= 1")
    p, r = rule.p, rule.r
    require(2 * n * r + 1 <= caps.table_cap,
            f"seed profile needs {2 * n * r + 1} entries, cap {caps.table_cap}")
    # dense coefficients on exponents -r..r; exponent k holds a_{-k}
    base = rule.coefficients[::-1]
    values = [1]
    rest, spacing = n, 1
    while rest:
        rest, digit = divmod(rest, p)
        for _ in range(digit):
            size = len(values)
            out = [0] * (size + 2 * r * spacing)
            for k, a in enumerate(base):
                at = k * spacing
                out[at:at + size] = [x + a * y for x, y in zip(out[at:at + size], values)]
            values = [x % p for x in out]
        spacing *= p
    return CoefficientProfile(p, n, tuple(values))


def component_matrices(rule: CanonicalAdditive, n: int,
                       caps: Caps = DEFAULT_CAPS) -> list[FpMatrix]:
    """Component matrices of the n-th iterative power in the canonical basis.

    Each matrix is Toeplitz in the seed evolution: the block for
    position i has entry c_{-i*n + (row - col)}, so its row t is a slice
    of the zero-padded, reversed profile.
    """
    require(rule.arity * n * n <= caps.table_cap,
            f"component matrices need {rule.arity * n * n} entries, cap {caps.table_cap}")
    profile = e0_evolution(rule, n, caps)
    reflected = ((0,) * n + profile.values + (0,) * n)[::-1]
    matrices = []
    for i in range(-rule.r, rule.r + 1):
        s = (rule.r + 1 + i) * n
        rows = tuple(reflected[s - t:s - t + n] for t in range(n))
        matrices.append(FpMatrix(rule.p, n, n, rows))
    return matrices


@dataclass(frozen=True)
class StructureCheck:
    name: str
    passed: bool
    expected: object
    actual: object


@dataclass(frozen=True)
class StructureReport:
    """Structural facts about the n-th power's component matrices.

    Data, not an assertion: each named check records expected and
    actual values so the caller can render or test them.
    """

    rule: CanonicalAdditive
    n: int
    least: int
    greatest: int
    checks: tuple[StructureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[StructureCheck]:
        return [check for check in self.checks if not check.passed]


def check_structure(rule: CanonicalAdditive, n: int,
                    caps: Caps = DEFAULT_CAPS) -> StructureReport:
    """Check the banded-triangular shape of the outermost component
    matrices: zero blocks outside the support, powers of the outermost
    coefficients on the diagonal, and the two closest off-diagonal bands
    given by the first-order expansion of the rule's n-fold composition.
    """
    if n < 1:
        raise ValueError("structure checks need n >= 1")
    support = rule.support()
    if not support:
        raise ValueError("the all-zero rule has no structure to check")
    i, j = support[0], support[-1]
    p, r = rule.p, rule.r
    matrices = component_matrices(rule, n, caps)
    checks: list[StructureCheck] = []

    def coefficient(offset: int) -> int:
        if not -r <= offset <= r:
            return 0
        return rule.coefficient(offset)

    def band(offset: int, k: int) -> tuple[int, ...]:
        """Band at row - col = k (negative k is above the diagonal)."""
        entries = matrices[offset + r].entries
        return tuple(map(operator.getitem, entries[max(0, k):n + min(0, k)], range(max(0, -k), n)))

    def constant_band(name: str, actual: tuple[int, ...], value: int) -> None:
        expected = (value,) * len(actual)
        checks.append(StructureCheck(name, actual == expected, expected, actual))

    for offset in range(-r, r + 1):
        mat = matrices[offset + r]
        if offset < i or offset > j:
            checks.append(StructureCheck(
                f"component {offset} zero", mat.is_zero(), "zero matrix", mat.entries))
    # the outermost positions and the direction that points into the support
    sides = ((i, 1, "upper", "superdiagonal"), (j, -1, "lower", "subdiagonal"))
    for pos, step, shape, _ in sides:
        outside = tuple(itertools.chain.from_iterable(band(pos, step * k) for k in range(1, n)))
        checks.append(StructureCheck(f"component {pos} {shape} triangular",
                                     not any(outside), "zeros", outside))
    for pos, *_ in sides:
        constant_band(f"component {pos} diagonal", band(pos, 0), pow(rule.coefficient(pos), n, p))
    for order, ordinal in ((1, "first"), (2, "second"))[:n - 1]:
        for pos, step, _, name in sides:
            a = rule.coefficient(pos)
            value = n * pow(a, n - 1, p) * coefficient(pos + order * step)
            if order == 2:
                value += math.comb(n, 2) * pow(a, n - 2, p) * coefficient(pos + step) ** 2
            constant_band(f"component {pos} {ordinal} {name}", band(pos, -order * step), value % p)
    return StructureReport(rule, n, i, j, tuple(checks))


def is_doubly_bijective(rule: CanonicalAdditive) -> bool:
    """With i least and j greatest nonzero positions, requires the inner
    neighbors a_{i+1} and a_{j-1} to be nonzero as well.  Rules with
    fewer than two nonzero coefficients are not doubly bijective."""
    support = rule.support()
    if len(support) < 2:
        return False
    i, j = support[0], support[-1]
    return rule.coefficient(i + 1) != 0 and rule.coefficient(j - 1) != 0


def interleaving_bijection(block: int, copies: int, m: int) -> Vector:
    """State bijection from blocks of block*copies cells to a
    copies-fold product of block-cell states, transposing the cell grid.

    Cell at (b, u) of the grouped state (block-major) moves to (u, b)
    (factor-major).  For block == 1 or copies == 1 this is the identity.
    """
    total = block * copies
    size = m ** total
    result = []
    for value in range(size):
        cells = ca_core.decode_word(value, m, total)
        transposed = [cells[b * copies + u] for u in range(copies) for b in range(block)]
        result.append(ca_core.encode_word(transposed, m))
    return tuple(result)


@dataclass(frozen=True)
class SplittingResult:
    """Outcome of checking B^[p^k * l] against the product of p^k copies
    of B^[l], with the explicit cell-transposition witness."""

    ok: bool
    k: int
    l: int
    power: LocalAlgebra
    split: LocalAlgebra
    witness: Vector
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def verify_splitting(rule: CanonicalAdditive, k: int, l: int,
                     caps: Caps = DEFAULT_CAPS) -> SplittingResult:
    """Certify B^[p^k * l] ~ B^[l] x ... x B^[l] (p^k factors).

    The witness is the de-interleaving of cells; for l = 1 it is the
    identity and the tables agree entry for entry (the coefficients of
    the p^k-th power recur with spacing p^k, so grouping p^k cells acts
    coordinatewise).  The witness is replayed against both full tables.
    """
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")
    p = rule.p
    copies = p ** k
    n = copies * l
    base = rule.to_table()
    power = ca_core.iterative_power(base, n, caps)
    factor = ca_core.iterative_power(base, l, caps)
    split = ca_core.product([factor] * copies, caps) if copies > 1 else factor
    witness = interleaving_bijection(l, copies, p)
    ok = _bijection_conjugates(power, split, witness)
    detail = "identity witness, tables equal" if witness == tuple(range(len(witness))) \
        else "cell-transposition witness"
    return SplittingResult(ok, k, l, power, split, witness, detail)


def _bijection_conjugates(a: LocalAlgebra, b: LocalAlgebra, phi: Sequence[int]) -> bool:
    """Does phi satisfy phi(f(x)) = g(phi(x)) on every neighborhood?"""
    if a.m != b.m or a.r != b.r:
        return False
    return [phi[x] for x in a.table] == ca_core.outputs_on(b, phi)


def _check_invariant(algebra: AffineAlgebra, space: Subspace) -> None:
    for offset in range(-algebra.r, algebra.r + 1):
        mat = algebra.component(offset)
        for vec in space.basis:
            image = mat.apply(vec)
            if not space.contains(image):
                raise ValueError(
                    f"subspace not invariant: component {offset} maps {vec} to {image}")


def subalgebra_affine(algebra: AffineAlgebra, space: Subspace, anchor: Sequence[int],
                      caps: Caps = DEFAULT_CAPS) -> AffineAlgebra:
    """Affine rule on the coset anchor + space, in the coordinates of the
    subspace basis.  Requires the space invariant under every component
    and f(anchor, ..., anchor) inside the coset; the embedding is
    verified against the full truth table before returning.
    """
    if algebra.d == 0:
        raise ValueError("cannot restrict a zero-dimensional rule")
    if (space.p, space.ambient) != (algebra.p, algebra.d):
        raise ValueError("subspace does not match the rule's state space")
    p = algebra.p
    anchor = tuple(x % p for x in anchor)
    _check_invariant(algebra, space)
    fixed = algebra.decode_state(_affine_outputs(algebra, [anchor])[0])
    drift = tuple((a - b) % p for a, b in zip(fixed, anchor))
    if not space.contains(drift):
        raise ValueError(
            f"f(v,...,v) - v = {drift} is outside the subspace for anchor {anchor}")
    e = space.dim
    if e == 0:
        result = AffineAlgebra.singleton(p, algebra.r)
    else:
        mats = []
        for offset in range(-algebra.r, algebra.r + 1):
            mat = algebra.component(offset)
            cols = [space.coordinates(mat.apply(w)) for w in space.basis]
            mats.append(FpMatrix(p, e, e, tuple(zip(*cols))))
        result = AffineAlgebra(p, e, algebra.r, tuple(mats), space.coordinates(drift))
    _verify_coset_embedding(algebra, space, anchor, result, caps)
    return result


def _verify_coset_embedding(algebra: AffineAlgebra, space: Subspace, anchor: Vector,
                            sub: AffineAlgebra, caps: Caps) -> None:
    """Replay sub's whole table through the coset embedding against the
    ambient rule on the embedded states; raises on the first mismatch."""
    sub_table = to_table(sub, caps)
    # sub's state t has the base-p digits of t as coordinates, which is
    # the order in which space.vectors() lists the members
    embed = [tuple((a + w) % algebra.p for a, w in zip(anchor, vec)) for vec in space.vectors()]
    codes = [algebra.encode_state(vec) for vec in embed]
    expected = _affine_outputs(algebra, embed)
    for v, out in enumerate(sub_table.table):
        if codes[out] != expected[v]:
            nb = ca_core.decode_word(v, sub_table.m, sub_table.arity)
            raise RuntimeError(f"coset embedding failed to commute on {nb}")


def quotient_affine(algebra: AffineAlgebra, space: Subspace,
                    caps: Caps = DEFAULT_CAPS) -> AffineAlgebra:
    """Affine rule induced on V / space, coordinatized by the non-pivot
    positions of the subspace's echelon basis."""
    if algebra.d == 0:
        raise ValueError("cannot quotient a zero-dimensional rule")
    if (space.p, space.ambient) != (algebra.p, algebra.d):
        raise ValueError("subspace does not match the rule's state space")
    p, d = algebra.p, algebra.d
    _check_invariant(algebra, space)
    pivots = space.pivots()
    free = [t for t in range(d) if t not in pivots]
    e = len(free)

    def coords(vec: Sequence[int]) -> Vector:
        reduced = space.reduce(vec)
        return tuple(reduced[t] for t in free)

    if e == 0:
        return AffineAlgebra.singleton(p, algebra.r)

    def lift(coeffs: Sequence[int]) -> Vector:
        vec = [0] * d
        for c, t in zip(coeffs, free):
            vec[t] = c
        return tuple(vec)

    mats = []
    for offset in range(-algebra.r, algebra.r + 1):
        mat = algebra.component(offset)
        cols = []
        for t in range(e):
            unit = [0] * e
            unit[t] = 1
            cols.append(coords(mat.apply(lift(unit))))
        mats.append(FpMatrix(p, e, e, tuple(zip(*cols))))
    return AffineAlgebra(p, e, algebra.r, tuple(mats), coords(algebra.constant))


@dataclass(frozen=True)
class AffineClassification:
    """Shape summary of an affine rule: which components permute the
    state space, the outermost effective positions, and whether the rule
    is additive after a change of origin."""

    p: int
    d: int
    r: int
    component_bijective: tuple[bool, ...]
    bijective_condition: bool
    left_witness: int | None
    right_witness: int | None
    in_witness_class: bool
    additive: bool
    idempotent: Vector | None
    canonical_additive: bool


def classify_affine(algebra: AffineAlgebra) -> AffineClassification:
    if algebra.d == 0:
        return AffineClassification(algebra.p, 0, algebra.r, (), False, None, None,
                                    False, True, (), False)
    bijective = tuple(mat.is_invertible() for mat in algebra.components)
    effective = [idx for idx, mat in enumerate(algebra.components) if not mat.is_zero()]
    left = right = None
    if effective:
        if bijective[effective[0]]:
            left = effective[0] - algebra.r
        if bijective[effective[-1]]:
            right = effective[-1] - algebra.r
    idempotent = algebra.idempotent()
    return AffineClassification(
        p=algebra.p,
        d=algebra.d,
        r=algebra.r,
        component_bijective=bijective,
        bijective_condition=sum(bijective) >= 2,
        left_witness=left,
        right_witness=right,
        in_witness_class=left is not None and right is not None and left < right,
        additive=idempotent is not None,
        idempotent=idempotent,
        canonical_additive=algebra.d == 1 and algebra.is_additive(),
    )


def affine_isomorphism(a: AffineAlgebra, b: AffineAlgebra,
                       caps: Caps = DEFAULT_CAPS) -> Vector | None:
    """State bijection of the form x -> Tx + u conjugating a onto b.

    The matrices T commuting a's components onto b's form a linear
    space, found by solving the Sylvester-type system; each invertible
    member is then paired with a translation that matches the constants.
    Only affine-shaped bijections are searched.
    """
    if (a.p, a.d, a.r) != (b.p, b.d, b.r):
        return None
    if a.d == 0:
        return (0,)
    p, d = a.p, a.d
    unknowns = d * d
    rows = []
    for mat_a, mat_b in zip(a.components, b.components):
        # T M - N T = 0, entry (s, t): sum_k T[s,k] M[k,t] - N[s,k] T[k,t]
        for s in range(d):
            for t in range(d):
                row = [0] * unknowns
                for k in range(d):
                    row[s * d + k] = (row[s * d + k] + mat_a.entries[k][t]) % p
                    row[k * d + t] = (row[k * d + t] - mat_b.entries[s][k]) % p
                rows.append(tuple(row))
    basis = nullspace_basis(FpMatrix(p, len(rows), unknowns, tuple(rows)))
    require(p ** len(basis) <= caps.onedim_cap,
            f"conjugacy space too large: p^{len(basis)} candidates")
    shift = b.component_sum().add(FpMatrix.identity(p, d).scale(-1))
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        flat = [0] * unknowns
        for c, vec in zip(coeffs, basis):
            if c:
                for idx in range(unknowns):
                    flat[idx] = (flat[idx] + c * vec[idx]) % p
        matrix = FpMatrix(p, d, d, tuple(
            tuple(flat[s * d + t] for t in range(d)) for s in range(d)))
        if not matrix.is_invertible():
            continue
        rhs = matrix.apply(a.constant)
        rhs = tuple((x - y) % p for x, y in zip(rhs, b.constant))
        translation = solve(shift, rhs)
        if translation is None:
            continue
        # the bijection is the radius-0 rule x -> Tx + u
        return to_table(AffineAlgebra(p, d, 0, (matrix,), translation), caps).table
    return None
