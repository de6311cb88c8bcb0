"""Exact linear algebra over prime fields.

Matrices carry their modulus, entries are plain ints reduced to 0..p-1,
and every value is immutable, so equality is structural and instances
can be shared freely between threads.  Subspaces are kept in reduced
row-echelon form, which makes them canonical: two subspaces are equal
exactly when their fields compare equal.  Every echelon form here, from
`rref` to the invariant spin, is grown by one step, `_insert`, which adds
one vector at a time.

Simplicity is decided by Norton's irreducibility test from the MeatAxe
(Parker 1984; Holt and Rees 1994): two nullspaces of one singular
element M_i - lambda*I are spun under the maps and their transposes.
Only when no such element is singular does `is_simple` fall back to
spinning every line of F_p^n; `common_invariant_subspaces` spins every
line unless the test proves the maps simple.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .caps import DEFAULT_CAPS, Caps, require

Vector = tuple[int, ...]
Member = TypeVar("Member", bound=Hashable)


def is_prime(p: int) -> bool:
    """Trial-division primality test; the moduli used here are tiny."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def smallest_prime_factor(m: int) -> int:
    if m < 2:
        raise ValueError(f"state count {m} has no prime base")
    return next(p for p in range(2, m + 1) if m % p == 0)


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _all_in_range(values: Sequence[int], bound: int) -> bool:
    try:  # any float entry, even a 1.0 that set() merges into 1, makes the sum a float
        operator.index(sum(values))
        distinct = set(values)
    except (TypeError, OverflowError):
        return False
    return not distinct or (min(distinct) >= 0 and max(distinct) < bound)


def first_out_of_range(values: Sequence[int], bound: int) -> int | None:
    """Position of the first entry of `values` that is not an integer in
    0..bound-1, or None: a position, so that a None entry cannot pass.

    True and False count as 1 and 0.  A list passes when its sum is an
    integer (a float entry, even 1.0, makes it a float; None or a string
    makes it fail) and its distinct entries lie within the bounds.  No
    set of `bound` elements is built, so any prime bound costs the same.
    Only a failing list is scanned in order, with the same test on each
    entry.
    """
    if _all_in_range(values, bound):
        return None
    return next((i for i, x in enumerate(values) if not _all_in_range((x,), bound)), None)


def _reduce(rows: Sequence[Vector], vec: Sequence[int], p: int) -> list[int]:
    """`vec` mod p with every pivot entry eliminated against the reduced
    echelon `rows`.  A pivot-normalized row's pivot is its first 1."""
    residue = [x % p for x in vec]
    for row in rows:
        factor = residue[row.index(1)]
        if factor:
            residue = [(a - factor * b) % p for a, b in zip(residue, row)]
    return residue


def _insert(rows: list[Vector], vec: Sequence[int], p: int) -> bool:
    """The one elimination step: add `vec` to the reduced echelon `rows`
    in place.  A nonzero residue is scaled to pivot 1, cleared from that
    column of the other rows and put in pivot order, and True returned;
    a zero residue returns False and leaves `rows` as they were."""
    residue = _reduce(rows, vec, p)
    pivot = next((i for i, x in enumerate(residue) if x), None)
    if pivot is None:
        return False
    inv = pow(residue[pivot], p - 2, p)  # Fermat: a^(p-2) = a^-1 mod p
    new = tuple(x * inv % p for x in residue)
    for k, row in enumerate(rows):
        factor = row[pivot]
        if factor:
            rows[k] = tuple((a - factor * b) % p for a, b in zip(row, new))
    rows.insert(sum(row.index(1) < pivot for row in rows), new)
    return True


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over F_p with row-major tuple storage."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:  # so the first bad row or entry is named
            if len(row) != self.cols:
                raise ValueError("column count does not match entries")
            bad = first_out_of_range(row, self.p)
            if bad is not None:
                raise ValueError(f"entry {row[bad]} out of range mod {self.p}")

    @staticmethod
    def from_rows(p: int, rows: Sequence[Sequence[int]]) -> "FpMatrix":
        _check_prime(p)
        entries = tuple(tuple(x % p for x in row) for row in rows)
        return FpMatrix(p, len(entries), len(entries[0]) if entries else 0, entries)

    @staticmethod
    def identity(p: int, n: int) -> "FpMatrix":
        return FpMatrix.from_rows(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(p: int, rows: int, cols: int | None = None) -> "FpMatrix":
        cols = rows if cols is None else cols
        return FpMatrix.from_rows(p, [[0] * cols for _ in range(rows)])

    @staticmethod
    def shift(p: int, n: int) -> "FpMatrix":
        """The nilpotent single-chain matrix J with ones just below the
        diagonal, so J maps e_k to e_{k+1} and kills e_n."""
        return FpMatrix.from_rows(p, [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.cols, self.rows,
                        tuple(zip(*self.entries)) if self.entries else ())

    def add(self, other: "FpMatrix") -> "FpMatrix":
        self._compatible(other, same_shape=True)
        p = self.p
        return FpMatrix(p, self.rows, self.cols, tuple(
            tuple((a + b) % p for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def scale(self, k: int) -> "FpMatrix":
        p = self.p
        k %= p
        return FpMatrix(p, self.rows, self.cols,
                        tuple(tuple((k * x) % p for x in row) for row in self.entries))

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        self._compatible(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        p = self.p
        cols_b = list(zip(*other.entries))
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols_b)
            for row in self.entries)
        return FpMatrix(p, self.rows, other.cols, data)

    def power(self, k: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = FpMatrix.identity(self.p, self.rows)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base)
            k >>= 1
        return result

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match matrix columns")
        p = self.p
        return tuple(sum(a * x for a, x in zip(row, vec)) % p for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def rank(self) -> int:
        return Subspace.span(self.p, self.cols, self.entries).dim

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def _compatible(self, other: "FpMatrix", same_shape: bool = False) -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes do not match")

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def rref(matrix: FpMatrix) -> tuple[FpMatrix, int]:
    """Reduced row-echelon form and rank.  Total and deterministic; the
    row space of the input is preserved.  The nonzero rows are the basis
    of the rows' span; zero rows pad it to the input's row count."""
    basis = Subspace.span(matrix.p, matrix.cols, matrix.entries).basis
    padding = ((0,) * matrix.cols,) * (matrix.rows - len(basis))
    return FpMatrix(matrix.p, matrix.rows, matrix.cols, basis + padding), len(basis)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n, stored as the nonzero rows of its RREF basis.

    The representation is canonical, so dataclass equality coincides
    with equality of subspaces.
    """

    p: int
    ambient: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        pivots: list[int] = []
        for row in self.basis:
            if len(row) != self.ambient:
                raise ValueError("basis vector length does not match ambient dimension")
            bad = first_out_of_range(row, self.p)
            if bad is not None:
                raise ValueError(f"entry {row[bad]} out of range mod {self.p}")
            pivot = next((i for i, x in enumerate(row) if x), None)
            if pivot is None:
                raise ValueError("basis contains a zero vector")
            if pivots and pivot <= pivots[-1]:
                raise ValueError("basis pivots must be strictly increasing")
            if row[pivot] != 1:
                raise ValueError("basis rows must be pivot-normalized")
            pivots.append(pivot)
        # each pivot must be the only nonzero entry in its column
        for pivot in pivots:
            if sum(row[pivot] != 0 for row in self.basis) != 1:
                raise ValueError("basis is not fully reduced")

    @staticmethod
    def span(p: int, ambient: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        """The span of `vectors`, inserted one at a time by `_insert`."""
        _check_prime(p)
        rows: list[Vector] = []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("seed vector length does not match ambient dimension")
            _insert(rows, v, p)
        return Subspace(p, ambient, tuple(rows))

    @staticmethod
    def zero(p: int, ambient: int) -> "Subspace":
        return Subspace(p, ambient, ())

    @staticmethod
    def full(p: int, ambient: int) -> "Subspace":
        return Subspace(p, ambient, FpMatrix.identity(p, ambient).entries if ambient else ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple(row.index(1) for row in self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def reduce(self, vec: Sequence[int]) -> Vector:
        """Canonical representative of the coset vec + self: the pivot
        entries eliminated against the RREF basis.  Two vectors reduce
        to the same representative exactly when their difference lies in
        the subspace, and the representative is zero at every pivot."""
        return tuple(_reduce(self.basis, vec, self.p))

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def join(self, other: "Subspace") -> "Subspace":
        """`other`'s basis inserted into a copy of this one; `self` itself
        when `other` lies inside it."""
        if (self.p, self.ambient) != (other.p, other.ambient):
            raise ValueError("subspaces live in different ambient spaces")
        rows = list(self.basis)
        for vec in other.basis:
            _insert(rows, vec, self.p)
        return self if len(rows) == self.dim else Subspace(self.p, self.ambient, tuple(rows))

    def coordinates(self, vec: Sequence[int]) -> Vector:
        """Coefficients of `vec` in the RREF basis.  With a reduced basis
        these are just the entries at the pivot positions."""
        if not self.contains(vec):
            raise ValueError(f"vector {tuple(vec)} is not in the subspace")
        p = self.p
        return tuple(vec[pivot] % p for pivot in self.pivots())

    def vectors(self) -> Iterator[Vector]:
        """All p^dim member vectors, in lexicographic coefficient order."""
        p, ambient = self.p, self.ambient
        for coeffs in itertools.product(range(p), repeat=self.dim):
            vec = [0] * ambient
            for c, row in zip(coeffs, self.basis):
                if c:
                    for i, b in enumerate(row):
                        vec[i] = (vec[i] + c * b) % p
            yield tuple(vec)

    def sort_key(self) -> tuple:
        return (self.dim, self.basis)

    def __str__(self) -> str:
        if self.is_zero():
            return "{0}"
        return " + ".join("<" + ",".join(str(x) for x in row) + ">" for row in self.basis)


def one_dim_representatives(p: int, n: int) -> Iterator[Vector]:
    """One normalized vector (first nonzero entry 1) per line of F_p^n,
    in lexicographic order: the leading 1 moves left, and each free tail
    after it runs through F_p in order."""
    for lead in range(n - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def join_closure(bottom: Member, generators: Iterable[Member],
                 join: Callable[[Member, Member], Member], limit: int,
                 what: str) -> list[Member]:
    """The closure of `bottom` and `generators` under `join`, in
    breadth-first discovery order; `bottom` is a member every other
    member is joined onto (the least element where the lattice has one).

    Each member is a join of some of these, so joining each member with
    the generators alone reaches all of them (Freese, "Computing
    congruences efficiently", Algebra Universalis 59, 2008).  Raises
    CapExceeded, "`what` exceeds `limit` members", past `limit` members.

    `join` must be a semilattice join: associative, commutative and
    idempotent.  Then a join is read off the table of joins already made
    wherever the table holds it, and computed only where it does not.
    Member x_i was first reached as x_p v g_k0 for some p < i, whose row
    is complete, so x_i v g_k = (x_p v g_k) v g_k0 = x_j v g_k0 with
    x_j = x_p v g_k: that is x_i when j = i, and is in row j when j < i;
    only when j > i, or x_i has no such parent, is `join` called.  Every
    member still meets every generator in the same order, so the
    members, their order and the cap's raise point are those of joining
    them all.
    """
    members = [bottom]
    index = {bottom: 0}
    for gen in generators:
        if gen not in index:
            index[gen] = len(members)
            members.append(gen)
    gens = members[1:]
    width = len(gens)
    require(len(members) <= limit, f"{what} exceeds {limit} members")
    joins = array("i")  # joins[i * width + k]: the index of members[i] v gens[k]
    parent: dict[int, tuple[int, int]] = {}  # j: the first (p, k0), p < j, reaching j
    for i, current in enumerate(members):  # grows while iterated: breadth first
        p, k0 = parent.get(i, (-1, 0))
        for k, gen in enumerate(gens):
            # j: the index of x_p v g_k; past i (no row yet) when x_i has no parent
            j = joins[p * width + k] if p >= 0 else len(members)
            if j < i:
                j = joins[j * width + k0]
            elif j > i:
                joined = join(current, gen)
                j = index.get(joined, -1)
                if j < 0:
                    require(len(members) < limit, f"{what} exceeds {limit} members")
                    j = index[joined] = len(members)
                    members.append(joined)
            if j > i:
                parent.setdefault(j, (i, k))
            joins.append(j)
    return members


def _check_maps(maps: Sequence[FpMatrix]) -> tuple[int, int]:
    """(p, n) when every map is an n x n matrix over one F_p."""
    if not maps:
        raise ValueError("cannot infer modulus from an empty map list")
    p, n = maps[0].p, maps[0].rows
    for m in maps:
        if m.rows != n or m.cols != n:
            raise ValueError(f"map dimensions {m.rows}x{m.cols} do not match ambient {n}")
        if m.p != p:
            raise ValueError("maps have mismatched moduli")
    return p, n


def invariant_closure(seed: Iterable[Sequence[int]], maps: Sequence[FpMatrix]) -> Subspace:
    """Smallest subspace containing `seed` and invariant under every map;
    p and n come from the maps.  Spins (Parker's Meat-Axe) on a plain
    echelon row list: each spanning vector meets each map once, an image
    `_insert` adds waits its own turn, the spin stops once the rows fill
    F_p^n, and the Subspace is built once, at the end."""
    p, n = _check_maps(maps)
    rows = list(Subspace.span(p, n, seed).basis)
    pending = list(rows)
    while pending and len(rows) < n:
        vec = pending.pop()
        for m in maps:
            image = m.apply(vec)
            if _insert(rows, image, p):
                pending.append(image)
    return Subspace(p, n, tuple(rows))


def _line_closures(maps: Sequence[FpMatrix], caps: Caps) -> tuple[Subspace, Iterator[Subspace]]:
    """The zero space of F_p^n and the invariant closures of its lines,
    spun lazily, once the (p^n-1)/(p-1) lines are within `onedim_cap`."""
    p, n = _check_maps(maps)
    reps = (p ** n - 1) // (p - 1)
    require(reps <= caps.onedim_cap,
            f"{reps} one-dimensional subspaces exceed cap {caps.onedim_cap}")
    return Subspace.zero(p, n), (invariant_closure([v], maps)
                                 for v in one_dim_representatives(p, n))


def _norton(maps: Sequence[FpMatrix]) -> bool | None:
    """Norton's irreducibility test: whether only the trivial subspaces
    are invariant under all maps, or None when no theta = M_i - lambda*I
    is singular.  theta is the first candidate, map by map and lambda by
    lambda, of least nonzero nullity.  The maps act simply exactly when
    every line of null(theta) spins to F_p^n under the maps and every
    line of null(theta^T) under their transposes: a proper invariant U
    either meets null(theta), or theta is bijective on U and so singular
    on F_p^n / U, and then the transpose-invariant U^perp meets
    null(theta^T)."""
    p, n = _check_maps(maps)
    if n == 1:
        return True  # F_p^1 has no proper nonzero subspace
    identity = FpMatrix.identity(p, n)
    theta, kernel = None, []
    for m, lam in itertools.product(maps, range(p)):
        candidate = m.add(identity.scale(-lam))
        null = nullspace_basis(candidate)
        if null and (not kernel or len(null) < len(kernel)):
            theta, kernel = candidate, null
            if len(kernel) == 1:
                break
    if theta is None:
        return None
    transposes = [m.transpose() for m in maps]
    for basis, spin in ((kernel, maps), (nullspace_basis(theta.transpose()), transposes)):
        for coeffs in one_dim_representatives(p, len(basis)):
            line = tuple(sum(c * b for c, b in zip(coeffs, column)) % p
                         for column in zip(*basis))
            if not invariant_closure([line], spin).is_full():
                return False
    return True


def common_invariant_subspaces(maps: Sequence[FpMatrix], *,
                               caps: Caps = DEFAULT_CAPS) -> list[Subspace]:
    """The full lattice of subspaces of F_p^n invariant under all maps.

    Every invariant subspace is the join of the invariant closures of
    its one-dimensional subspaces, so the lattice is the join-closure of
    those closures, plus the zero space.  When Norton's test proves the
    maps simple, every closure is F_p^n and F_p^n alone is joined;
    otherwise every line is spun.  Output is ordered by dimension and
    then lexicographically by RREF basis.
    """
    zero, closures = _line_closures(maps, caps)
    generators = [Subspace.full(zero.p, zero.ambient)] if _norton(maps) else closures
    lattice = join_closure(zero, generators, Subspace.join,
                           caps.lattice_cap, "invariant-subspace lattice")
    return sorted(lattice, key=Subspace.sort_key)


def is_simple(maps: Sequence[FpMatrix], *, caps: Caps = DEFAULT_CAPS) -> bool:
    """True when only the trivial subspaces are invariant under all maps,
    i.e. every nonzero vector generates the full space.  Decided by
    Norton's test; only when no M_i - lambda*I is singular is every line
    of F_p^n spun."""
    closures = _line_closures(maps, caps)[1]
    answer = _norton(maps)
    if answer is None:
        return all(space.is_full() for space in closures)
    return answer


def solve(matrix: FpMatrix, rhs: Sequence[int]) -> Vector | None:
    """One solution of M x = rhs (free variables set to 0), or None."""
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match matrix rows")
    augmented = Subspace.span(matrix.p, matrix.cols + 1, (
        row + (b,) for row, b in zip(matrix.entries, rhs)))
    solution = [0] * matrix.cols
    for row, pivot in zip(augmented.basis, augmented.pivots()):
        if pivot == matrix.cols:
            return None  # 0 = nonzero row: inconsistent
        solution[pivot] = row[matrix.cols]
    return tuple(solution)


def nullspace_basis(matrix: FpMatrix) -> list[Vector]:
    """Basis of the right nullspace {x : M x = 0}."""
    p, n = matrix.p, matrix.cols
    span = Subspace.span(p, n, matrix.entries)
    pivots = span.pivots()
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [0] * n
        vec[free] = 1
        for row, pivot in zip(span.basis, pivots):
            vec[pivot] = (-row[free]) % p
        basis.append(tuple(vec))
    return basis
