"""Truth-table cellular automaton local algebras and their operators.

A local algebra is a finite state set {0..m-1} together with a local
rule of arity 2r+1 stored as an explicit table.  The table index of a
neighborhood (x_{-r}, ..., x_r) is the base-m value with the leftmost
cell most significant, so for m=2, r=1 the table coincides with the
Wolfram numbering of elementary CAs (bit v of the rule number is the
output for the neighborhood worth v = 4*x_{-1} + 2*x_0 + x_1).

Block encodings follow the same convention: a block (s_1, ..., s_n) of
states is the integer sum(s_t * m^(n-t)), leftmost cell most
significant, and products use mixed radix with the leftmost factor most
significant.  Unpacking a block configuration is therefore plain digit
expansion.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Sequence

from .caps import DEFAULT_CAPS, Caps, require
from .fp_linalg import first_out_of_range, join_closure

Word = tuple[int, ...]


def encode_word(word: Sequence[int], m: int) -> int:
    value = 0
    for x in word:
        value = value * m + x
    return value


def decode_word(value: int, m: int, length: int) -> Word:
    digits = []
    for _ in range(length):
        digits.append(value % m)
        value //= m
    digits.reverse()
    return tuple(digits)


def unpack(word: Sequence[int], n: int, m: int) -> Word:
    """Expand block-encoded states into base states (the map o_n).

    Each block value below m^n becomes its n base-m digits, leftmost
    digit first, so the output is n times longer than the input.
    """
    if n < 1:
        raise ValueError("block size must be at least 1")
    word = tuple(word)
    bad = first_out_of_range(word, m ** n)
    if bad is not None:
        raise ValueError(f"block value {word[bad]} out of range for m={m}, n={n}")
    out: list[int] = []
    for block in word:
        out.extend(decode_word(block, m, n))
    return tuple(out)


@dataclass(frozen=True)
class LocalAlgebra:
    """A CA local rule of radius r on m states, as an explicit table."""

    m: int
    r: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("state count must be at least 1")
        if self.r < 0:
            raise ValueError("radius must be nonnegative")
        size = len(self.table)
        # m >= 2 and 2r+1 >= size.bit_length() give m^(2r+1) > size; a count that
        # may pass 64 bits (a huge radius) is named, since computing it can hang
        if (self.m > 1 and self.arity >= size.bit_length()
                and self.arity * (self.m - 1).bit_length() > 64):
            raise ValueError(f"table length {size} != m^(2r+1) = {self.m}^{self.arity}")
        expected = self.m ** self.arity
        if size != expected:
            raise ValueError(f"table length {size} != m^(2r+1) = {expected}")
        bad = first_out_of_range(self.table, self.m)
        if bad is not None:
            raise ValueError(f"table output {self.table[bad]} out of range")

    @property
    def arity(self) -> int:
        return 2 * self.r + 1

    @functools.cached_property
    def _signatures(self) -> tuple[tuple[int, int, int, int], ...]:
        """Relabeling-invariant unary fingerprint per state, used to prune
        isomorphism search: orbit shape under s -> f(s,...,s), in-degree of
        the diagonal map, and how often the state occurs as an output.
        Computed once per algebra object, like `_fingerprint`."""
        diag = _diagonal(self)
        indeg = collections.Counter(diag)
        occurrences = collections.Counter(self.table)
        signatures = []
        for s in range(self.m):
            seen = {s: 0}
            x = s
            while True:
                x = diag[x]
                if x in seen:
                    tail, cycle = seen[x], len(seen) - seen[x]
                    break
                seen[x] = len(seen)
            signatures.append((tail, cycle, indeg[s], occurrences[s]))
        return tuple(signatures)

    @functools.cached_property
    def _fingerprint(self) -> tuple:
        return (self.m, self.r, tuple(sorted(self._signatures)))

    @staticmethod
    def from_function(m: int, r: int, fn: Callable[..., int]) -> "LocalAlgebra":
        arity = 2 * r + 1
        table = tuple(fn(*nb) % m for nb in itertools.product(range(m), repeat=arity))
        return LocalAlgebra(m, r, table)

    def apply(self, neighborhood: Sequence[int]) -> int:
        return self.table[encode_word(neighborhood, self.m)]

    def __repr__(self) -> str:
        if self.m <= 10 and len(self.table) <= 32:
            body = "".join(str(x) for x in self.table)
        else:
            body = f"<{len(self.table)} entries>"
        return f"LocalAlgebra(m={self.m}, r={self.r}, table={body})"


def outputs_on(algebra: LocalAlgebra, states: Sequence[int]) -> list[int]:
    """The rule on every neighborhood over a list of states.

    Entry v is f(states[d_1], ..., states[d_k]) where (d_1, ..., d_k) is
    v in base len(states), leftmost digit most significant; the states
    may repeat.  This is the one table-evaluation kernel that
    restrictions, quotients and relabelings are built on.

    The index prefixes over the first arity - 1 positions are built in
    Python by _row_starts, as the starts of their rows of m table
    entries; the last position is read off each row by one itemgetter
    over the states, so the innermost loop runs in C.
    """
    if len(states) < 2:  # itemgetter needs an index, and returns one bare value for one
        return [algebra.apply([s] * algebra.arity) for s in states]
    m, table = algebra.m, algebra.table
    last = operator.itemgetter(*states)
    outputs: list[int] = []
    for i in _row_starts(algebra, states):
        outputs.extend(last(table[i:i + m]))
    return outputs


def _row_starts(algebra: LocalAlgebra, states: Sequence[int]) -> list[int]:
    """Table index of the first entry of the row of every prefix over
    the first arity - 1 positions, each position ranging over `states`
    in order: the prefix in base m, times m."""
    m = algebra.m
    starts = [0]
    for _ in range(algebra.arity - 1):
        starts = [(i + s) * m for i in starts for s in states]
    return starts


def eca(number: int) -> LocalAlgebra:
    """Elementary CA by Wolfram number."""
    if not 0 <= number <= 255:
        raise ValueError("ECA numbers range over 0..255")
    return LocalAlgebra(2, 1, tuple((number >> v) & 1 for v in range(8)))


def singleton(r: int) -> LocalAlgebra:
    """The one-state algebra SING_r, minimum of the simulation preorder."""
    return LocalAlgebra(1, r, (0,))


def unravel(algebra: LocalAlgebra, word: Sequence[int], iterations: int = 1) -> Word:
    """Apply the local rule at every window, `iterations` times.

    Each pass shortens the word by 2r, so the input must have at least
    2*iterations*r + 1 cells.
    """
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    m, r = algebra.m, algebra.r
    word = tuple(word)
    bad = first_out_of_range(word, m)
    if bad is not None:
        raise ValueError(f"state {word[bad]} out of range for m={m}")
    if len(word) < 2 * iterations * r + 1:
        raise ValueError(
            f"word of length {len(word)} too short for {iterations} passes of radius {r}")
    for _ in range(iterations):
        word = _unravel_pass(algebra, word)
    return tuple(word)


def _unravel_pass(algebra: LocalAlgebra, word: Sequence[int]) -> list[int]:
    """One unravelling pass, unchecked: the caller has checked that every
    state is in range and that the word has at least 2r+1 cells."""
    m, table = algebra.m, algebra.table
    arity = algebra.arity
    window = m ** (arity - 1)
    out = []
    idx = 0
    for x in word[:arity - 1]:
        idx = idx * m + x
    for x in word[arity - 1:]:
        idx = (idx % window) * m + x
        out.append(table[idx])
    return out


def _pass_luts(algebra: LocalAlgebra, length: int) -> Iterator[list[int]]:
    """Tables of one unravelling pass on all m^k words, word-encoded, for
    k = 2r+1, ..., length in turn.

    Grown one cell at a time from the rule's own table: the pass image
    of a word is the rule on its first window followed by the image of
    the word without its first cell.  The words that share their first
    window c form one run of m^(k-2r-1) entries, which is f(c) in the
    leading output cell added to a run of the shorter table, so each
    run is one map in C.
    """
    m, table = algebra.m, algebra.table
    contexts = len(table) // m  # the last 2r cells of a first window
    lut = list(table)
    yield lut
    for k in range(algebra.arity + 1, length + 1):
        run = m ** (k - algebra.arity)  # also the weight of the leading output cell
        grown: list[int] = []
        for c, first in enumerate(table):
            start = c % contexts * run
            grown.extend(map((first * run).__add__, lut[start:start + run]))
        lut = grown
        yield lut


def iterative_power(algebra: LocalAlgebra, n: int, caps: Caps = DEFAULT_CAPS) -> LocalAlgebra:
    """The grouped algebra on blocks of n states realizing n steps.

    The new rule keeps radius r; a neighborhood of 2r+1 blocks is the
    word of its n*(2r+1) cells, so its table index is already that
    word's base-m value.  The table composes n pass tables (one
    unravelling pass each) on words of n*(2r+1) - 2ri cells for
    i = 0..n-1, which leaves the middle n cells: the output block.
    One growth reaches those lengths last pass first; each composes
    onto the passes after it.
    """
    if n < 1:
        raise ValueError("iterative power exponent must be at least 1")
    if n == 1 or algebra.m == 1:
        return algebra  # a one-state algebra is its own power
    m, r = algebra.m, algebra.r
    length = n * algebra.arity
    # m >= 2, so a length past the cap's bit length is over the cap
    # without computing m ** length
    require(length < caps.table_cap.bit_length() and m ** length <= caps.table_cap,
            f"iterative power table needs {m}^{length} entries, cap {caps.table_cap}")
    lengths = [length - 2 * r * i for i in range(n)]
    table: Sequence[int] = range(m ** n)  # no pass yet: the identity on blocks
    for k, lut in enumerate(_pass_luts(algebra, length), algebra.arity):
        for _ in range(lengths.count(k)):
            table = list(map(table.__getitem__, lut))
    return LocalAlgebra(m ** n, r, tuple(table))


def product(algebras: Sequence[LocalAlgebra], caps: Caps = DEFAULT_CAPS) -> LocalAlgebra:
    """Componentwise rule on mixed-radix-encoded tuples of states.

    The table is built a row at a time: the row of a combined prefix
    (the last position over all m_total states) is the mixed-radix outer
    sum of one row of each factor, the row that factor's digits of the
    prefix select.  Each distinct combination of factor rows is built
    once and reused for every prefix that selects it, so factors whose
    rows repeat, as the rows of iterative powers do, cost little.
    """
    if not algebras:
        raise ValueError("product needs at least one factor")
    r = algebras[0].r
    for a in algebras:
        if a.r != r:
            raise ValueError("product factors must share one radius")
    m_total = 1
    for a in algebras:
        m_total *= a.m
    entries = m_total ** (2 * r + 1)
    require(entries <= caps.table_cap,
            f"product table needs {entries} entries, cap {caps.table_cap}")
    # each factor runs on its own mixed-radix digit of every combined
    # state.  Rows get ids by content, not by start: every combined
    # prefix has a start of its own, so only contents repeat.  A row
    # scaled by its factor's place adds its digit to a combined state.
    place = m_total
    factor_rows: list[list[Word]] = []
    row_keys = []
    for a in algebras:
        place //= a.m
        ids: dict[Word, int] = {}
        id_at = {i: ids.setdefault(a.table[i:i + a.m], len(ids))
                 for i in range(0, len(a.table), a.m)}
        factor_rows.append([tuple(o * place for o in row) for row in ids])
        digits = [(v // place) % a.m for v in range(m_total)]
        row_keys.append(map(id_at.__getitem__, _row_starts(a, digits)))
    first_rows, later_rows = factor_rows[0], factor_rows[1:]
    built: dict[tuple[int, ...], Sequence[int]] = {}
    table: list[int] = []
    for key in zip(*row_keys):
        row = built.get(key)
        if row is None:
            row = first_rows[key[0]]
            for rows, k in zip(later_rows, key[1:]):
                row = [s + o for s in row for o in rows[k]]
            built[key] = row
        table.extend(row)
    return LocalAlgebra(m_total, r, tuple(table))


@dataclass(frozen=True)
class SpaceTimeDiagram:
    """Rows of a finite evolution, padded to a common width.

    In background mode row t is exact on the light cone of the initial
    word and equals background[t] outside it; origin is the cell index
    of the leftmost column.  In cyclic mode all rows have the ring
    length and origin is 0.
    """

    m: int
    rows: tuple[Word, ...]
    origin: int
    background: Word
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("background", "cyclic"):
            raise ValueError("mode must be 'background' or 'cyclic'")
        if len(self.background) != len(self.rows):
            raise ValueError("one background state per row is required")
        width = len(self.rows[0]) if self.rows else 0
        for row in self.rows:  # so the first bad row or entry is named
            if len(row) != width:
                raise ValueError("rows must have equal length")
            if first_out_of_range(row, self.m) is not None:
                raise ValueError("row entry out of range")

    @property
    def steps(self) -> int:
        return len(self.rows) - 1

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def window(self, t: int, r: int) -> Word:
        """Row t restricted to the light cone of the initial word."""
        if self.mode == "cyclic":
            return self.rows[t]
        pad = (self.steps - t) * r
        return self.rows[t][pad:self.width - pad] if pad else self.rows[t]

    def cell(self, t: int, i: int) -> int:
        """State of cell i at time t; outside the stored window the
        background value is reported (cyclic rows wrap around)."""
        if self.mode == "cyclic":
            return self.rows[t][(i - self.origin) % self.width]
        offset = i - self.origin
        if 0 <= offset < self.width:
            return self.rows[t][offset]
        return self.background[t]


def evolve(algebra: LocalAlgebra, word: Sequence[int], background: int = 0,
           steps: int = 0, mode: str = "background",
           caps: Caps = DEFAULT_CAPS) -> SpaceTimeDiagram:
    """Run the global rule for `steps` steps from a finite word.

    Background mode embeds the word at cells [0, len-1] in a uniform
    background; the tracked window widens by r per side each step and
    the background itself evolves by b <- f(b, ..., b), which matters
    for rules without a quiescent state.  Cyclic mode keeps the word
    length fixed and wraps indices around.  The diagram's
    (steps + 1) x width cells must be within `table_cap`.
    """
    m, r = algebra.m, algebra.r
    word = tuple(word)
    if not word:
        raise ValueError("initial word must be nonempty")
    bad = first_out_of_range(word, m)
    if bad is not None:
        raise ValueError(f"state {word[bad]} out of range for m={m}")
    if first_out_of_range((background,), m) is not None:
        raise ValueError(f"background state {background} out of range")
    if mode not in ("background", "cyclic"):
        raise ValueError("mode must be 'background' or 'cyclic'")
    _require_diagram(steps, len(word) + (2 * steps * r if mode == "background" else 0), caps)
    diagonal = _diagonal(algebra)
    backgrounds = [background]
    for _ in range(steps):
        backgrounds.append(diagonal[backgrounds[-1]])
    if mode == "cyclic":
        rows = [word]
        n = len(word)
        for _ in range(steps):
            prev = rows[-1]
            rows.append(tuple(_unravel_pass(algebra, [prev[i % n] for i in range(-r, n + r)])))
        return SpaceTimeDiagram(m, tuple(rows), 0, tuple(backgrounds), "cyclic")
    windows = [word]
    for b in backgrounds[:-1]:
        pad = (b,) * (2 * r)
        windows.append(tuple(_unravel_pass(algebra, pad + windows[-1] + pad)))
    rows = [(b,) * ((steps - t) * r) + win + (b,) * ((steps - t) * r)
            for t, (win, b) in enumerate(zip(windows, backgrounds))]
    return SpaceTimeDiagram(m, tuple(rows), -steps * r, tuple(backgrounds), "background")


def _require_diagram(steps: int, width: int, caps: Caps) -> None:
    """Refuse a negative step count, then a space-time diagram of more
    than `table_cap` cells."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    require((steps + 1) * width <= caps.table_cap,
            f"space-time diagram needs {steps + 1}x{width} cells, cap {caps.table_cap}")


@dataclass(frozen=True)
class Congruence:
    """A rule-compatible partition of the state set, canonically labeled:
    blocks sorted by least element, elements ascending within a block."""

    algebra: LocalAlgebra
    blocks: tuple[Word, ...]

    def __post_init__(self) -> None:
        seen = sorted(x for block in self.blocks for x in block)
        if seen != list(range(self.algebra.m)) or not all(self.blocks):
            raise ValueError("blocks do not partition the state set")
        for block in self.blocks:
            if list(block) != sorted(block):
                raise ValueError("block elements must be ascending")
        leads = [block[0] for block in self.blocks]
        if leads != sorted(leads):
            raise ValueError("blocks must be sorted by least element")
        label = self.class_labels()
        m, arity = self.algebra.m, self.algebra.arity
        # compatibility: every basic translation maps each block into one
        # class; checked exhaustively
        translations = _translations(self.algebra)
        for block in self.blocks:
            rep = block[0]
            for other in block[1:]:
                for pos, maps in enumerate(translations):
                    for t, base in maps.items():
                        if label[t[rep]] != label[t[other]]:
                            nb = decode_word(base, m, arity)
                            raise ValueError(
                                f"partition is not compatible: states {rep},{other} at "
                                f"position {pos - self.algebra.r} with context "
                                f"{nb[:pos] + nb[pos + 1:]} map to unrelated outputs")

    @staticmethod
    def from_blocks(algebra: LocalAlgebra, blocks: Iterable[Iterable[int]]) -> "Congruence":
        return Congruence(algebra, canonical_partition(blocks))

    def class_labels(self) -> list[int]:
        label = [0] * self.algebra.m
        for k, block in enumerate(self.blocks):
            for x in block:
                label[x] = k
        return label

    def is_full(self) -> bool:
        return len(self.blocks) == 1

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in block) for block in self.blocks)


def canonical_partition(blocks: Iterable[Iterable[int]]) -> tuple[Word, ...]:
    normalized = [tuple(sorted(block)) for block in blocks]
    normalized.sort(key=lambda b: b[:1])
    return tuple(normalized)


def _partition_of_labels(labels: Sequence[int]) -> tuple[Word, ...]:
    groups: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        groups.setdefault(lab, []).append(x)
    return canonical_partition(groups.values())


@functools.lru_cache(maxsize=1)
def _translations(algebra: LocalAlgebra) -> list[dict[Word, int]]:
    """The basic translations x -> f(c_1..x..c_k), one dict per position.

    Each distinct unary map, as the tuple of its values on 0..m-1, is
    keyed to the table index of its first context (x = 0), in context
    order.  The map of a context is a strided slice of the table.
    Cached for the last algebra; callers must not mutate the result.
    """
    m, arity, table = algebra.m, algebra.arity, algebra.table
    translations = []
    for pos in range(arity):
        stride = m ** (arity - 1 - pos)
        maps: dict[Word, int] = {}
        for high in range(0, len(table), m * stride):
            for base in range(high, high + stride):
                maps.setdefault(table[base:base + m * stride:stride], base)
        translations.append(maps)
    return translations


def _unite(parent: list[int], pairs: Iterable[tuple[int, int]]) -> None:
    """Merge the classes of each pair (x, y) in the union-find forest `parent`.

    Roots are always the least state of their tree: the larger root is
    linked under the smaller, and path halving only moves a state onto
    a smaller one, so parent[x] <= x throughout.
    """
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y


def _flatten(parent: list[int]) -> Word:
    """The least-state labels of a forest built by `_unite`: since
    parent[x] <= x, the label of parent[x] is final by the time an
    ascending pass reaches x."""
    for x, up in enumerate(parent):
        parent[x] = parent[up]
    return tuple(parent)


def _join(l1: Word, l2: Word) -> Word:
    """The join of two congruences given as least-state label vectors."""
    parent = list(l1)
    _unite(parent, enumerate(l2))
    return _flatten(parent)


def _principal_congruences(columns: Sequence[Word]) -> list[Word]:
    """Least-state labels of Cg(a, b) for every a < b, in (a, b) order.

    `columns[x]` lists the images of state x under the non-constant
    basic translations.  The pair graph has a node x*m + y per pair
    {x, y}, x < y, whose successors are the non-diagonal pairs of
    zip(columns[x], columns[y]); Cg(a, b) is the equivalence generated
    by the pairs reachable from {a, b} (Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008).  An iterative Tarjan
    DFS (Tarjan, SIAM J. Comput. 1, 1972) emits the strongly connected
    components successors first, so each component is labelled by the
    join of its own pairs and of its successor components' labels.
    Successors are read from `columns` when a pair is visited and again
    when its component is labelled; no successor list is kept.
    """
    m = len(columns)
    order = [0] * (m * m)  # DFS number, from 1; 0 while unvisited
    low = [0] * (m * m)
    comp = [-1] * (m * m)  # index into `labels` once the component is done
    labels: list[Word] = []
    index: dict[Word, int] = {}
    tarjan: list[int] = []  # visited pairs whose component is not done
    count = 0

    def successors(v: int) -> Iterator[int]:
        x, y = divmod(v, m)
        for s, t in zip(columns[x], columns[y]):
            if s != t:
                yield s * m + t if s < t else t * m + s

    def label_component(v: int) -> None:
        start = len(tarjan) - 1
        while tarjan[start] != v:
            start -= 1
        members = tarjan[start:]
        del tarjan[start:]
        for u in members:
            comp[u] = len(labels)  # no finished component has this index
        below = {comp[w] for u in members for w in successors(u)}
        below.discard(len(labels))
        parent = list(range(m))
        _unite(parent, (divmod(u, m) for u in members))
        for c in below:
            _unite(parent, enumerate(labels[c]))
        label = _flatten(parent)
        c = index.setdefault(label, len(labels))
        if c == len(labels):
            labels.append(label)
        for u in members:
            comp[u] = c

    for a in range(m):
        for root in range(a * m + a + 1, a * m + m):
            if order[root]:
                continue
            count += 1
            order[root] = low[root] = count
            tarjan.append(root)
            path = [(root, successors(root))]
            while path:
                v, edges = path[-1]
                for w in edges:
                    if not order[w]:
                        count += 1
                        order[w] = low[w] = count
                        tarjan.append(w)
                        path.append((w, successors(w)))
                        break
                    if comp[w] < 0 and order[w] < low[v]:
                        low[v] = order[w]
                else:
                    path.pop()
                    if path and low[v] < low[path[-1][0]]:
                        low[path[-1][0]] = low[v]
                    if low[v] == order[v]:
                        label_component(v)
    return [labels[comp[a * m + b]] for a in range(m) for b in range(a + 1, m)]


def enumerate_congruences(algebra: LocalAlgebra, caps: Caps = DEFAULT_CAPS) -> list[Congruence]:
    """All congruences, as the join-closure of the principal congruences.

    Every congruence is the join of the principal congruences of its
    related pairs, and the join of congruences (transitive closure of
    the union) is again a congruence, so this enumeration is complete.
    The principals come from one condensation of the pair graph
    (`_principal_congruences`), so none is a run of its own that stops
    at a known member; only subalgebra joins do that.  Joins are
    union-find over least-state label vectors, which are equal exactly
    when the partitions are.  Ordered finest to coarsest (block count
    descending, then blocks).
    """
    m = algebra.m
    require(m <= caps.congruence_cap,
            f"congruence enumeration needs m <= {caps.congruence_cap}, got {m}")
    maps = list(dict.fromkeys(t for translations in _translations(algebra)
                              for t in translations if len(set(t)) > 1))
    columns = list(zip(*maps)) or [()] * m
    found = join_closure(tuple(range(m)), _principal_congruences(columns), _join,
                         caps.lattice_cap, "congruence lattice")
    ordered = sorted(map(_partition_of_labels, found), key=lambda part: (-len(part), part))
    return [Congruence(algebra, part) for part in ordered]


def quotient(congruence: Congruence) -> LocalAlgebra:
    """Quotient of the congruence's algebra, computed on block representatives."""
    label = congruence.class_labels()
    reps = [block[0] for block in congruence.blocks]
    return LocalAlgebra(len(reps), congruence.algebra.r, tuple(
        label[out] for out in outputs_on(congruence.algebra, reps)))


def _subalgebra_closure(algebra: LocalAlgebra, seed: Iterable[int],
                        known: Container[Word] = ()) -> tuple[int, ...]:
    """Smallest carrier containing `seed` and closed under the rule.

    Returns as soon as the growing set, sorted, is a member of `known`,
    whose members must be closed: the growing set lies inside Sg(seed),
    so a closed set equal to it is Sg(seed).
    """
    members = set(seed)
    while True:
        carrier = tuple(sorted(members))
        if carrier in known:
            return carrier
        grown = members.union(outputs_on(algebra, carrier))
        if len(grown) == len(members):
            return carrier
        members = grown


def enumerate_subalgebras(algebra: LocalAlgebra, caps: Caps = DEFAULT_CAPS) -> list[Word]:
    """All nonempty carriers closed under the rule, as the join-closure
    of the one-generated Sg(s); ordered by size then lexicographically.

    Every subalgebra is the join of the Sg(s) of its states, and a join
    is the closure of the union (Burris and Sankappanavar, A Course in
    Universal Algebra, 1981, II.3).  Sg(0) stands in for the bottom,
    since the empty carrier is not reported.
    """
    m = algebra.m
    require(m <= caps.subalgebra_cap,
            f"subalgebra enumeration needs m <= {caps.subalgebra_cap}, got {m}")
    generated = [_subalgebra_closure(algebra, [s]) for s in range(m)]
    known = set(generated)  # join_closure's members, all closed

    def join(c1: Word, c2: Word) -> Word:
        joined = _subalgebra_closure(algebra, c1 + c2, known)
        known.add(joined)
        return joined

    found = join_closure(generated[0], generated[1:], join,
                         caps.lattice_cap, "subalgebra lattice")
    return sorted(found, key=lambda c: (len(c), c))


def restrict(algebra: LocalAlgebra, carrier: Sequence[int]) -> LocalAlgebra:
    """Subalgebra on `carrier`, relabeled to 0..|carrier|-1 in carrier order."""
    carrier = tuple(sorted(carrier))
    k = len(carrier)
    if len(set(carrier)) != k or first_out_of_range(carrier, algebra.m) is not None:
        raise ValueError(f"carrier {carrier} is not a set of states below {algebra.m}")
    index = [-1] * algebra.m
    for i, s in enumerate(carrier):
        index[s] = i
    outputs = outputs_on(algebra, carrier)
    table = tuple(index[out] for out in outputs)
    if -1 in table:
        v = table.index(-1)
        nb = tuple(carrier[d] for d in decode_word(v, k, algebra.arity))
        raise ValueError(f"carrier {carrier} is not closed: f{nb} = {outputs[v]}")
    return LocalAlgebra(k, algebra.r, table)


def _diagonal(algebra: LocalAlgebra) -> list[int]:
    """The diagonal map s -> f(s, ..., s), as its list of values.

    The neighborhood (s, ..., s) has index s * (1 + m + ... + m^(k-1))
    for arity k, so the diagonal is every such step-th table entry.
    """
    step = sum(algebra.m ** i for i in range(algebra.arity))
    return list(algebra.table[::step])


def idempotents(algebra: LocalAlgebra) -> list[int]:
    """States s with f(s, ..., s) = s."""
    return [s for s, image in enumerate(_diagonal(algebra)) if image == s]


def algebra_fingerprint(algebra: LocalAlgebra) -> tuple:
    """Cheap isomorphism invariant: size, radius and sorted state signatures."""
    return algebra._fingerprint


def are_isomorphic(a: LocalAlgebra, b: LocalAlgebra,
                   caps: Caps = DEFAULT_CAPS) -> Word | None:
    """Search for a state bijection phi with phi(f(x)) = g(phi(x)).

    Backtracking over images in ascending order with signature pruning
    and forced-assignment propagation; the first witness found is the
    lexicographically least one.  Returns None when no bijection exists.
    """
    if a.r != b.r or a.m != b.m:
        return None
    m = a.m
    if a.table == b.table:
        return tuple(range(m))
    require(m <= caps.iso_cap, f"isomorphism search needs m <= {caps.iso_cap}, got {m}")
    if a._fingerprint != b._fingerprint:
        return None
    sig_a, sig_b = a._signatures, b._signatures
    candidates = [[t for t in range(m) if sig_b[t] == sig_a[s]] for s in range(m)]

    def propagate(phi: list[int], used: list[bool]) -> bool:
        """Close the partial map under forced constraints; False on clash.

        Each round evaluates a on every neighborhood over the assigned
        states and b on their images: out_a must map to out_b.  The
        closure does not depend on the order in which it is derived.
        """
        changed = True
        while changed:
            changed = False
            assigned = [x for x in range(m) if phi[x] >= 0]
            for out_a, out_b in zip(outputs_on(a, assigned),
                                    outputs_on(b, [phi[x] for x in assigned])):
                img = phi[out_a]
                if img >= 0:
                    if img != out_b:
                        return False
                elif used[out_b] or sig_b[out_b] != sig_a[out_a]:
                    return False
                else:
                    phi[out_a] = out_b
                    used[out_b] = True
                    changed = True
        return True

    def search(phi: list[int], used: list[bool]) -> Word | None:
        s = next((x for x in range(m) if phi[x] < 0), None)
        if s is None:
            return tuple(phi)
        for t in candidates[s]:
            if used[t]:
                continue
            phi2 = phi[:]
            used2 = used[:]
            phi2[s] = t
            used2[t] = True
            if propagate(phi2, used2):
                result = search(phi2, used2)
                if result is not None:
                    return result
        return None

    return search([-1] * m, [False] * m)


def permutivity(algebra: LocalAlgebra) -> tuple[int | None, int | None]:
    """Outermost-essential bijectivity witnesses (left, right).

    The left witness is the least position i (as an offset in -r..r)
    such that the rule ignores every position left of i and, for each
    fixed assignment of the remaining positions, x_i -> f(...) permutes
    the states.  The right witness is symmetric.  A position that is
    outermost-essential but not bijective yields None on that side.
    """
    m, r = algebra.m, algebra.r
    translations = _translations(algebra)
    essentials = [pos for pos, maps in enumerate(translations)
                  if any(len(set(t)) > 1 for t in maps)]
    if not essentials:
        return (None, None)

    def bijective(pos: int) -> bool:
        return all(len(set(t)) == m for t in translations[pos])

    left_pos, right_pos = essentials[0], essentials[-1]
    left = left_pos - r if bijective(left_pos) else None
    right = right_pos - r if bijective(right_pos) else None
    return (left, right)


@dataclass(frozen=True)
class TranslationCheck:
    """Outcome of a commutation check between two global rules; `sample`
    is None when every word was scanned, else the number of words drawn."""

    ok: bool
    counterexample: Word | None = None
    sample: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_translation(a: LocalAlgebra, b: LocalAlgebra, state_map: dict[int, int] | Sequence[int],
                      kind: str, width: int = 7, steps: int = 1,
                      sample: int = 512, seed: int = 0) -> TranslationCheck:
    """Verify that the cellwise extension of `state_map` commutes with
    the global rules on all width-bounded windows.

    kind "embed": map iota from a-states into b-states, checked as
    iota(F(w)) = G(iota(w)) on words over a.  kind "project": map pi
    from b-states onto a-states, checked as F(pi(w)) = pi(G(w)) on
    words over b.  Windows are unravelled `steps` times so only cells
    unaffected by the boundary are compared.  All words are scanned
    when there are at most 65536, otherwise a seeded random sample
    whose size the result reports.
    """
    if a.r != b.r:
        raise ValueError("translation checks need equal radii")
    if kind not in ("embed", "project"):
        raise ValueError("kind must be 'embed' or 'project'")
    r = a.r
    if width < 2 * r * steps + 1:
        raise ValueError("window too narrow for the requested step count")
    if kind == "embed":
        source, target = a, b
    else:
        source, target = b, a
    mapping = dict(enumerate(state_map)) if not isinstance(state_map, dict) else dict(state_map)
    images = [mapping.get(s) for s in range(source.m)]
    bad = first_out_of_range(images, target.m)
    if bad is not None:
        if bad not in mapping:
            raise ValueError(f"state map is not total: missing {bad}")
        raise ValueError(f"state map image {images[bad]} out of range")
    if kind == "embed" and len(set(mapping.values())) != source.m:
        raise ValueError("embedding state maps must be injective")

    if steps < 0:
        raise ValueError("iteration count must be nonnegative")

    def commutes(word: Word) -> bool:
        image, mapped = word, [mapping[x] for x in word]
        for _ in range(steps):
            image, mapped = _unravel_pass(source, image), _unravel_pass(target, mapped)
        return [mapping[x] for x in image] == mapped

    drawn = None if source.m ** width <= 65536 else sample
    if drawn is None:
        words: Iterable[Word] = itertools.product(range(source.m), repeat=width)
    else:
        rng = random.Random(seed)
        words = (tuple(rng.randrange(source.m) for _ in range(width)) for _ in range(drawn))
    for word in words:
        if not commutes(word):
            return TranslationCheck(False, word, drawn)
    return TranslationCheck(True, None, drawn)
