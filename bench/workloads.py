"""The three benchmark workloads: their inputs, calls and correctness checks.

Each workload is a list of ``Op``s.  An op is one call into casim's
public API; its ``key`` names the call and its input exactly, so the
sha256 digest of its output can be recorded once per key (``digests.json``)
and checked for every seed.  The seed picks, for each op, one of
``VARIANTS`` pre-seeded input variants (which ECA of a symmetry class,
which relabeling of a target, which rule of a pool) for the run's first
pass; pass i takes the variant i places further on, so three consecutive
passes use every variant once and a run's figures pool over all of them
whatever the seed.  The seed and the pass index also fix the call order.
See README.md for why each input was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
from typing import Callable

# three, because a 45 s run of the slowest workload (decide) makes three
# passes, so every run uses every variant of every op
VARIANTS = 3

# closure: ECA symmetry classes of 30 and 110; with the ECA 60 and ECA 150
# affine reports they make four calls of 1.5-3 s per pass (on the
# reference machine), a fifth of the calls, so the 90th percentile falls
# in the middle of that group rather than on its edge.  The four members
# of a class (the rule, its mirror image, its complement and both) have
# isomorphic or mirrored closures, so every variant does the same lattice
# work.  The other four fifths are the sixteen characterization reports of
# the F_3 rules with a nonzero left coefficient and at least two nonzero
# coefficients (the four the paper names among them), 90-145 ms each, so
# the median falls inside a dense group of one kind of call.  The classes
# of ECA 60 and ECA 150 are left out: their affine reports build those
# inventories, and a pass must never repeat a (generator, bounds) key.
CLOSURE_CLASSES = (30, 110)
CLOSURE_BOUNDS = (2, 2, 16)
AFFINE_ECAS = (60, 150)
CHARACTERIZATION_RULES = tuple(
    (a, b, c) for a in (1, 2) for b in range(3) for c in range(3) if b or c)
CHARACTERIZATION_BOUNDS = (2, 1)

# decide: doubly bijective simulators on the exact path, non-affine ECAs
# on the bounded path
# five 27-state queries of equal cost hold the 90th percentile; one cheap
# No query, so that the cheap calls below the 20-75 ms group and the
# expensive ones above it balance and the median falls in its middle
EXACT_F3_RULES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1))
# the largest target: ECA 150's B^[5] (32 states, a 32768-entry table).
# F_3 (2,1,1)'s B^[4] (81 states) took 4-5 s to answer and as long again
# to replay, so a 45 s run made only three passes and the median call
# read up to 23% apart between runs
BIG_POWER = 5
NO_TARGETS = (90,)  # its 4th power is not simulated by ECA 150
BOUNDED_CLASSES = (30, 110, 54, 18, 41, 57)
BOUNDED_BOUNDS = (2, 2, 8)

# cli: one class of F_3 rules under scaling and reflection, so the seed
# evolution and the invariant-subspace lattices cost the same for every
# draw; any ECA costs the same to power and evolve
CLI_F3_RULES = ((2, 1, 1), (1, 2, 2), (1, 1, 2), (2, 2, 1))
CLI_ECAS = (30, 90, 110, 150)
CLI_WORDS = ("1", "00111000", "10110101", "0101")


@dataclasses.dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    encode: Callable[[object], object]


# ---------------------------------------------------------------------------
# helpers

def mirror(number: int) -> int:
    """Wolfram number of the left-right reflection of an ECA."""
    out = 0
    for v in range(8):
        x, y, z = (v >> 2) & 1, (v >> 1) & 1, v & 1
        out |= ((number >> ((z << 2) | (y << 1) | x)) & 1) << v
    return out


def complement(number: int) -> int:
    """Wolfram number of the ECA conjugated by the swap 0 <-> 1."""
    return sum((1 - ((number >> (7 - v)) & 1)) << v for v in range(8))


def eca_variant(number: int, k: int) -> int:
    """Variant k of an ECA's symmetry class (cycles if the class is smaller)."""
    members = sorted({number, mirror(number), complement(number),
                      complement(mirror(number))})
    return members[k % len(members)]


def relabel(casim, algebra, sigma):
    """The algebra with states renamed by sigma: g(sigma x) = sigma f(x)."""
    m, arity = algebra.m, algebra.arity
    weights = [[sigma[x] * m ** (arity - 1 - pos) for x in range(m)] for pos in range(arity)]
    table = algebra.table
    out = [0] * len(table)
    for idx, nb in enumerate(itertools.product(range(m), repeat=arity)):
        new = 0
        for pos, x in enumerate(nb):
            new += weights[pos][x]
        out[new] = sigma[table[idx]]
    return casim.ca_core.LocalAlgebra(m, algebra.r, tuple(out))


def random_permutation(size: int, rng: random.Random) -> list[int]:
    sigma = list(range(size))
    rng.shuffle(sigma)
    return sigma


def affine_permutation(casim, p: int, d: int, rng: random.Random) -> list[int]:
    """State bijection x -> Tx + u of F_p^d under the positional encoding."""
    FpMatrix = casim.fp_linalg.FpMatrix
    while True:
        matrix = FpMatrix(p, d, d, tuple(
            tuple(rng.randrange(p) for _ in range(d)) for _ in range(d)))
        if matrix.is_invertible():
            break
    shift = [rng.randrange(p) for _ in range(d)]
    sigma = []
    for value in range(p ** d):
        digits = [(value // p ** (d - 1 - t)) % p for t in range(d)]
        image = [(x + u) % p for x, u in zip(matrix.apply(digits), shift)]
        sigma.append(sum(x * p ** (d - 1 - t) for t, x in enumerate(image)))
    return sigma


def product_of_powers(casim, generator, powers):
    ca_core = casim.ca_core
    factors = [ca_core.iterative_power(generator, n) for n in powers]
    return ca_core.product(factors) if len(factors) > 1 else factors[0]


def plain(value):
    """JSON-ready canonical form of a result (dataclasses by field)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"@": type(value).__name__,
                **{f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}}
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return value


def digest(encoded) -> str:
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# closure

def _closure_ops(casim, choices: dict[str, int]) -> list[Op]:
    simulation, affine_ca, ca_core = casim.simulation, casim.affine_ca, casim.ca_core
    bounds = simulation.SearchBounds(*CLOSURE_BOUNDS)
    ops = []
    for cls in CLOSURE_CLASSES:
        number = eca_variant(cls, choices[f"class{cls}"])
        generator = ca_core.eca(number)

        def check(inventory, generator=generator):
            problems = []
            for member in inventory.members:
                rebuilt = simulation.replay_derivation(generator, member.derivation)
                if rebuilt != member.algebra:
                    problems.append(f"derivation {member.derivation.describe()} does not replay")
            if not inventory.complete:
                problems.append("inventory truncated by a cap")
            return problems

        ops.append(Op(f"closure_members eca{number} {CLOSURE_BOUNDS}",
                      lambda g=generator: simulation.closure_members(g, bounds),
                      check, plain))
    for number in AFFINE_ECAS:
        affine = affine_ca.fit_affine(ca_core.eca(number), 2)
        ops.append(Op(f"verify_affine_closure eca{number} {CLOSURE_BOUNDS}",
                      lambda a=affine: simulation.verify_affine_closure(a, bounds),
                      lambda report: [] if report.applicable and report.passed
                      else ["affine closure report did not pass"],
                      plain))
    char_bounds = simulation.SearchBounds(*CHARACTERIZATION_BOUNDS)
    for coefficients in CHARACTERIZATION_RULES:
        rule = affine_ca.canonical_additive(3, coefficients)
        expect_pass = affine_ca.is_doubly_bijective(rule)
        ops.append(Op(f"verify_characterization F3{coefficients} {CHARACTERIZATION_BOUNDS}",
                      lambda r=rule: simulation.verify_characterization(r, char_bounds),
                      lambda report, e=expect_pass: [] if report.passed or not e
                      else ["doubly bijective rule failed the characterization"],
                      plain))
    return ops


def closure_keys(casim, choices: dict[str, int]) -> list[tuple]:
    """(generator table, bounds) of every closure the pass builds cold."""
    ca_core, affine_ca = casim.ca_core, casim.affine_ca
    keys = [(ca_core.eca(eca_variant(cls, choices[f"class{cls}"])).table, CLOSURE_BOUNDS)
            for cls in CLOSURE_CLASSES]
    keys += [(affine_ca.to_table(affine_ca.fit_affine(ca_core.eca(n), 2)).table, CLOSURE_BOUNDS)
             for n in AFFINE_ECAS]
    keys += [(affine_ca.canonical_additive(3, c).to_table().table, CHARACTERIZATION_BOUNDS)
             for c in CHARACTERIZATION_RULES]
    return keys


# ---------------------------------------------------------------------------
# decide

def _verdict_check(casim, target, simulator, expected: str):
    allowed = ("unknown", "yes") if expected == "unknown-or-yes" else (expected,)

    def check(verdict):
        if verdict.outcome not in allowed:
            return [f"expected {expected}, got {verdict.outcome}"]
        if verdict.outcome == "yes" and not casim.simulation.replay_witness(
                target, simulator, verdict.witness):
            return ["witness does not replay"]
        return []
    return check


def _simulates_op(casim, key, target, simulator, bounds, expected) -> Op:
    """``bounds`` None means the default bounds (they do not matter on the exact path)."""
    bounds = bounds or casim.simulation.DEFAULT_BOUNDS
    return Op(key, lambda: casim.simulation.simulates(target, simulator, bounds),
              _verdict_check(casim, target, simulator, expected), plain)


def _exact_ops(casim, k_of) -> list[Op]:
    ca_core, affine_ca = casim.ca_core, casim.affine_ca
    ops = []
    b150 = ca_core.eca(150)
    for powers in ((3, 1), (1, 1, 1, 1)):
        key = f"simulates eca150 >= perm(B^{list(powers)})"
        k = k_of(key)
        base = product_of_powers(casim, b150, powers)
        target = relabel(casim, base, random_permutation(base.m, random.Random(f"{key}#{k}")))
        ops.append(_simulates_op(casim, f"{key}#{k}", target, b150, None, "yes"))
    for coefficients in EXACT_F3_RULES:
        simulator = affine_ca.canonical_additive(3, coefficients).to_table()
        key = f"simulates F3{coefficients} >= perm(B^[2,1])"
        k = k_of(key)
        base = product_of_powers(casim, simulator, (2, 1))
        target = relabel(casim, base, random_permutation(base.m, random.Random(f"{key}#{k}")))
        ops.append(_simulates_op(casim, f"{key}#{k}", target, simulator, None, "yes"))
    key = f"simulates eca150 >= affine(B^[{BIG_POWER}])"
    k = k_of(key)
    base = product_of_powers(casim, b150, (BIG_POWER,))
    sigma = affine_permutation(casim, 2, BIG_POWER, random.Random(f"{key}#{k}"))
    ops.append(_simulates_op(casim, f"{key}#{k}", relabel(casim, base, sigma),
                             b150, None, "yes"))
    for number in NO_TARGETS:
        key = f"simulates eca150 >= perm(eca{number}^[4])"
        k = k_of(key)
        base = ca_core.iterative_power(ca_core.eca(number), 4)
        target = relabel(casim, base, random_permutation(base.m, random.Random(f"{key}#{k}")))
        ops.append(_simulates_op(casim, f"{key}#{k}", target, b150, None, "no"))
    return ops


def _bounded_ops(casim, number: int, k_of) -> list[Op]:
    """Two queries against one non-affine simulator: a relabeled
    B x B^[2] (Yes by construction, built cold), then either a relabeled
    B^[2] (Yes) or a random 4-state table (Unknown, or a Yes that must
    replay), answered from the warm inventory."""
    ca_core = casim.ca_core
    bounds = casim.simulation.SearchBounds(*BOUNDED_BOUNDS)
    simulator = ca_core.eca(number)
    ops = []
    key = f"bounded eca{number} >= perm(B^[1,2])"
    k = k_of(key)
    base = product_of_powers(casim, simulator, (1, 2))
    target = relabel(casim, base, random_permutation(base.m, random.Random(f"{key}#{k}")))
    ops.append(_simulates_op(casim, f"{key}#{k}", target, simulator, bounds, "yes"))
    key = f"bounded eca{number} >= warm"
    k = k_of(key)
    rng = random.Random(f"{key}#{k}")
    if k % 2 == 0:
        base = ca_core.iterative_power(simulator, 2)
        target, expected = relabel(casim, base, random_permutation(base.m, rng)), "yes"
    else:
        target = ca_core.LocalAlgebra(4, 1, tuple(rng.randrange(4) for _ in range(64)))
        expected = "unknown-or-yes"
    ops.append(_simulates_op(casim, f"{key}#{k}", target, simulator, bounds, expected))
    return ops


# ---------------------------------------------------------------------------
# cli

def _cli_stages(rule, number: int, word: str) -> list[list[list[str]]]:
    """Pipelines as lists of argv stages; each stage reads the previous
    stage's output.  The two constructor stages come first and feed
    every pipeline that starts with the same constructor."""
    canonical = ["canonical", "-p", "3", "-a"] + [str(a) for a in rule]
    eca = ["eca", str(number)]
    return [
        [eca, ["power", "-n", "5"], ["show"]],
        [eca, ["evolve", "--init", word, "--steps", "300", "--render", "pgm"]],
        [canonical, ["power", "-n", "3"], ["fit-affine", "-p", "3"], ["matrices"]],
        [canonical, ["evolve", "--init", word, "--steps", "300", "--render", "pgm"]],
        [canonical, ["e0", "-n", "5000"]],
        [canonical, ["structure", "-n", "200"]],
        [canonical, ["matrices", "-n", "200"]],
        [canonical, ["simple", "-n", "7"]],
        [canonical, ["invariant-subspaces", "-n", "7"]],
        [canonical, ["verify", "characterization", "--n-max", "2", "--k-max", "1"]],
        [canonical, ["classify"]],
    ]


# every stage exits 0 on these inputs: the rules are doubly bijective,
# so the characterization report passes
EXPECTED_EXIT = 0


def _cli_ops(casim, pipelines, workdir: str, tracer_ref) -> list[Op]:
    """One op per distinct stage chain, constructors first."""
    ops: dict[str, Op] = {}
    outputs: dict[str, str] = {}
    for stages in pipelines:
        chain = []
        for stage in stages:
            previous = outputs.get(" | ".join(chain)) if chain else None
            chain.append(" ".join(stage))
            key = " | ".join(chain)
            if key in ops:
                continue
            out = os.path.join(workdir, hashlib.sha256(key.encode()).hexdigest()[:16] + ".out")
            outputs[key] = out
            argv = (["--in", previous] if previous else []) + ["--out", out] + stage

            def call(argv=argv, out=out):
                code = casim.cli.main(argv)
                if tracer_ref[0] is not None and os.path.exists(out):
                    tracer_ref[0].add("cli.bytes_out", os.path.getsize(out))
                return code

            def encode(code, out=out):
                with open(out, "rb") as handle:
                    return plain({"exit": code, "stdout": handle.read()})

            ops[key] = Op("cli " + key, call,
                          lambda code: [] if code == EXPECTED_EXIT
                          else [f"exit code {code}, expected {EXPECTED_EXIT}"],
                          encode)
    return list(ops.values())


# ---------------------------------------------------------------------------
# building a pass

WORKLOADS = ("closure", "decide", "cli")


class Chooser:
    """Each op's variant: drawn from the seed and the op's key, then
    rotated by the pass index; or fixed (for recording)."""

    def __init__(self, tag: str | None, shift: int = 0, fixed: int | None = None) -> None:
        self.tag, self.shift, self.fixed = tag, shift, fixed

    def __call__(self, key: str) -> int:
        if self.fixed is not None:
            return self.fixed
        return (random.Random(f"{self.tag}:{key}").randrange(VARIANTS) + self.shift) % VARIANTS


def build(casim, workload: str, seed: int, workdir: str, tracer_ref,
          smoke: bool = False, pass_index: int = 0) -> list[Op]:
    """The ops of pass ``pass_index`` of a run, in call order; ``smoke``
    keeps a minimal subset of the same ops."""
    choose = Chooser(f"{workload}:{seed}", shift=pass_index)
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "closure":
        choices = {f"class{cls}": choose(f"class{cls}") for cls in CLOSURE_CLASSES}
        keys = closure_keys(casim, choices)
        if len(set(keys)) != len(keys):
            raise RuntimeError("closure pass repeats a (generator, bounds) key")
        ops = _closure_ops(casim, choices)
        if smoke:
            ops = [op for op in ops if op.key.startswith("verify_characterization")][:2]
        rng.shuffle(ops)
        return ops
    if workload == "decide":
        exact = _exact_ops(casim, choose)
        simulators = [eca_variant(cls, choose(f"sim{cls}")) for cls in BOUNDED_CLASSES]
        rng.shuffle(simulators)
        per_sim = [_bounded_ops(casim, number, choose) for number in simulators]
        if smoke:
            exact, per_sim = exact[:1], per_sim[:1]
        rng.shuffle(exact)
        # round-robin over the simulators: each one's first query builds
        # its inventory cold, the later ones find it in the cache after
        # every other simulator has been queried in between
        bounded = [op for round_ops in zip(*per_sim) for op in round_ops]
        return exact + bounded
    if workload == "cli":
        pipelines = _cli_stages(CLI_F3_RULES[choose("rule")], CLI_ECAS[choose("eca")],
                                CLI_WORDS[choose("word")])
        constructors = sorted({tuple(p[0]) for p in pipelines})
        rng.shuffle(pipelines)
        if smoke:
            pipelines = [p for p in pipelines if p[-1][0] in ("show", "classify")]
        return _cli_ops(casim, [[list(c)] for c in constructors] + pipelines, workdir,
                        tracer_ref)
    raise ValueError(f"unknown workload {workload!r}")


def all_variants(casim, workload: str, workdir: str) -> list[Op]:
    """Every op any seed can draw, each variant once (for recording digests)."""
    seen: dict[str, Op] = {}
    for k in range(VARIANTS):
        if workload == "decide":
            ops = _exact_ops(casim, Chooser(None, fixed=k))
            for cls in BOUNDED_CLASSES:
                for j in range(VARIANTS):
                    ops += _bounded_ops(casim, eca_variant(cls, j), Chooser(None, fixed=k))
        elif workload == "closure":
            ops = _closure_ops(casim, {f"class{cls}": k for cls in CLOSURE_CLASSES})
        else:
            ops = []
            for number in CLI_ECAS:
                for word in CLI_WORDS:
                    ops += _cli_ops(casim, _cli_stages(CLI_F3_RULES[k], number, word),
                                    workdir, [None])
        for op in ops:
            seen.setdefault(op.key, op)
    return list(seen.values())
