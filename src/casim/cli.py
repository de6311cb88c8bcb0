"""Command-line front end: file formats, rule construction, rendering
and report emission for the library operations.

Two text formats are spoken.  "CA v1" carries a truth table; "AFFINE
v1" carries component matrices and a constant.  Both round-trip through
parse and print.  Commands read the primary algebra from stdin (or
--in) and write to stdout (or --out), so they compose in pipelines:

    casim eca 150 | casim power -n 3 | casim matrices

Exit codes: 0 success or a passing check, 1 a mathematical No or FAIL,
2 usage, parse, cap or I/O errors, 3 an Unknown verdict.  Output is
deterministic; checks end with a single RESULT line.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from dataclasses import asdict, replace
from typing import Callable, Sequence

from . import affine_ca, ca_core, simulation
from .affine_ca import AffineAlgebra, CanonicalAdditive
from .ca_core import LocalAlgebra, SpaceTimeDiagram
from .caps import DEFAULT_CAPS, CapExceeded, Caps
from .fp_linalg import (FpMatrix, common_invariant_subspaces, is_prime, is_simple,
                        smallest_prime_factor)


class FormatError(Exception):
    """Malformed input file; carries the offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# file formats

# One digit codec, for output only (input is read with int()): state x
# is the x-th base-36 digit.  Tables, matrices and diagrams are written
# through bytes, so a whole row is translated at C speed; every value is
# already checked to be in range, and below 36, before it gets here.
_GLYPHS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_TO_DIGITS = bytes.maketrans(bytes(range(len(_GLYPHS))), _GLYPHS)
_TO_DOTS = bytes.maketrans(bytes(range(len(_GLYPHS))), b"." + _GLYPHS[1:])


def _digits(values: Sequence[int], table: bytes = _TO_DIGITS) -> str:
    return bytes(values).translate(table).decode("ascii")


def print_ca(algebra: LocalAlgebra) -> str:
    lines = ["CA v1", f"states {algebra.m}", f"radius {algebra.r}"]
    if algebra.m <= 10:
        lines.append("table " + _digits(algebra.table))
    else:
        labels = [str(x) for x in range(algebra.m)]
        lines.append("table-list " + " ".join(map(labels.__getitem__, algebra.table)))
    return "\n".join(lines) + "\n"


def print_affine(algebra: AffineAlgebra) -> str:
    if algebra.d == 0:
        raise ValueError("zero-dimensional rules are written as CA files")
    lines = ["AFFINE v1", f"p {algebra.p}", f"dim {algebra.d}", f"radius {algebra.r}"]
    for i in range(-algebra.r, algebra.r + 1):
        lines.append(f"component {i}")
        for row in algebra.component(i).entries:
            lines.append(" ".join(map(str, row)))
    lines.append("constant")
    lines.append(" ".join(map(str, algebra.constant)))
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0

    def next_content(self) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            stripped = self.lines[self.pos - 1].strip()
            if stripped and not stripped.startswith("#"):
                return self.pos, stripped
        raise FormatError(len(self.lines) + 1, "unexpected end of file")

    def expect_int_field(self, name: str) -> int:
        number, line = self.next_content()
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise FormatError(number, f"expected '{name} <value>', got {line!r}")
        try:
            return int(parts[1])
        except ValueError:
            raise FormatError(number, f"{name} value {parts[1]!r} is not an integer")


def parse_ca(text: str) -> LocalAlgebra:
    reader = _LineReader(text)
    number, header = reader.next_content()
    if header != "CA v1":
        raise FormatError(number, f"expected header 'CA v1', got {header!r}")
    m = reader.expect_int_field("states")
    if m < 1:
        raise FormatError(reader.pos, "state count must be at least 1")
    r = reader.expect_int_field("radius")
    if r < 0:
        raise FormatError(reader.pos, "radius must be nonnegative")
    number, line = reader.next_content()
    parts = line.split()
    if parts[0] == "table" and len(parts) == 2 and m <= 10:
        try:  # a non-ASCII digit int() reads still parses; anything else is refused
            table = tuple(map(int, parts[1]))
        except ValueError:
            raise FormatError(number, "table digits must be 0-9")
    elif parts[0] == "table-list":
        try:
            table = tuple(map(int, parts[1:]))
        except ValueError:
            raise FormatError(number, "table-list entries must be integers")
    else:
        raise FormatError(number, f"expected 'table <digits>' or 'table-list ...', got {line!r}")
    try:
        return LocalAlgebra(m, r, table)
    except ValueError as exc:
        raise FormatError(number, str(exc))


def parse_affine(text: str) -> AffineAlgebra:
    reader = _LineReader(text)
    number, header = reader.next_content()
    if header != "AFFINE v1":
        raise FormatError(number, f"expected header 'AFFINE v1', got {header!r}")
    p = reader.expect_int_field("p")
    if not is_prime(p):
        raise FormatError(reader.pos, f"modulus {p} is not prime")
    d = reader.expect_int_field("dim")
    if d < 1:
        raise FormatError(reader.pos, "dim must be at least 1")
    r = reader.expect_int_field("radius")
    if r < 0:
        raise FormatError(reader.pos, "radius must be nonnegative")
    components = []
    for i in range(-r, r + 1):
        number, line = reader.next_content()
        if line != f"component {i}":
            raise FormatError(number, f"expected 'component {i}', got {line!r}")
        rows = []
        for _ in range(d):
            number, line = reader.next_content()
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise FormatError(number, "matrix rows must be integers")
            if len(row) != d:
                raise FormatError(number, f"expected {d} entries per row")
            rows.append(row)
        try:
            components.append(FpMatrix.from_rows(p, rows))
        except ValueError as exc:
            raise FormatError(number, str(exc))
    number, line = reader.next_content()
    if line != "constant":
        raise FormatError(number, f"expected 'constant', got {line!r}")
    number, line = reader.next_content()
    try:
        constant = tuple(int(x) % p for x in line.split())
    except ValueError:
        raise FormatError(number, "constant entries must be integers")
    if len(constant) != d:
        raise FormatError(number, f"expected {d} constant entries")
    try:
        return AffineAlgebra(p, d, r, tuple(components), constant)
    except ValueError as exc:
        raise FormatError(number, str(exc))


def parse_algebra(text: str) -> LocalAlgebra | AffineAlgebra:
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "CA v1":
            return parse_ca(text)
        if stripped == "AFFINE v1":
            return parse_affine(text)
        raise FormatError(1, f"unknown header {stripped!r}; expected 'CA v1' or 'AFFINE v1'")
    raise FormatError(1, "empty input")


def as_table(algebra: LocalAlgebra | AffineAlgebra, caps: Caps = DEFAULT_CAPS) -> LocalAlgebra:
    if isinstance(algebra, AffineAlgebra):
        return affine_ca.to_table(algebra, caps)
    return algebra


def as_affine(algebra: LocalAlgebra | AffineAlgebra) -> AffineAlgebra:
    """The affine form, fitted over the least prime dividing a table's
    state count, or a ValueError."""
    if isinstance(algebra, AffineAlgebra):
        return algebra
    affine = affine_ca.fit_affine(algebra, smallest_prime_factor(algebra.m))
    if affine is None:
        raise ValueError("input is not affine under the positional encoding")
    return affine


def as_canonical(algebra: LocalAlgebra | AffineAlgebra) -> CanonicalAdditive:
    """The canonical additive form, or a ValueError naming the obstacle."""
    if isinstance(algebra, AffineAlgebra):
        if algebra.d != 1 or not algebra.is_additive():
            raise ValueError("a canonical additive rule (dim 1, zero constant) is required")
        return affine_ca.canonical_additive(
            algebra.p, [mat.entries[0][0] for mat in algebra.components])
    canonical = affine_ca.fit_canonical_additive(algebra)
    if canonical is None:
        raise ValueError("the input table is not canonical additive")
    return canonical


# ---------------------------------------------------------------------------
# rendering

def render_text(diagram: SpaceTimeDiagram, dots: bool = False) -> str:
    """One line per step: a base-36 digit per cell up to 36 states (state
    0 as '.' with ``dots``), space-separated decimals above that."""
    if diagram.m <= len(_GLYPHS):
        table = _TO_DOTS if dots else _TO_DIGITS
        lines = [_digits(row, table) for row in diagram.rows]
    else:
        lines = [" ".join(map(str, row)) for row in diagram.rows]
    return "\n".join(lines) + "\n"


def render_pgm(diagram: SpaceTimeDiagram) -> str:
    width = diagram.width
    height = len(diagram.rows)
    scale = diagram.m - 1
    grays = [str((255 * x) // scale if scale else 0) for x in range(diagram.m)]
    lines = ["P2", f"{width} {height}", "255"]
    if width < 2:  # itemgetter needs an index, and returns one bare value for one
        lines.extend(" ".join(map(grays.__getitem__, row)) for row in diagram.rows)
    else:
        lines.extend(" ".join(operator.itemgetter(*row)(grays)) for row in diagram.rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations

class _Io:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self._out_parts: list[str] = []

    def algebra(self, path: str | None = None) -> LocalAlgebra | AffineAlgebra:
        """The algebra in the file at ``path``, by default the primary one
        (--in, else stdin); "-" names stdin."""
        if path is None:
            path = self.args.infile or "-"
        if path == "-":
            return parse_algebra(sys.stdin.read())
        with open(path, "r", encoding="ascii") as handle:
            return parse_algebra(handle.read())

    def emit(self, text: str) -> None:
        self._out_parts.append(text)

    def finish(self) -> None:
        text = "".join(self._out_parts)
        if self.args.out:
            with open(self.args.out, "w", encoding="ascii") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()


def _verdict(io: _Io, ok: bool) -> int:
    """End a check: the RESULT line, then its exit code."""
    io.emit(f"RESULT: {'PASS' if ok else 'FAIL'}\n")
    return 0 if ok else 1


def _json_report(io: _Io, command: str, inputs: dict, bounds: simulation.SearchBounds,
                 result: str, **rest) -> None:
    """One JSON line: {command, inputs, bounds, result} and any further
    keys, sorted."""
    payload = {"command": command, "inputs": inputs, "bounds": asdict(bounds),
               "result": result, **rest}
    io.emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_show(io: _Io, caps: Caps) -> int:
    algebra = io.algebra()
    if isinstance(algebra, AffineAlgebra):
        io.emit(print_affine(algebra))
    else:
        io.emit(print_ca(algebra))
    return 0


def _cmd_eca(io: _Io, caps: Caps) -> int:
    io.emit(print_ca(ca_core.eca(io.args.number)))
    return 0


def _cmd_canonical(io: _Io, caps: Caps) -> int:
    rule = affine_ca.canonical_additive(io.args.p, io.args.coefficients)
    io.emit(print_affine(rule.as_affine()))
    return 0


def _cmd_power(io: _Io, caps: Caps) -> int:
    algebra = as_table(io.algebra(), caps)
    io.emit(print_ca(ca_core.iterative_power(algebra, io.args.n, caps)))
    return 0


def _cmd_product(io: _Io, caps: Caps) -> int:
    factors = [as_table(io.algebra(), caps)]
    for path in io.args.factors:
        factors.append(as_table(io.algebra(path), caps))
    io.emit(print_ca(ca_core.product(factors, caps)))
    return 0


def _parse_init(spec: str, m: int) -> tuple[int, ...]:
    if spec.startswith("single:"):
        return (int(spec.split(":", 1)[1]),)
    if "," in spec:
        return tuple(int(x) for x in spec.split(","))
    if not spec.isdigit() and m > 10:
        raise ValueError("initial words for m > 10 must be comma separated")
    return tuple(int(ch) for ch in spec)


def _cmd_evolve(io: _Io, caps: Caps) -> int:
    algebra = as_table(io.algebra(), caps)
    word = _parse_init(io.args.init, algebra.m)
    boundary = io.args.boundary
    if boundary.startswith("background:"):
        background = int(boundary.split(":", 1)[1])
        diagram = ca_core.evolve(algebra, word, background, io.args.steps, "background", caps)
    elif boundary.startswith("cyclic:"):
        length = int(boundary.split(":", 1)[1])
        if length < len(word):
            raise ValueError("cyclic length is shorter than the initial word")
        ca_core._require_diagram(io.args.steps, length, caps)  # before the ring is built
        pad = length - len(word)
        ring = (0,) * (pad // 2) + word + (0,) * (pad - pad // 2)
        diagram = ca_core.evolve(algebra, ring, 0, io.args.steps, "cyclic", caps)
    else:
        raise ValueError("boundary must be background:<state> or cyclic:<length>")
    if io.args.render == "pgm":
        io.emit(render_pgm(diagram))
    else:
        io.emit(render_text(diagram, io.args.dots))
    return 0


def _cmd_subalgebras(io: _Io, caps: Caps) -> int:
    algebra = as_table(io.algebra(), caps)
    for carrier in ca_core.enumerate_subalgebras(algebra, caps):
        io.emit(",".join(str(s) for s in carrier) + "\n")
    return 0


def _cmd_congruences(io: _Io, caps: Caps) -> int:
    algebra = as_table(io.algebra(), caps)
    for congruence in ca_core.enumerate_congruences(algebra, caps):
        io.emit(str(congruence) + "\n")
    return 0


def _parse_partition(spec: str) -> list[list[int]]:
    return [[int(x) for x in block.split(",")] for block in spec.split("|")]


def _cmd_quotient(io: _Io, caps: Caps) -> int:
    if io.args.check and io.args.of is None:
        raise ValueError("quotient --check needs --of: it compares the stdin algebra "
                         "with a quotient of the --of algebra")
    if io.args.of is None:
        if io.args.classes is None:
            raise ValueError("quotient needs --classes or --of")
        primary = as_table(io.algebra(), caps)
        congruence = ca_core.Congruence.from_blocks(primary, _parse_partition(io.args.classes))
        io.emit(print_ca(ca_core.quotient(congruence)))
        return 0
    big = as_table(io.algebra(io.args.of), caps)
    if io.args.classes is not None:
        congruence = ca_core.Congruence.from_blocks(big, _parse_partition(io.args.classes))
        result = ca_core.quotient(congruence)
        if not io.args.check:
            io.emit(print_ca(result))
            return 0
        witness = ca_core.are_isomorphic(result, as_table(io.algebra(), caps),
                                         caps.scaled_to(result.m))
        if witness is not None:
            io.emit(f"quotient by {congruence} is isomorphic via "
                    + ",".join(str(x) for x in witness) + "\n")
        return _verdict(io, witness is not None)
    # search all congruences of --of for one whose quotient matches stdin
    primary = as_table(io.algebra(), caps)
    for congruence in ca_core.enumerate_congruences(big, caps):
        if len(congruence.blocks) != primary.m:
            continue
        result = ca_core.quotient(congruence)
        witness = ca_core.are_isomorphic(result, primary, caps.scaled_to(result.m))
        if witness is not None:
            io.emit(f"classes {congruence}\n")
            io.emit("iso " + ",".join(str(x) for x in witness) + "\n")
            return _verdict(io, True)
    return _verdict(io, False)


def _cmd_iso(io: _Io, caps: Caps) -> int:
    left = as_table(io.algebra(), caps)
    right = as_table(io.algebra(io.args.other), caps)
    witness = simulation._isomorphism(left, right, caps)
    if witness is not None:
        io.emit("iso " + ",".join(str(x) for x in witness) + "\n")
    return _verdict(io, witness is not None)


def _cmd_fit_affine(io: _Io, caps: Caps) -> int:
    algebra = as_table(io.algebra(), caps)
    affine = affine_ca.fit_affine(algebra, io.args.p)
    if affine is None:
        io.emit("not affine under the positional encoding\n")
        return _verdict(io, False)
    io.emit(print_affine(affine))
    return 0


def _cmd_e0(io: _Io, caps: Caps) -> int:
    rule = as_canonical(io.algebra())
    profile = affine_ca.e0_evolution(rule, io.args.n, caps)
    io.emit(f"positions {-profile.reach}..{profile.reach}\n")
    io.emit(" ".join(map(str, profile.values)) + "\n")
    return 0


def _matrix_lines(mat: FpMatrix) -> list[str]:
    if mat.p <= 10:
        return [_digits(row) for row in mat.entries]
    return [" ".join(map(str, row)) for row in mat.entries]


def _cmd_matrices(io: _Io, caps: Caps) -> int:
    algebra = io.algebra()
    if io.args.n is not None:
        matrices = affine_ca.component_matrices(as_canonical(algebra), io.args.n, caps)
    else:
        matrices = as_affine(algebra).components
    r = len(matrices) // 2  # one matrix per position -r..r
    for i, mat in zip(range(-r, r + 1), matrices):
        io.emit(f"component {i}\n")
        for line in _matrix_lines(mat):
            io.emit(line + "\n")
    return 0


def _cmd_structure(io: _Io, caps: Caps) -> int:
    rule = as_canonical(io.algebra())
    report = affine_ca.check_structure(rule, io.args.n, caps)
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        io.emit(f"{status} {check.name}\n")
        if not check.passed:
            io.emit(f"  expected {check.expected}\n  actual   {check.actual}\n")
    return _verdict(io, report.passed)


def _cmd_invariant_subspaces(io: _Io, caps: Caps) -> int:
    rule = as_canonical(io.algebra())
    matrices = affine_ca.component_matrices(rule, io.args.n, caps)
    for space in common_invariant_subspaces(matrices, caps=caps):
        io.emit(f"dim {space.dim}: {space}\n")
    return 0


def _cmd_simple(io: _Io, caps: Caps) -> int:
    rule = as_canonical(io.algebra())
    matrices = affine_ca.component_matrices(rule, io.args.n, caps)
    return _verdict(io, is_simple(matrices, caps=caps))


def _cmd_split(io: _Io, caps: Caps) -> int:
    rule = as_canonical(io.algebra())
    result = affine_ca.verify_splitting(rule, io.args.k, io.args.l, caps)
    io.emit(f"power B^[{rule.p ** io.args.k * io.args.l}] vs {rule.p ** io.args.k} copies "
            f"of B^[{io.args.l}]: {result.detail}\n")
    return _verdict(io, result.ok)


def _cmd_classify(io: _Io, caps: Caps) -> int:
    affine = as_affine(io.algebra())
    record = affine_ca.classify_affine(affine)
    io.emit(f"p {record.p}\ndim {record.d}\nradius {record.r}\n")
    io.emit("component-bijective " + " ".join(
        "yes" if b else "no" for b in record.component_bijective) + "\n")
    io.emit(f"bijective-condition {'yes' if record.bijective_condition else 'no'}\n")
    io.emit(f"left-witness {record.left_witness}\n")
    io.emit(f"right-witness {record.right_witness}\n")
    io.emit(f"additive {'yes' if record.additive else 'no'}\n")
    io.emit(f"canonical-additive {'yes' if record.canonical_additive else 'no'}\n")
    if record.canonical_additive and record.r == 1:
        capacity = simulation.classify_canonical(as_canonical(affine))
        io.emit(f"capacity-class {capacity.describe()}\n")
        if capacity.caveat:
            io.emit(f"caveat {capacity.caveat}\n")
    return 0


def _bounds_from_args(args: argparse.Namespace) -> simulation.SearchBounds:
    return simulation.SearchBounds(args.n_max, args.k_max, args.size_cap)


def _cmd_simulates(io: _Io, caps: Caps) -> int:
    simulator = as_table(io.algebra(), caps)
    target = as_table(io.algebra(io.args.target), caps)
    bounds = _bounds_from_args(io.args)
    verdict = simulation.simulates(target, simulator, bounds, caps)
    if io.args.json:
        rest = {}
        if verdict.witness is not None:
            rest["witness"] = {
                "powers": list(verdict.witness.derivation.powers),
                "carrier": list(verdict.witness.derivation.carrier),
                "classes": [list(b) for b in verdict.witness.derivation.partition],
                "iso": list(verdict.witness.isomorphism),
            }
        if verdict.reason is not None:
            rest["reason"] = verdict.reason
        _json_report(io, "simulates",
                     {"target_states": target.m, "simulator_states": simulator.m},
                     bounds, verdict.outcome, **rest)
    else:
        if verdict.witness is not None:
            io.emit("witness " + verdict.witness.describe() + "\n")
        if verdict.reason is not None:
            io.emit("reason " + verdict.reason + "\n")
    if verdict.outcome == "unknown":
        io.emit("RESULT: UNKNOWN\n")
        return 3
    return _verdict(io, verdict.outcome == "yes")


def _cmd_verify(io: _Io, caps: Caps) -> int:
    bounds = _bounds_from_args(io.args)
    algebra = io.algebra()
    affine_closure = io.args.what == "affine-closure"
    if affine_closure:
        affine = as_affine(algebra)
        report = simulation.verify_affine_closure(affine, bounds, caps)
        if not report.applicable:
            io.emit("NOT APPLICABLE: the rule lacks bijective outermost components "
                    "(left witness strictly left of right witness)\n")
        inputs = {"p": affine.p, "dim": affine.d, "radius": affine.r}
    else:
        rule = as_canonical(algebra)
        report = simulation.verify_characterization(rule, bounds, caps)
        inputs = {"p": rule.p, "coefficients": list(rule.coefficients)}
    if io.args.json:
        _json_report(io, f"verify {io.args.what}", inputs, bounds,
                     "pass" if report.passed else "fail",
                     items=[{"derivation": item.derivation.describe(), "size": item.size,
                             "ok": item.ok, "note": item.note,
                             **({"affine": item.affine, "witnesses": list(item.witnesses)}
                                if affine_closure else {})}
                            for item in report.items])
    else:
        for item in report.items:
            status = "ok" if item.ok else "FAIL"
            witnesses = f", witnesses {item.witnesses}" if affine_closure else ""
            io.emit(f"{status} size {item.size}: {item.note}{witnesses} "
                    f"[{item.derivation.describe()}]\n")
    return _verdict(io, report.passed)


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every call, built on the first: a parse leaves no
    state behind in it.  Each subcommand is declared with its handler,
    which ``main`` finds as ``args.run``."""
    parser = argparse.ArgumentParser(
        prog="casim",
        description="cellular automaton local algebras over prime fields: "
                    "powers, products, subalgebras, quotients and the simulation preorder")
    parser.add_argument("--in", dest="infile", default=None,
                        help="read the primary algebra from a file")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--cap", type=int, default=None,
                        help="override the truth-table entry cap")
    # the same options are accepted after the subcommand; SUPPRESS keeps a
    # subcommand without them from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS)
    nth_power = argparse.ArgumentParser(add_help=False)
    nth_power.add_argument("-n", type=int, required=True)
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--n-max", type=int, default=2)
    bounds.add_argument("--k-max", type=int, default=2)
    bounds.add_argument("--size-cap", type=int, default=None)
    bounds.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[_Io, Caps], int], help: str,
                parents: Sequence[argparse.ArgumentParser] = ()) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help, parents=[common, *parents])
        cmd.set_defaults(run=handler)
        return cmd

    command("show", _cmd_show, "parse and reprint in canonical form")
    cmd = command("eca", _cmd_eca, "construct an elementary CA by Wolfram number")
    cmd.add_argument("number", type=int)
    cmd = command("canonical", _cmd_canonical, "construct a canonical additive rule")
    cmd.add_argument("-p", type=int, required=True)
    cmd.add_argument("-a", dest="coefficients", type=int, nargs="+", required=True,
                     help="coefficients a_-r .. a_r")
    command("power", _cmd_power, "iterative power (grouping)", [nth_power])
    cmd = command("product", _cmd_product, "componentwise product with further factors")
    cmd.add_argument("factors", nargs="+", help="files with further factors")
    cmd = command("evolve", _cmd_evolve, "run the global rule and render the diagram")
    cmd.add_argument("--init", required=True, help="'single:<s>', a digit word, or comma list")
    cmd.add_argument("--steps", type=int, required=True)
    cmd.add_argument("--boundary", default="background:0",
                     help="background:<state> or cyclic:<length>")
    cmd.add_argument("--render", choices=["text", "pgm"], default="text")
    cmd.add_argument("--dots", action="store_true", help="render state 0 as '.'")
    command("subalgebras", _cmd_subalgebras, "list all closed carriers")
    command("congruences", _cmd_congruences, "list all rule-compatible partitions")
    cmd = command("quotient", _cmd_quotient, "quotient by a partition, or search for one")
    cmd.add_argument("--classes", help="partition, e.g. '0,2|1,3'")
    cmd.add_argument("--of", help="file with the algebra to quotient (stdin is the target)")
    cmd.add_argument("--check", action="store_true",
                     help="with --classes, compare that quotient of --of with the "
                          "stdin algebra; without --classes, --of always searches")
    cmd = command("iso", _cmd_iso, "isomorphism between stdin and a file")
    cmd.add_argument("other")
    cmd = command("fit-affine", _cmd_fit_affine, "recover an affine form")
    cmd.add_argument("-p", type=int, required=True)
    command("e0", _cmd_e0, "one-cell seed evolution of a canonical additive rule", [nth_power])
    cmd = command("matrices", _cmd_matrices, "component matrices (of the n-th power)")
    cmd.add_argument("-n", type=int, default=None)
    command("structure", _cmd_structure, "banded-triangular structure checks", [nth_power])
    command("invariant-subspaces", _cmd_invariant_subspaces,
            "lattice of common invariant subspaces of the n-th power", [nth_power])
    command("simple", _cmd_simple, "is the n-th power simple?", [nth_power])
    cmd = command("split", _cmd_split, "check the power-splitting isomorphism")
    cmd.add_argument("-k", type=int, required=True)
    cmd.add_argument("-l", type=int, required=True)
    command("classify", _cmd_classify, "affine classification record")
    cmd = command("simulates", _cmd_simulates, "does the stdin algebra simulate the target?",
                  [bounds])
    cmd.add_argument("target", help="file with the algebra to be simulated")
    cmd = command("verify", _cmd_verify, "theorem verification reports", [bounds])
    cmd.add_argument("what", choices=["characterization", "affine-closure"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    caps = DEFAULT_CAPS
    if args.cap is not None:
        caps = replace(caps, table_cap=args.cap)
    io = _Io(args)
    try:
        code = args.run(io, caps)
        io.finish()
    except CapExceeded as exc:
        print(f"casim: {exc} (--cap raises only the table cap)", file=sys.stderr)
        return 2
    except (FormatError, ValueError, OSError) as exc:
        print(f"casim: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
