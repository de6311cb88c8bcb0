import hashlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from casim import ca_core, cli
from casim.affine_ca import (_relabeled_table, canonical_additive, component_matrices,
                             fit_affine, to_table)
from casim.ca_core import (LocalAlgebra, are_isomorphic, eca, evolve, iterative_power,
                           product)
from casim.caps import Caps
from casim.fp_linalg import FpMatrix
from conftest import (matrix_lines_oracle, parse_table_oracle, print_ca_oracle,
                      random_local_algebra, render_pgm_oracle, render_text_oracle)


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ca_roundtrip():
    rule = eca(150)
    text = cli.print_ca(rule)
    assert cli.parse_ca(text) == rule
    assert cli.print_ca(cli.parse_ca(text)) == text


def test_ca_roundtrip_table_list():
    big = LocalAlgebra(12, 0, tuple((x + 5) % 12 for x in range(12)))
    text = cli.print_ca(big)
    assert "table-list" in text
    assert cli.parse_ca(text) == big


def test_affine_roundtrip():
    affine = canonical_additive(3, [2, 1, 1]).as_affine()
    text = cli.print_affine(affine)
    assert cli.parse_affine(text) == affine
    assert cli.print_affine(cli.parse_affine(text)) == text


def test_huge_radius_refused_before_its_table_count():
    # m^(2r+1) has 54 million digits here: the file is refused at once
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for states, radius in ((1000000000, 3000000), (1000, 2000)):
        text = f"CA v1\nstates {states}\nradius {radius}\ntable-list 0\n"
        result = subprocess.run([sys.executable, "-m", "casim", "show"], input=text,
                                capture_output=True, text=True, env=env, timeout=10)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == (f"casim: line 4: table length 1 != m^(2r+1) = "
                                 f"{states}^{2 * radius + 1}\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(cli.FormatError) as err:
        cli.parse_ca("CA v1\nstates 2\nbogus 1\n")
    assert "line 3" in str(err.value)
    with pytest.raises(cli.FormatError) as err:
        cli.parse_affine("AFFINE v1\np 3\ndim 0\nradius 1\n")
    assert str(err.value).startswith("line 3:") and "dim must be at least 1" in str(err.value)
    # each header field is checked on its own line, not where it is first used
    for parse, text, line, message in (
            (cli.parse_affine, "AFFINE v1\np 4\ndim 1\nradius 0\ncomponent 0\n1\n",
             2, "modulus 4 is not prime"),
            (cli.parse_affine, "AFFINE v1\np 3\ndim 1\nradius -1\nconstant\n0\n",
             4, "radius must be nonnegative"),
            (cli.parse_ca, "CA v1\nstates 0\nradius 0\ntable 0\n",
             2, "state count must be at least 1"),
            (cli.parse_ca, "CA v1\nstates 2\nradius -1\ntable 0\n",
             3, "radius must be nonnegative")):
        with pytest.raises(cli.FormatError) as err:
            parse(text)
        assert str(err.value) == f"line {line}: {message}"
    with pytest.raises(cli.FormatError):
        cli.parse_algebra("HELLO\n")


def test_print_and_parse_ca_match_oracles(rng):
    """The digit codec and the label lookups against one str() or int()
    per entry, on seeded random algebras on both sides of the 10-state
    switch, round-tripped through parse_ca in both table forms."""
    for m, r in itertools.product(range(1, 13), range(3)):
        algebra = random_local_algebra(rng, m, r)
        text = cli.print_ca(algebra)
        assert text.split("\n") == print_ca_oracle(algebra).split("\n")
        lines = text.splitlines()
        for line in (lines[3], "table-list " + " ".join(map(str, algebra.table))):
            parsed = cli.parse_ca("\n".join(lines[:3] + [line]) + "\n")
            assert parsed.table == parse_table_oracle(line) == algebra.table


def test_table_readers_name_bad_input():
    """Bad table input gets a FormatError naming its line, and a
    non-ASCII digit int() reads still parses."""
    head = "CA v1\nstates 2\nradius 1\n"
    for line, message in (("table 01x1", "line 4: table digits must be 0-9"),
                          ("table 0\u00b2", "line 4: table digits must be 0-9"),
                          ("table-list 0 a", "line 4: table-list entries must be integers")):
        with pytest.raises(cli.FormatError) as err:
            cli.parse_ca(head + line + "\n")
        assert str(err.value) == message
    arabic = "".join(chr(0x660 + x) for x in eca(110).table)
    assert cli.parse_ca(f"{head}table {arabic}\n") == eca(110)


def _oracle_diagrams():
    """The benchmark's CLI diagrams (300 steps of ECAs 30, 90, 110 and 150
    and of four F_3 rules, each from one of its words), one cyclic
    diagram, diagrams of 1, 36 and 37 states: PGM scale 0 and either
    side of the 36-glyph switch, rings of width 1 and 2: either side of
    the PGM itemgetter switch, and diagrams of 256 and 257 states at
    radius 0: either side of the bytes rows."""
    words = ("1", "00111000", "10110101", "0101")
    rules = [eca(n) for n in (30, 90, 110, 150)]
    rules += [to_table(canonical_additive(3, a))
              for a in ((2, 1, 1), (1, 2, 2), (1, 1, 2), (2, 2, 1))]
    for k, rule in enumerate(rules):
        yield evolve(rule, tuple(int(ch) for ch in words[k % len(words)]), 0, 300)
    yield evolve(eca(110), (0, 1, 1, 0, 1) * 20, 0, 300, "cyclic")
    yield evolve(LocalAlgebra(1, 1, (0,)), (0, 0, 0), 0, 5)
    rng = random.Random(36)
    for m in (36, 37):
        rule = random_local_algebra(rng, m, 0)
        yield evolve(rule, tuple(rng.randrange(m) for _ in range(2 * m)), rng.randrange(m), 20)
    for ring in ((1,), (1, 0)):
        yield evolve(eca(30), ring, 0, 6, "cyclic")
    for m in (256, 257):
        rule = random_local_algebra(rng, m, 0)
        yield evolve(rule, tuple(rng.randrange(m) for _ in range(40)), rng.randrange(m), 20)


def test_renders_match_oracles():
    # compared line by line: a mismatch is reported at its first line,
    # where a diff of two whole diagrams would take minutes
    for diagram in _oracle_diagrams():
        for dots in (False, True):
            assert (cli.render_text(diagram, dots).split("\n")
                    == render_text_oracle(diagram, dots).split("\n"))
        assert cli.render_pgm(diagram).split("\n") == render_pgm_oracle(diagram).split("\n")


def test_matrix_lines_match_oracle(rng):
    """Digits run together at p = 3, decimals spaced at p = 11."""
    for p, coefficients, n in ((3, (2, 1, 1), 200), (11, (3, 10, 7), 40)):
        for mat in component_matrices(canonical_additive(p, coefficients), n):
            assert cli._matrix_lines(mat) == matrix_lines_oracle(mat)
        mat = FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(9)] for _ in range(7)])
        assert cli._matrix_lines(mat) == matrix_lines_oracle(mat)


def test_eca_fit_family_agrees():
    for number in (60, 90, 102, 105, 150, 170, 195, 240):
        affine = fit_affine(eca(number), 2)
        assert to_table(affine).table == eca(number).table


def test_cmd_eca_and_show(monkeypatch, capsys):
    code, out, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    assert code == 0 and "table 01101001" in out
    code, out2, _ = run_cli(["show"], out, monkeypatch, capsys)
    assert code == 0 and out2 == out


def test_cmd_power_matrices_pipeline(monkeypatch, capsys):
    _, ca150, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    _, cubed, _ = run_cli(["power", "-n", "3"], ca150, monkeypatch, capsys)
    code, out, _ = run_cli(["matrices"], cubed, monkeypatch, capsys)
    assert code == 0
    middle = out.split("component 0\n")[1].splitlines()[:3]
    assert middle == ["101", "010", "101"]


def test_cmd_power_pipeline_is_referentially_transparent(monkeypatch, capsys, tmp_path):
    _, ca90, _ = run_cli(["eca", "90"], "", monkeypatch, capsys)
    _, twice, _ = run_cli(["power", "-n", "2"], ca90, monkeypatch, capsys)
    _, twice_twice, _ = run_cli(["power", "-n", "2"], twice, monkeypatch, capsys)
    _, fourth, _ = run_cli(["power", "-n", "4"], ca90, monkeypatch, capsys)
    assert twice_twice == fourth
    other = tmp_path / "fourth.ca"
    other.write_text(fourth, encoding="ascii")
    code, out, _ = run_cli(["iso", str(other)], twice_twice, monkeypatch, capsys)
    assert code == 0 and "RESULT: PASS" in out


def test_cmd_canonical_evolve_seed_rows(monkeypatch, capsys):
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "2", "1", "1"], "",
                         monkeypatch, capsys)
    code, out, _ = run_cli(
        ["evolve", "--init", "single:1", "--steps", "4", "--render", "text"],
        rule, monkeypatch, capsys)
    assert code == 0
    assert out.splitlines() == [
        "000010000", "000112000", "001221100", "010010020", "112112221"]


def test_cmd_evolve_dots_and_pgm(monkeypatch, capsys):
    _, ca90, _ = run_cli(["eca", "90"], "", monkeypatch, capsys)
    code, out, _ = run_cli(
        ["evolve", "--init", "single:1", "--steps", "2", "--dots"],
        ca90, monkeypatch, capsys)
    assert code == 0
    assert out.splitlines() == ["..1..", ".1.1.", "1...1"]
    code, out, _ = run_cli(
        ["evolve", "--init", "single:1", "--steps", "2", "--render", "pgm"],
        ca90, monkeypatch, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P2" and lines[1] == "5 3" and lines[2] == "255"
    assert lines[3].split() == ["0", "0", "255", "0", "0"]


def test_cmd_evolve_cyclic(monkeypatch, capsys):
    _, ca110, _ = run_cli(["eca", "110"], "", monkeypatch, capsys)
    code, out, _ = run_cli(
        ["evolve", "--init", "1,0,1,1,0", "--steps", "1",
         "--boundary", "cyclic:5"], ca110, monkeypatch, capsys)
    assert code == 0 and out.splitlines()[1] == "11111"


def test_cmd_subalgebras_congruences(monkeypatch, capsys, z4_text):
    code, out, _ = run_cli(["subalgebras"], z4_text, monkeypatch, capsys)
    assert code == 0 and "0,2" in out.splitlines()
    code, out, _ = run_cli(["congruences"], z4_text, monkeypatch, capsys)
    assert code == 0 and "0,2|1,3" in out.splitlines()


@pytest.fixture
def z4_text():
    table = tuple((x + z) % 4 for x in range(4) for _ in range(4) for z in range(4))
    return cli.print_ca(LocalAlgebra(4, 1, table))


def test_cmd_quotient_check(monkeypatch, capsys, tmp_path, z4_text):
    z4file = tmp_path / "z4.ca"
    z4file.write_text(z4_text, encoding="ascii")
    _, ca90, _ = run_cli(["eca", "90"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["quotient", "--of", str(z4file), "--check"],
                           ca90, monkeypatch, capsys)
    assert code == 0
    assert "classes 0,2|1,3" in out and "RESULT: PASS" in out
    code, out, _ = run_cli(["quotient", "--classes", "0,2|1,3", "--of", str(z4file)],
                           ca90, monkeypatch, capsys)
    assert code == 0 and cli.parse_ca(out).table == eca(90).table
    _, ca150, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["quotient", "--of", str(z4file), "--check"],
                           ca150, monkeypatch, capsys)
    assert code == 1 and "RESULT: FAIL" in out
    code, out, err = run_cli(["quotient", "--classes", "0,1|2,3", "--of", str(z4file)],
                             ca90, monkeypatch, capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "not compatible: states 0,1 at position -1 " in err
    # --check without --of has nothing to compare with, and is refused
    # before the (here empty) input is read
    code, out, err = run_cli(["quotient", "--classes", "0,2|1,3", "--check"], "",
                             monkeypatch, capsys)
    assert code == 2 and out == "" and "--of" in err and "Traceback" not in err


def test_cmd_quotient_of_builds_only_quotients_of_the_target_size(monkeypatch, capsys,
                                                                  tmp_path):
    # B x B^[2] of ECA 150 has 16 congruences, finest first; only those
    # with two blocks are quotiented and compared with ECA 150
    of = tmp_path / "big.ca"
    of.write_text(cli.print_ca(product([eca(150), iterative_power(eca(150), 2)])),
                  encoding="ascii")
    quotient_of = ca_core.quotient
    built = []

    def counted(congruence):
        built.append(len(congruence.blocks))
        return quotient_of(congruence)

    monkeypatch.setattr(ca_core, "quotient", counted)
    code, out, err = run_cli(["quotient", "--of", str(of)], cli.print_ca(eca(150)),
                             monkeypatch, capsys)
    assert (code, err) == (0, "") and out.endswith("RESULT: PASS\n")
    assert built == [2]


def test_cmd_quotient_of_ignores_empty_stdin(monkeypatch, capsys, tmp_path, z4_text):
    # printing a quotient of --of never consults the stdin algebra
    z4file = tmp_path / "z4.ca"
    z4file.write_text(z4_text, encoding="ascii")
    code, out, err = run_cli(["quotient", "--classes", "0,2|1,3", "--of", str(z4file)],
                             "", monkeypatch, capsys)
    assert (code, err) == (0, "") and cli.parse_ca(out).table == eca(90).table
    # the searches and the compared quotient do need it
    for argv in (["quotient", "--of", str(z4file)],
                 ["quotient", "--classes", "0,2|1,3", "--of", str(z4file), "--check"]):
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2 and out == "" and "empty input" in err



def test_cmd_quotient_lifts_iso_cap_to_the_size_compared(monkeypatch, capsys, tmp_path, rng):
    # 12 states is above the default iso_cap of 10: both quotient forms
    # compare the 12-state quotient with the stdin algebra at a cap
    # raised to its size, as `iso` does, and print are_isomorphic's witness
    big = random_local_algebra(rng, 12, r=0)
    sigma = list(range(12))
    rng.shuffle(sigma)
    target = _relabeled_table(big, sigma)
    assert big.table != target.table
    witness = ",".join(str(x) for x in are_isomorphic(big, target, Caps(iso_cap=12)))
    of = tmp_path / "big.ca"
    of.write_text(cli.print_ca(big), encoding="ascii")
    text = cli.print_ca(target)
    code, out, _ = run_cli(["iso", str(of)], text, monkeypatch, capsys)
    assert code == 0
    discrete = "|".join(str(x) for x in range(12))
    code, out, err = run_cli(["quotient", "--of", str(of), "--classes", discrete, "--check"],
                             text, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out.endswith(f"is isomorphic via {witness}\nRESULT: PASS\n")
    code, out, err = run_cli(["quotient", "--of", str(of)], text, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out == f"classes {discrete}\niso {witness}\nRESULT: PASS\n"

def test_cmd_iso_failure(monkeypatch, capsys, tmp_path):
    other = tmp_path / "other.ca"
    other.write_text(cli.print_ca(eca(150)), encoding="ascii")
    _, ca90, _ = run_cli(["eca", "90"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["iso", str(other)], ca90, monkeypatch, capsys)
    assert code == 1 and "RESULT: FAIL" in out


def test_cmd_fit_affine(monkeypatch, capsys):
    _, ca105, _ = run_cli(["eca", "105"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["fit-affine", "-p", "2"], ca105, monkeypatch, capsys)
    assert code == 0 and "constant" in out and out.splitlines()[-1] == "1"
    _, ca110, _ = run_cli(["eca", "110"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["fit-affine", "-p", "2"], ca110, monkeypatch, capsys)
    assert code == 1 and "RESULT: FAIL" in out


def test_cmd_e0_structure_simple(monkeypatch, capsys):
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "2", "1", "1"], "",
                         monkeypatch, capsys)
    code, out, _ = run_cli(["e0", "-n", "4"], rule, monkeypatch, capsys)
    assert code == 0 and out.splitlines()[1] == "1 1 2 1 1 2 2 2 1"
    code, out, _ = run_cli(["structure", "-n", "4"], rule, monkeypatch, capsys)
    assert code == 0 and out.splitlines()[-1] == "RESULT: PASS"
    code, out, _ = run_cli(["simple", "-n", "4"], rule, monkeypatch, capsys)
    assert code == 0 and "RESULT: PASS" in out
    code, out, _ = run_cli(["simple", "-n", "3"], rule, monkeypatch, capsys)
    assert code == 1  # n = p: the power splits, so it is not simple


def test_simple_and_evolve_gated_before_work(monkeypatch, capsys):
    # simple -n 15 over F_3 would spin 7,174,453 lines, and 5000 steps
    # from one cell would build 5001 rows of 10001 cells: both exit 2 at once
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "2", "1", "1"], "",
                         monkeypatch, capsys)
    _, ca30, _ = run_cli(["eca", "30"], "", monkeypatch, capsys)
    for argv, text, message in (
            (["simple", "-n", "15"], rule,
             "7174453 one-dimensional subspaces exceed cap 1000000"),
            (["evolve", "--init", "1", "--steps", "5000"], ca30,
             "space-time diagram needs 5001x10001 cells, cap 10000000"),
            # a cyclic ring is refused before it is padded to its length
            (["evolve", "--init", "1", "--steps", "10", "--boundary", "cyclic:1000000000000"],
             ca30, "space-time diagram needs 11x1000000000000 cells, cap 10000000"),
            (["evolve", "--init", "1", "--steps", "10", "--boundary", "cyclic:100000000"],
             ca30, "space-time diagram needs 11x100000000 cells, cap 10000000"),
            (["evolve", "--init", "1", "--steps", "-1", "--boundary", "cyclic:1000000000000"],
             ca30, "step count must be nonnegative")):
        start = time.perf_counter()
        code, out, err = run_cli(argv, text, monkeypatch, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and message in err and "Traceback" not in err
    # --cap moves the evolve gate: 3 steps from one cell are 4 rows of 7 cells
    code, out, err = run_cli(["--cap", "27", "evolve", "--init", "1", "--steps", "3"],
                             ca30, monkeypatch, capsys)
    assert code == 2 and out == "" and "4x7 cells, cap 27" in err
    code, out, _ = run_cli(["--cap", "28", "evolve", "--init", "1", "--steps", "3"],
                           ca30, monkeypatch, capsys)
    assert code == 0 and out.splitlines()[-1] == "1101111"


def test_cmd_invariant_subspaces(monkeypatch, capsys):
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "2", "0", "1"], "",
                         monkeypatch, capsys)
    code, out, _ = run_cli(["invariant-subspaces", "-n", "2"], rule, monkeypatch, capsys)
    assert code == 0
    assert len(out.splitlines()) == 6  # every subspace of F_3^2 is invariant


def test_cmd_split(monkeypatch, capsys):
    _, ca150, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["split", "-k", "1", "-l", "1"], ca150, monkeypatch, capsys)
    assert code == 0 and "RESULT: PASS" in out


def test_cmd_classify(monkeypatch, capsys):
    _, ca60, _ = run_cli(["eca", "60"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["classify"], ca60, monkeypatch, capsys)
    assert code == 0
    assert "left-witness -1" in out and "right-witness 0" in out
    assert "additive yes" in out
    # F_3 (1,0,1) has a zero center coefficient, so it is not doubly bijective
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "1", "0", "1"], "",
                         monkeypatch, capsys)
    code, out, _ = run_cli(["classify"], rule, monkeypatch, capsys)
    assert code == 0
    assert out.endswith("capacity-class HSPfinXi(B) = PfinXi(B) + SING_r\n"
                        "caveat center coefficient is zero: not doubly bijective, so "
                        "membership is checked by bounded search instead of the exact "
                        "procedure\n")


def test_cmd_simulates(monkeypatch, capsys, tmp_path):
    target = tmp_path / "target.ca"
    target.write_text(cli.print_ca(eca(90)), encoding="ascii")
    _, ca150, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["simulates", str(target), "--json"], ca150,
                           monkeypatch, capsys)
    assert code == 1
    payload = json.loads(out.splitlines()[0])
    assert payload["result"] == "no" and payload["command"] == "simulates"
    target.write_text(cli.print_ca(eca(150)), encoding="ascii")
    code, out, _ = run_cli(["simulates", str(target)], ca150, monkeypatch, capsys)
    assert code == 0 and "RESULT: PASS" in out
    # unknown: bounded search with little room
    _, ca90, _ = run_cli(["eca", "90"], "", monkeypatch, capsys)
    target.write_text(cli.print_ca(eca(150)), encoding="ascii")
    code, out, _ = run_cli(
        ["simulates", str(target), "--n-max", "1", "--k-max", "1"],
        ca90, monkeypatch, capsys)
    assert code == 3 and "RESULT: UNKNOWN" in out


def test_simulates_with_huge_bounds_answers_within_the_table_cap(tmp_path):
    # the closure walks only products whose tables fit --cap, and raises
    # its enumeration gates to each product, not to (m^n_max)^k_max
    target = tmp_path / "eca150.ca"
    target.write_text(cli.print_ca(eca(150)), encoding="ascii")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for bounds in (["--n-max", "100000"], ["--n-max", "100000", "--k-max", "100000"]):
        result = subprocess.run(
            [sys.executable, "-m", "casim", "--cap", "4096", "simulates", str(target)] + bounds,
            input=cli.print_ca(eca(90)), capture_output=True, text=True, env=env, timeout=10)
        assert result.returncode == 3 and "RESULT: UNKNOWN" in result.stdout
        assert "digits" not in result.stderr and "Traceback" not in result.stderr


def test_cmd_verify_characterization(monkeypatch, capsys):
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "2", "0", "1"], "",
                         monkeypatch, capsys)
    code, out, _ = run_cli(
        ["verify", "characterization", "--n-max", "2", "--k-max", "1", "--json"],
        rule, monkeypatch, capsys)
    assert code == 1
    payload = json.loads(out.splitlines()[0])
    assert payload["result"] == "fail"
    assert any(not item["ok"] for item in payload["items"])


def test_cmd_verify_affine_closure(monkeypatch, capsys):
    _, ca60, _ = run_cli(["eca", "60"], "", monkeypatch, capsys)
    code, out, _ = run_cli(
        ["verify", "affine-closure", "--n-max", "1", "--k-max", "1"],
        ca60, monkeypatch, capsys)
    assert code == 0 and "RESULT: PASS" in out


def test_exit_codes_for_bad_input(monkeypatch, capsys, tmp_path):
    code, _, err = run_cli(["show"], "garbage\n", monkeypatch, capsys)
    assert code == 2 and "casim:" in err
    # a table output out of range is named with its line
    text = cli.print_ca(eca(150))
    assert text.splitlines()[3] == "table 01101001"
    code, out, err = run_cli(["show"], text.replace("01101001", "01101007"),
                             monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == "casim: line 4: table output 7 out of range\n"
    # 2^(9*3) entries blow the default table cap
    code, _, err = run_cli(["power", "-n", "9"], cli.print_ca(eca(30)),
                           monkeypatch, capsys)
    assert code == 2 and "cap" in err
    code, _, err = run_cli(
        ["--cap", "100", "power", "-n", "3"], cli.print_ca(eca(30)),
        monkeypatch, capsys)
    assert code == 2 and "cap" in err
    # eca 30 | power -n 5 | subalgebras: 32 states, above the subalgebra cap
    _, ca30, _ = run_cli(["eca", "30"], "", monkeypatch, capsys)
    _, power5, _ = run_cli(["power", "-n", "5"], ca30, monkeypatch, capsys)
    code, out, err = run_cli(["subalgebras"], power5, monkeypatch, capsys)
    assert code == 2 and out == "" and "cap" in err and "Traceback" not in err
    # empty search bounds are refused, not answered with a vacuous PASS
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "1", "1", "1"], "",
                         monkeypatch, capsys)
    for argv in (["verify", "characterization", "--n-max", "0"],
                 ["verify", "affine-closure", "--k-max", "0"],
                 ["verify", "affine-closure", "--size-cap", "-3"]):
        code, out, err = run_cli(argv, rule, monkeypatch, capsys)
        assert code == 2 and out == "" and "search bounds need" in err
        assert "Traceback" not in err
    target = tmp_path / "eca30.ca"
    target.write_text(ca30, encoding="ascii")
    code, out, err = run_cli(["simulates", str(target), "--n-max", "0"], ca30,
                             monkeypatch, capsys)
    assert code == 2 and out == "" and "search bounds need" in err
    # seed profiles and component matrices are gated on the table cap
    _, rule, _ = run_cli(["canonical", "-p", "3", "-a", "1", "1", "2"], "",
                         monkeypatch, capsys)
    for argv in (["--cap", "100", "matrices", "-n", "6"],
                 ["--cap", "100", "structure", "-n", "6"],
                 ["--cap", "10", "e0", "-n", "5"]):
        code, out, err = run_cli(argv, rule, monkeypatch, capsys)
        assert code == 2 and out == "" and "cap" in err and "Traceback" not in err
    # iterative powers far past the cap are refused before m^(n(2r+1)) is built
    _, ca150, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    _, f3, _ = run_cli(["canonical", "-p", "3", "-a", "1", "1", "1"], "", monkeypatch, capsys)
    for argv, text, count in ((["power", "-n", "5000"], ca150, "2^15000 entries"),
                              (["split", "-k", "40", "-l", "1"], f3, "3^")):
        code, out, err = run_cli(argv, text, monkeypatch, capsys)
        assert code == 2 and out == "" and count in err and "Traceback" not in err
    # a zero modulus is refused before anything is reduced mod p
    for argv, text in ((["canonical", "-p", "0", "-a", "1", "1", "1"], ""),
                       (["show"], "AFFINE v1\np 0\ndim 1\nradius 0\ncomponent 0\n1\n"
                                  "constant\n0\n")):
        code, out, err = run_cli(argv, text, monkeypatch, capsys)
        assert code == 2 and out == "" and "modulus 0 is not prime" in err
        assert "Traceback" not in err


def test_module_pipeline_from_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    python = shlex.quote(sys.executable)
    pipeline = f"{python} -m casim eca 150 | {python} -m casim power -n 2"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(pipeline, shell=True, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert cli.parse_ca(result.stdout).table == iterative_power(eca(150), 2).table


def test_installed_script_pipeline():
    pipeline = "casim eca 150 | casim power -n 2 | casim matrices"
    result = subprocess.run(pipeline, shell=True, capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.splitlines()[:3] == ["component -1", "10", "01"]


def test_cmd_product(monkeypatch, capsys, tmp_path):
    other = tmp_path / "b.ca"
    other.write_text(cli.print_ca(eca(150)), encoding="ascii")
    _, ca150, _ = run_cli(["eca", "150"], "", monkeypatch, capsys)
    code, out, _ = run_cli(["product", str(other)], ca150, monkeypatch, capsys)
    assert code == 0
    parsed = cli.parse_ca(out)
    assert parsed.table == iterative_power(eca(150), 2).table


# ---------------------------------------------------------------------------
# the front end, pinned byte for byte: every subcommand, --in/--out/--cap on
# either side of the subcommand, stdin factors, help and usage errors

def _front_end_files(tmp_path):
    z4 = LocalAlgebra(4, 1, tuple((x + z) % 4 for x in range(4) for _ in range(4)
                                  for z in range(4)))
    texts = {f"e{n}": cli.print_ca(eca(n)) for n in (30, 60, 90, 150, 204)}
    texts["z4"] = cli.print_ca(z4)
    texts["f3"] = cli.print_affine(canonical_additive(3, [2, 1, 1]).as_affine())
    texts["f3b"] = cli.print_affine(canonical_additive(3, [2, 0, 1]).as_affine())
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text, encoding="ascii")
    return texts


# name -> (argv, stdin); "{e30}" names an input file, "{out}" the output
# file, and a stdin that names no input file is passed as it stands
FRONT_END_CASES = {
    "show": (["show"], "e30"),
    "show-affine": (["show"], "f3"),
    "show-in-before": (["--in", "{e30}", "show"], ""),
    "show-in-after": (["show", "--in", "{f3}"], ""),
    "show-parse-error": (["show"], "garbage\n"),
    "show-missing-in": (["--in", "{tmp}/missing.txt", "show"], ""),
    "eca": (["eca", "30"], ""),
    "eca-out-before": (["--out", "{out}", "eca", "30"], ""),
    "eca-out-after": (["eca", "30", "--out", "{out}"], ""),
    "eca-bad-int": (["eca", "x"], ""),
    "canonical": (["canonical", "-p", "3", "-a", "2", "1", "1"], ""),
    "power": (["power", "-n", "2"], "e30"),
    "power-affine": (["power", "-n", "2"], "f3"),
    "power-in-out-after": (["power", "-n", "2", "--in", "{e30}", "--out", "{out}"], ""),
    "power-in-before-out-after": (["--in", "{e90}", "power", "-n", "3", "--out", "{out}"], ""),
    "power-cap-before": (["--cap", "10", "power", "-n", "3"], "e30"),
    "power-cap-after": (["power", "-n", "3", "--cap", "10"], "e30"),
    "power-cap-both": (["--cap", "10", "power", "-n", "3", "--cap", "1000"], "e30"),
    "power-missing-n": (["power"], "e30"),
    "product": (["product", "{e90}"], "e150"),
    "product-two": (["product", "{e90}", "{e150}"], "e30"),
    "product-stdin-factor": (["--in", "{e150}", "product", "-"], "e90"),
    "evolve": (["evolve", "--init", "single:1", "--steps", "4"], "f3"),
    "evolve-cyclic-dots": (["evolve", "--init", "1,0,1,1,0", "--steps", "3",
                            "--boundary", "cyclic:7", "--dots"], "e30"),
    "evolve-pgm": (["evolve", "--init", "101", "--steps", "2", "--render", "pgm"], "e90"),
    "evolve-bad-boundary": (["evolve", "--init", "1", "--steps", "2", "--boundary", "wrap"],
                            "e90"),
    "evolve-bad-render": (["evolve", "--init", "1", "--steps", "2", "--render", "svg"], "e90"),
    "subalgebras": (["subalgebras"], "z4"),
    "congruences": (["congruences"], "z4"),
    "quotient-classes": (["quotient", "--classes", "0,2|1,3"], "z4"),
    "quotient-of-classes": (["quotient", "--classes", "0,2|1,3", "--of", "{z4}"], "e90"),
    "quotient-of-classes-check": (["quotient", "--classes", "0,2|1,3", "--of", "{z4}",
                                   "--check"], "e90"),
    "quotient-of-classes-check-fail": (["quotient", "--classes", "0,2|1,3", "--of", "{z4}",
                                        "--check"], "e150"),
    "quotient-search": (["quotient", "--of", "{z4}", "--check"], "e90"),
    "quotient-search-fail": (["quotient", "--of", "{z4}", "--check"], "e150"),
    "quotient-no-args": (["quotient"], "e90"),
    "iso": (["iso", "{e90}"], "e90"),
    "iso-fail": (["iso", "{e150}"], "e90"),
    "iso-stdin-other": (["--in", "{e90}", "iso", "-"], "e90"),
    "fit-affine": (["fit-affine", "-p", "2"], "e150"),
    "fit-affine-fail": (["fit-affine", "-p", "2"], "e30"),
    "e0": (["e0", "-n", "4"], "f3"),
    "e0-not-canonical": (["e0", "-n", "4"], "e30"),
    "matrices": (["matrices"], "e150"),
    "matrices-n": (["matrices", "-n", "3"], "f3"),
    "structure": (["structure", "-n", "4"], "f3"),
    "invariant-subspaces": (["invariant-subspaces", "-n", "2"], "f3b"),
    "simple": (["simple", "-n", "4"], "f3"),
    "simple-fail": (["simple", "-n", "3"], "f3"),
    "split": (["split", "-k", "1", "-l", "1"], "e150"),
    "classify": (["classify"], "e60"),
    "classify-affine": (["classify"], "f3"),
    "simulates-json": (["simulates", "{e90}", "--json"], "e150"),
    "simulates-yes": (["simulates", "{e150}"], "e150"),
    "simulates-unknown": (["simulates", "{e150}", "--n-max", "1", "--k-max", "1"], "e90"),
    "simulates-stdin-target-json": (["--in", "{e150}", "simulates", "-", "--json"], "e150"),
    "verify-characterization": (["verify", "characterization", "--n-max", "2",
                                 "--k-max", "1"], "f3b"),
    "verify-characterization-json": (["verify", "characterization", "--n-max", "2",
                                      "--k-max", "1", "--json"], "f3b"),
    "verify-affine-closure": (["verify", "affine-closure", "--n-max", "1", "--k-max", "1"],
                              "e60"),
    "verify-affine-closure-json": (["verify", "affine-closure", "--n-max", "1",
                                    "--k-max", "1", "--json"], "e60"),
    "verify-not-applicable": (["verify", "affine-closure", "--n-max", "1", "--k-max", "1"],
                              "e204"),
    "verify-empty-bounds": (["verify", "characterization", "--n-max", "0"], "f3"),
    "help": (["--help"], ""),
    "help-power": (["power", "--help"], ""),
    "help-simulates": (["simulates", "-h"], ""),
    "help-verify": (["verify", "--help"], ""),
    "no-command": ([], ""),
    "unknown-command": (["bogus"], ""),
}

# argparse words help and usage errors differently across Python minor
# versions; these cases pin their text only on the version it was recorded on
_ARGPARSE_TEXT = {"eca-bad-int", "power-missing-n", "evolve-bad-render", "help", "help-power",
                  "help-simulates", "help-verify", "no-command", "unknown-command"}
_RECORDED_ON = (3, 11)


def _pin(text, tmp_path):
    """A one-line text as it stands, a longer one by a sha256 prefix."""
    text = text.replace(str(tmp_path), "{tmp}")
    if "\n" in text.rstrip("\n") or len(text) > 100:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]
    return text


def observe_front_end(name, tmp_path, monkeypatch, capsys):
    """(exit code, stdout, stderr, --out file) of one case, each pinned."""
    texts = _front_end_files(tmp_path)
    argv, stdin = FRONT_END_CASES[name]
    out = tmp_path / "out.txt"
    names = {key: str(tmp_path / f"{key}.txt") for key in texts}
    argv = [arg.format(out=out, tmp=tmp_path, **names) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, stderr = run_cli(argv, texts.get(stdin, stdin), monkeypatch, capsys)
    written = _pin(out.read_text(encoding="ascii"), tmp_path) if out.exists() else None
    return code, _pin(stdout, tmp_path), _pin(stderr, tmp_path), written


# recorded before the command table was folded into the parser
FRONT_END_EXPECTED = {
    'canonical': (0, 'sha256:6995eab7d9e5574c', '', None),
    'classify': (0, 'sha256:971b8fbdfe0b302f', '', None),
    'classify-affine': (0, 'sha256:e5884b7a16b27ccb', '', None),
    'congruences': (0, 'sha256:3e4fb113ac623652', '', None),
    'e0': (0, 'sha256:af6c86d92414686e', '', None),
    'e0-not-canonical': (2, '', 'casim: the input table is not canonical additive\n', None),
    'eca': (0, 'sha256:a19ebb76bc122f55', '', None),
    'eca-bad-int': (2, '', 'sha256:5ee0f17b23dd3477', None),
    'eca-out-after': (0, '', '', 'sha256:a19ebb76bc122f55'),
    'eca-out-before': (0, '', '', 'sha256:a19ebb76bc122f55'),
    'evolve': (0, 'sha256:a894cc6769cbee2e', '', None),
    'evolve-bad-boundary': (
        2, '',
        'casim: boundary must be background:<state> or cyclic:<length>\n',
        None),
    'evolve-bad-render': (2, '', 'sha256:ced3febf0307da64', None),
    'evolve-cyclic-dots': (0, 'sha256:f730c7a3fd585740', '', None),
    'evolve-pgm': (0, 'sha256:f2583438d58ea3da', '', None),
    'fit-affine': (0, 'sha256:3cba5512e804c529', '', None),
    'fit-affine-fail': (1, 'sha256:bf6c75926933d387', '', None),
    'help': (0, 'sha256:430660b7c7e86ca2', '', None),
    'help-power': (0, 'sha256:901f57293069b8a9', '', None),
    'help-simulates': (0, 'sha256:a42a89663b617d2b', '', None),
    'help-verify': (0, 'sha256:57643d1007ea7df7', '', None),
    'invariant-subspaces': (0, 'sha256:d1b50cf7d8621337', '', None),
    'iso': (0, 'sha256:0b4176f0d36170aa', '', None),
    'iso-fail': (1, 'RESULT: FAIL\n', '', None),
    'iso-stdin-other': (0, 'sha256:0b4176f0d36170aa', '', None),
    'matrices': (0, 'sha256:4a8b98ee1fa24297', '', None),
    'matrices-n': (0, 'sha256:8f0e6994da25471b', '', None),
    'no-command': (2, '', 'sha256:a3f76efb89fd2ee8', None),
    'power': (0, 'sha256:c7c55b65b3a45b1a', '', None),
    'power-affine': (0, 'sha256:4b7bff2ff02941f9', '', None),
    'power-cap-after': (
        2, '',
        'casim: iterative power table needs 2^9 entries, cap 10 (--cap raises only the table cap)\n',
        None),
    'power-cap-before': (
        2, '',
        'casim: iterative power table needs 2^9 entries, cap 10 (--cap raises only the table cap)\n',
        None),
    'power-cap-both': (0, 'sha256:434a750b5e94edf3', '', None),
    'power-in-before-out-after': (0, '', '', 'sha256:5641776151483520'),
    'power-in-out-after': (0, '', '', 'sha256:c7c55b65b3a45b1a'),
    'power-missing-n': (2, '', 'sha256:2d9e121dc47ba516', None),
    'product': (0, 'sha256:8a70bc5f6e048525', '', None),
    'product-stdin-factor': (0, 'sha256:8a70bc5f6e048525', '', None),
    'product-two': (0, 'sha256:bea83b2ec4d8e033', '', None),
    'quotient-classes': (0, 'sha256:821f92566b7eeeab', '', None),
    'quotient-no-args': (2, '', 'casim: quotient needs --classes or --of\n', None),
    'quotient-of-classes': (0, 'sha256:821f92566b7eeeab', '', None),
    'quotient-of-classes-check': (0, 'sha256:aefbc84c143f4cfe', '', None),
    'quotient-of-classes-check-fail': (1, 'RESULT: FAIL\n', '', None),
    'quotient-search': (0, 'sha256:bba90742b0f5c4d1', '', None),
    'quotient-search-fail': (1, 'RESULT: FAIL\n', '', None),
    'show': (0, 'sha256:a19ebb76bc122f55', '', None),
    'show-affine': (0, 'sha256:6995eab7d9e5574c', '', None),
    'show-in-after': (0, 'sha256:6995eab7d9e5574c', '', None),
    'show-in-before': (0, 'sha256:a19ebb76bc122f55', '', None),
    'show-missing-in': (
        2, '',
        "casim: [Errno 2] No such file or directory: '{tmp}/missing.txt'\n",
        None),
    'show-parse-error': (
        2, '',
        "casim: line 1: unknown header 'garbage'; expected 'CA v1' or 'AFFINE v1'\n",
        None),
    'simple': (0, 'RESULT: PASS\n', '', None),
    'simple-fail': (1, 'RESULT: FAIL\n', '', None),
    'simulates-json': (1, 'sha256:e9427d3be1193142', '', None),
    'simulates-stdin-target-json': (0, 'sha256:65a7a748cfb538ca', '', None),
    'simulates-unknown': (3, 'sha256:b41aef2fa45ced9c', '', None),
    'simulates-yes': (0, 'sha256:c9db4f1e1b015888', '', None),
    'split': (0, 'sha256:d48917d729e98876', '', None),
    'structure': (0, 'sha256:cc3109b42f83be92', '', None),
    'subalgebras': (0, 'sha256:420eeeffffd040ab', '', None),
    'unknown-command': (2, '', 'sha256:204ff4fd9567979b', None),
    'verify-affine-closure': (0, 'sha256:8570f28b3dd0746e', '', None),
    'verify-affine-closure-json': (0, 'sha256:509cc2256cabbde1', '', None),
    'verify-characterization': (1, 'sha256:d1b6c43f1114207d', '', None),
    'verify-characterization-json': (1, 'sha256:09a9f1a9a57dd025', '', None),
    'verify-empty-bounds': (
        2, '',
        'casim: search bounds need n_max >= 1 and k_max >= 1, got 0 and 2\n',
        None),
    'verify-not-applicable': (1, 'sha256:0828e39e63a948fd', '', None),
}


@pytest.mark.parametrize("name", sorted(FRONT_END_CASES))
def test_front_end_pinned(name, tmp_path, monkeypatch, capsys):
    observed = observe_front_end(name, tmp_path, monkeypatch, capsys)
    expected = FRONT_END_EXPECTED[name]
    if name in _ARGPARSE_TEXT and sys.version_info[:2] != _RECORDED_ON:
        observed, expected = observed[:1], expected[:1]
    assert observed == expected


def test_write_errors_exit_2(monkeypatch, capsys, tmp_path):
    infile = tmp_path / "e30.ca"
    infile.write_text(cli.print_ca(eca(30)), encoding="ascii")
    for out in (tmp_path, tmp_path / "missing" / "out.ca"):
        code, stdout, err = run_cli(["--in", str(infile), "show", "--out", str(out)], "",
                                    monkeypatch, capsys)
        assert code == 2 and stdout == "" and "Traceback" not in err
        assert err.startswith("casim: ") and str(out) in err

    class FullDevice(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDevice())
    code, _, err = run_cli(["eca", "30"], "", monkeypatch, capsys)
    assert code == 2 and err == "casim: [Errno 28] No space left on device\n"


def test_parser_reuse_leaks_nothing(monkeypatch, capsys, tmp_path):
    """Consecutive calls in one process answer as each does in a fresh one."""
    ca30 = cli.print_ca(eca(30))
    rule = cli.print_affine(canonical_additive(3, [2, 0, 1]).as_affine())
    sequence = [(["--cap", "10", "power", "-n", "3"], ca30), (["power", "-n", "3"], ca30),
                (["--out", "{out}", "show"], ca30), (["show"], ca30),
                (["verify", "characterization", "--k-max", "1", "--json"], rule),
                (["verify", "characterization", "--k-max", "1"], rule)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    results = []
    for k, (argv, stdin) in enumerate(sequence):
        here, fresh = tmp_path / f"here{k}.out", tmp_path / f"fresh{k}.out"
        code, out, err = run_cli([arg.format(out=here) for arg in argv], stdin,
                                 monkeypatch, capsys)
        result = subprocess.run([sys.executable, "-m", "casim"]
                                + [arg.format(out=fresh) for arg in argv],
                                input=stdin, capture_output=True, text=True, env=env)
        assert (code, out, err) == (result.returncode, result.stdout, result.stderr), argv
        results.append((code, out[:1], here.exists()))
        assert here.exists() == fresh.exists(), argv
        if here.exists():
            assert here.read_text(encoding="ascii") == fresh.read_text(encoding="ascii")
    # a cap error, then the same power under the default cap; a file, then
    # stdout; a JSON report, then the text one
    assert results == [(2, "", False), (0, "C", False), (0, "", True), (0, "C", False),
                       (1, "{", False), (1, "o", False)]
