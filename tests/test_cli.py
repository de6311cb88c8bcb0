import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from casim import cli
from casim.affine_ca import canonical_additive, fit_affine, to_table
from casim.ca_core import LocalAlgebra, eca, iterative_power


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
