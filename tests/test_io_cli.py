import json
from fractions import Fraction

import pytest

from qbipoly.bipoly import BiPoly
from qbipoly.cli import main
from qbipoly.io import (EquationParseError, equation_to_text, frac_str,
                        parse_equation_text, parse_poly_terms, poly_from_json,
                        poly_terms_str, poly_to_json, write_json_atomic)

F = Fraction
x = BiPoly.x()
y = BiPoly.y()

PRESET_TEXT = """\
# bivariate big q-Jacobi instance
preset = big-q-jacobi
q = 1/2
a = 1/3
b = 1/4
c = 1/5
d = -1/2
"""


def test_poly_json_roundtrip():
    p = x * x * F(3, 7) - y * F(1, 2) + 5
    assert poly_from_json(poly_to_json(p)) == p


def test_poly_json_deterministic_order():
    p = y + x + x * y
    keys = [(rec["i"], rec["j"]) for rec in poly_to_json(p)]
    assert keys == sorted(keys)


def test_poly_terms_roundtrip():
    p = x * x * F(1, 2) - y * 3
    assert parse_poly_terms(poly_terms_str(p)) == p


def test_parse_poly_terms_errors():
    with pytest.raises(EquationParseError):
        parse_poly_terms("2:1/2")
    with pytest.raises(EquationParseError):
        parse_poly_terms("1,0:1/2 1,0:3")
    with pytest.raises(EquationParseError):
        parse_poly_terms("1,0:x")


def test_parse_preset_equation(equation):
    E = parse_equation_text(PRESET_TEXT)
    assert E.polys() == equation.polys()
    assert E.qp.q == F(1, 2)


def test_equation_text_roundtrip(equation):
    text = equation_to_text(equation)
    E = parse_equation_text(text)
    assert E.polys() == equation.polys()


def test_parse_errors():
    with pytest.raises(EquationParseError):
        parse_equation_text("q = 1/2\nc11 = 1,0:1\n")  # missing polynomials
    with pytest.raises(EquationParseError):
        parse_equation_text("c11 = 1,0:1\n")  # missing q
    with pytest.raises(EquationParseError):
        parse_equation_text("preset = unknown\nq = 1/2\n")
    with pytest.raises(EquationParseError):
        parse_equation_text("q = 3/2\npreset = big-q-jacobi\na=1/3\nb=1/4\nc=1/5\nd=-1/2\n")


def test_frac_str():
    assert frac_str(F(3)) == "3"
    assert frac_str(F(-1, 2)) == "-1/2"


def test_write_json_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic(str(path), {"a": F(1, 3)})
    assert json.loads(path.read_text())["a"] == "1/3"
    assert not path.with_suffix(".json.tmp").exists()


# CLI ------------------------------------------------------------------------------

def test_cli_check_preset_passes(capsys):
    assert main(["check", "--preset", "big-q-jacobi"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["schema_version"] == 1
    assert doc["report"]["eigenvalues"]["1"] == "-479/480"


def test_cli_check_perturbed_cross_term_fails(tmp_path, capsys, equation):
    # perturb the backward cross coefficient: admissibility condition on its
    # xy entry must be named in the failure report
    from qbipoly.equation import EquationCoeffs

    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    path = tmp_path / "bad.eq"
    path.write_text(equation_to_text(bad))
    assert main(["check", "--equation", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"]
    assert any("a3d" in msg for msg in doc["report"]["admissibility"]["failures"])


@pytest.mark.parametrize("family, degrees, message", [
    ("rodrigues", "1 0", "error: interpolant has coefficient at (1,1) beyond total degree 1"),
    ("monic", "2", "error: equation not admissible"),
])
def test_cli_generate_nonadmissible_is_one_line_error(tmp_path, capsys, equation,
                                                      family, degrees, message):
    from qbipoly.equation import EquationCoeffs

    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    path = tmp_path / "bad.eq"
    path.write_text(equation_to_text(bad))
    assert main(["generate", "--equation", str(path), "--family", family,
                 "--degrees", degrees]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("c", ["1/2", "1/4", "1"])
def test_cli_orthogonality_rejects_c_power_of_q(capsys, c):
    code = main(["verify", "--preset", "big-q-jacobi", "--suite", "orthogonality",
                 "--param", f"c={c}", "--precision", "64", "--truncation", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"c={c}" in err
    assert err.count("\n") == 1


def test_cli_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.eq"
    path.write_text("q = not-a-number\n")
    assert main(["check", "--equation", str(path)]) == 2


def test_cli_requires_equation_source():
    assert main(["check"]) == 2


def test_cli_generate_monic(tmp_path):
    out = tmp_path / "fam.json"
    code = main(["generate", "--preset", "big-q-jacobi", "--family", "monic",
                 "--degrees", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "polynomials"
    assert len(doc["vectors"]) == 4
    assert len(doc["vectors"][3]) == 4


def test_cli_generate_rodrigues(tmp_path):
    out = tmp_path / "rod.json"
    code = main(["generate", "--preset", "big-q-jacobi", "--family", "rodrigues",
                 "--degrees", "1 1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["residual_zero"] is True


def test_cli_generate_nonmonic_requires_preset(tmp_path, equation):
    path = tmp_path / "eq.txt"
    path.write_text(equation_to_text(equation))
    assert main(["generate", "--equation", str(path), "--family", "nonmonic",
                 "--degrees", "1 0"]) == 2


def test_cli_degree_guardrail():
    assert main(["generate", "--preset", "big-q-jacobi", "--family", "monic",
                 "--degrees", "40"]) == 2


def test_cli_generate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["generate", "--preset", "big-q-jacobi", "--family", "hypergeometric",
            "--degrees", "2 1", "--seed", "0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_consistency(tmp_path):
    out = tmp_path / "cons.csv"
    code = main(["verify", "--preset", "big-q-jacobi", "--suite", "consistency",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("case")
    assert any("hypergeometric_equals_oracle" in line for line in lines)


def test_cli_verify_recurrence():
    assert main(["verify", "--preset", "big-q-jacobi", "--suite", "recurrence",
                 "--out", "/dev/null"]) == 0


def test_cli_bad_precision():
    assert main(["check", "--preset", "big-q-jacobi", "--precision", "32"]) == 2


def test_cli_generate_weight_table(tmp_path):
    out = tmp_path / "weights.csv"
    code = main(["generate", "--preset", "big-q-jacobi", "--family", "weight",
                 "--degrees", "3 3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,t,x,y,rho_num,rho_den"
    assert len(lines) == 17  # header + 4x4 lattice rows
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"] and first[4] == "1" and first[5] == "1"


def test_float_poly_json():
    from qbipoly.scalars import FloatField

    fld = FloatField(96)
    p = BiPoly({(1, 1): fld.of("0.25")}, fld)
    rec = poly_to_json(p)
    assert rec[0]["i"] == 1 and "value" in rec[0]
    back = poly_from_json(rec, fld)
    assert fld.close(back.coeff(1, 1), fld.of("0.25"))
