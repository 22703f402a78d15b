import argparse
import csv
import enum
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from qbipoly.bigqjacobi import TEST_PARAMS, preset_equation
from qbipoly.bipoly import BiPoly
import qbipoly
import qbipoly.io as qio
from qbipoly import cli, suites
from qbipoly.cli import main
from qbipoly.equation import EquationCoeffs
from qbipoly.io import (_POLY_KEYS, EquationParseError, frac_str,
                        mat_to_json, parse_equation_source, parse_poly_terms, poly_to_json,
                        write_csv_atomic, write_json_atomic)
from qbipoly.linalg import Mat, SingularMatrixError
from qbipoly.pearson import require
from qbipoly.qcalc import SeriesError
from strategies import (CONSTANT_WEIGHT_FAMILY_TEXT, DEGENERATE_PEARSON_TEXT,
                        INCOMPATIBLE_PEARSON_TEXT, NONZERO, OMEGA2_X_TEXT, PHI1_ABOVE_OMEGA1_TEXT,
                        PHI1_ZERO_TEXT, Q23_PARAMS, admissible_equations, constant_weight_equations,
                        equation_to_text, pearson_line, poly_terms_str, replace, scaled_preset)
from test_golden_cli import CASES

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
P = ("--preset", "big-q-jacobi")


def json_text(doc) -> str:
    """The text qio.write_json writes for doc."""
    buf = io.StringIO()
    qio.write_json(buf, doc)
    return buf.getvalue()


# writers of the program's input formats, for round trips and for equation
# files that the tests write

def poly_from_json(records) -> BiPoly:
    """The polynomial of a poly_to_json record list."""
    return BiPoly({(rec["i"], rec["j"]): F(int(rec["num"]), int(rec["den"]))
                   for rec in records})


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
    with pytest.raises(EquationParseError, match="negative exponent in '-1,0:1'"):
        parse_poly_terms("2,0:1 -1,0:1")


def test_parse_preset_equation(equation):
    E = parse_equation_source(PRESET_TEXT)[0]
    assert all(getattr(E, key) == getattr(equation, key) for key in _POLY_KEYS)
    assert E.qp.q == F(1, 2)


def test_equation_text_roundtrip(equation):
    text = equation_to_text(equation)
    E = parse_equation_source(text)[0]
    assert all(getattr(E, key) == getattr(equation, key) for key in _POLY_KEYS)


def test_parse_errors():
    with pytest.raises(EquationParseError):
        parse_equation_source("q = 1/2\nc11 = 1,0:1\n")  # missing polynomials
    with pytest.raises(EquationParseError):
        parse_equation_source("c11 = 1,0:1\n")  # missing q
    with pytest.raises(EquationParseError):
        parse_equation_source("preset = unknown\nq = 1/2\n")
    with pytest.raises(EquationParseError):
        parse_equation_source("q = 3/2\npreset = big-q-jacobi\na=1/3\nb=1/4\nc=1/5\nd=-1/2\n")
    # keys are case-insensitive, so a key repeated in another case is a duplicate
    for text in ("q = 1/2\nQ = 1/3\n", "q = 1/2\nc11 = 1,0:1\nC11 = 2,0:1\n"):
        with pytest.raises(EquationParseError, match="duplicate key"):
            parse_equation_source(text)


def test_frac_str():
    assert frac_str(F(3)) == "3"
    assert frac_str(F(-1, 2)) == "-1/2"


def test_write_json_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic(str(path), {"a": frac_str(F(1, 3))})
    assert json.loads(path.read_text())["a"] == "1/3"
    assert not path.with_suffix(".json.tmp").exists()


def test_write_json_atomic_writes_the_bytes_of_json_text_in_blocks(tmp_path, monkeypatch):
    # the encoder's chunks are written in blocks, not one write per chunk
    import qbipoly.io as qio

    writes = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(len(text))
            return self.fh.write(text)

    real = qio._write_atomic
    monkeypatch.setattr(qio, "_write_atomic",
                        lambda path, write: real(path, lambda fh: write(Counting(fh))))
    small = {"b": ["1/3", {"c": (1, 2), "d": None}], "a": "\u00e9" * 40, "n": -7.5}
    large = {"rows": [[frac_str(F(k, 7)), str(k), {"k": k}] for k in range(1500)]}  # 21,008 chunks
    for doc, most in ((small, 2), (large, 22)):
        writes.clear()
        path = tmp_path / "out.json"
        write_json_atomic(str(path), doc)
        assert path.read_bytes() == json_text(doc).encode("utf-8")
        assert 1 <= len(writes) <= most


def json_reference(doc) -> str:
    """The text the JSON writer must reproduce byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def view(doc):
    """doc with every exact leaf replaced by the dict view whose JSON text
    the writer writes for it: poly_to_json for a BiPoly, mat_to_json for a
    Mat (tuples become lists, as json.dumps writes them anyway)."""
    if type(doc) is BiPoly:
        return poly_to_json(doc)
    if type(doc) is Mat:
        return mat_to_json(doc)
    if isinstance(doc, dict):
        return {k: view(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [view(v) for v in doc]
    return doc


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_writer_matches_json_on_every_golden_document(monkeypatch, capsys, name):
    # the CSV case runs as JSON; every document is captured as main emits it
    argv = ["json" if a == "csv" else a for a in CASES[name][0]]
    docs = []
    real = qio.write_json
    monkeypatch.setattr(qio, "write_json", lambda fh, doc: docs.append(doc) or real(fh, doc))
    assert main(argv) == 0
    (doc,) = docs
    want = json_reference(view(doc))
    assert capsys.readouterr().out == want
    writes = []

    class Recording:
        def write(self, text):
            writes.append(text)

    real(Recording(), doc)
    assert "".join(writes) == want
    if len(want) > 100_000:  # the monic N = 12 family, about 389 KB
        assert len(writes) > 4 and max(map(len, writes)) < len(want) / 4


class Tag(str):
    pass


class Count(int):
    pass


class Real(float):
    pass


class Shade(str, enum.Enum):
    DARK = "dark"


class Level(int, enum.Enum):
    LOW = 1


class Weight(float, enum.Enum):
    HALF = 0.5


#: what a document holds: text keys, and leaves of exactly str, int, finite
#: float, bool or None
json_atoms = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**400, max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0]),
    st.text(), st.text(st.characters(max_codepoint=0x7f)),
)
json_values = st.recursive(
    json_atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(), inner, max_size=6),
    ),
    max_leaves=30,
)


@seed(230)
@settings(max_examples=200, deadline=None, database=None)
@given(json_values)
def test_json_writer_matches_json_on_nested_values(doc):
    assert json_text(doc) == json_reference(doc)


def test_json_writer_keys_and_empty_containers():
    # keys are str and leaves exactly str, int, float, bool or None: any other
    # key or leaf (a subclass, an enum, a Fraction) is refused, not converted
    for bad in ({"z": [], 2: None}, {2: None}, {(1, 2): 0}, {None: ""}, {"a": F(1, 3)},
                [Tag("t")], [Count(1)], [Real(0.5)], {"s": [Shade.DARK]}, [Level.LOW],
                [Weight.HALF], [{1, 2}]):
        with pytest.raises(TypeError):
            json_text(bad)
    doc = {"z": [], "y": {}, "x": (), "w": [{}, [], ()],
           "b": {"\u00e9": 1.5, "\x07": -0.0}, "a": {"t": True, "f": False}, "c": {"": None},
           "d": {"-1": [-(10**40), "-1/3", ()], "3": [[], {}]}}
    assert json_text(doc) == json_reference(doc)


#: exact coefficients: small fractions, integers (denominator 1) and
#: numerators and denominators of up to 300 digits, of either sign
exact_coeffs = st.one_of(
    st.fractions(max_denominator=60),
    st.integers(min_value=-10**300, max_value=10**300).map(F),
    st.builds(F, st.integers(min_value=-10**300, max_value=10**300),
              st.integers(min_value=1, max_value=10**300)))
#: polynomials from zero terms (the zero polynomial) up to eight
exact_polys = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), exact_coeffs,
                              max_size=8).map(BiPoly)


@st.composite
def exact_mats(draw):
    """Dense matrices with zero rows and entries, 0/1 selections, and the
    shapes with no rows or no columns."""
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        picks = [draw(st.integers(-1, k - 1)) for _ in range(n)]
        return Mat([[int(c == pick) for c in range(k)] for pick in picks])
    entries = st.one_of(st.just(F(0)), exact_coeffs)
    return Mat([[draw(entries) for _ in range(k)] if draw(st.booleans()) else [0] * k
                for _ in range(n)])


exact_documents = st.recursive(
    st.one_of(exact_polys, exact_mats(), st.none(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=16,
)


@seed(34)
@settings(max_examples=100, deadline=None, database=None)
@given(exact_documents)
def test_json_writer_writes_exact_leaves_as_their_views(doc):
    assert json_text(doc) == json_reference(view(doc))


class Poly(BiPoly):
    __slots__ = ()


class Matrix(Mat):
    __slots__ = ()


def test_json_writer_refuses_other_exact_leaves():
    # an exact leaf is exactly a BiPoly or a Mat: a subclass, a Fraction or
    # an enum is refused, not converted; a polynomial vector is a plain list
    p = BiPoly({(1, 0): F(1, 3), (0, 0): 2})
    assert json_text({"p": [p], "m": Mat([[F(1, 2), 0]])}) == json_reference(
        {"p": [poly_to_json(p)], "m": [["1/2", "0"]]})
    for bad in ([Poly({(1, 0): F(1, 3)})], {"m": Matrix([[1]])},
                {"c": F(1, 3)}, [Level.LOW], {"s": [Shade.DARK]}, (p, [F(2)])):
        with pytest.raises(TypeError):
            json_text(bad)


def test_atomic_writes_keep_a_users_tmp_file(tmp_path):
    path = tmp_path / "out.csv"
    mine = tmp_path / "out.csv.tmp"
    mine.write_text("keep me")
    write_csv_atomic(str(path), ("a", "b"), [(1, 2)])
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"
    assert mine.read_text() == "keep me"
    assert sorted(tmp_path.iterdir()) == [path, mine]


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        write_csv_atomic(str(path), ("a",), [("\ud800",)])  # a lone surrogate has no UTF-8 form
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_goes_through_a_fifo(tmp_path):
    # a rename would replace the pipe (or a device such as /dev/null)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json_atomic(str(fifo), {"a": "1/3"})
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert json.loads(data)["a"] == "1/3"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_cli_out_through_a_link_replaces_the_file_it_names(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target.name)
    assert main(["check", "--preset", "big-q-jacobi", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert json.loads(target.read_text())["kind"] == "check-report"
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_cli_out_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old")
    target.chmod(0o600)
    assert main(["check", "--preset", "big-q-jacobi", "--out", str(target)]) == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
    assert json.loads(target.read_text())["kind"] == "check-report"


def test_cli_out_to_directory_exit_2_without_temp_file(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    code = main(["generate", "--preset", "big-q-jacobi", "--family", "hypergeometric",
                 "--degrees", "1 0", "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".tmp" not in err
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_cli_out_into_missing_directory_names_the_given_path(tmp_path, capsys):
    target = tmp_path / "missing" / "o.csv"
    code = main(["generate", "--preset", "big-q-jacobi", "--family", "weight",
                 "--degrees", "2 2", "--format", "csv", "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(target)) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


# CLI ------------------------------------------------------------------------------

def test_cli_check_preset_passes(capsys):
    assert main(["check", "--preset", "big-q-jacobi"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["schema_version"] == 1
    assert doc["report"]["eigenvalues"]["1"] == "-479/480"


CHECK_CSV = (
    "section,key,value\r\n"
    "admissibility,admissible,true\r\n"
    "admissibility,failures,[]\r\n"
    'eigenvalues,0,"""0"""\r\n'
    'eigenvalues,1,"""-479/480"""\r\n'
    'eigenvalues,2,"""-959/320"""\r\n'
    + "".join(f"hypergeometric_form,{k},true\r\n" for k in (
        "a12a_bilinear", "a12d_bilinear", "b1_affine_in_x", "b2_affine_in_y",
        "c11_quadratic_in_x", "c22_quadratic_in_y", "ok"))
    + "".join(f"operator_relations,{k},true\r\n" for k in (
        "commute_dq1_dq2", "commute_dq1_dqm2", "commute_dq2_dqm1", "commute_dqm1_dqm2",
        "convert_axis1", "convert_axis2", "product_rule_axis1", "product_rule_axis2"))
    + "".join(f"pearson,{k},true\r\n" for k in ("coupling", "key", "ratio_left", "ratio_right"))
)


def test_cli_check_csv_is_one_json_leaf_per_row(capsys):
    argv = ["check", "--preset", "big-q-jacobi", "--max-degree", "2"]
    assert main([*argv, "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text == CHECK_CSV
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["section", "key", "value"]
    assert {(s, k): json.loads(v) for s, k, v in rows[1:]} == {
        (s, k): v for s, leaves in report.items() for k, v in leaves.items()}


def test_cli_check_csv_of_a_failed_check(tmp_path, capsys, equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    path = tmp_path / "bad.eq"
    path.write_text(equation_to_text(bad))
    assert main(["check", "--equation", str(path), "--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    (failures,) = [json.loads(v) for s, k, v in rows if (s, k) == ("admissibility", "failures")]
    assert any("a3d" in msg for msg in failures)
    assert ["admissibility", "admissible", "false"] in rows
    assert {s for s, _, _ in rows[1:]} == {"admissibility", "hypergeometric_form"}


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


def test_cli_check_failing_pearson_identity_exits_1(monkeypatch, capsys):
    real = cli.verify_pearson_identities

    def failing(E, k_max, l_max):
        report = real(E, k_max, l_max)
        report["coupling"][(0, 0)] = False
        return report

    monkeypatch.setattr(cli, "verify_pearson_identities", failing)
    assert main(["check", *P]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["report"]["pearson"] == {"ratio_left": True, "ratio_right": True,
                                        "key": True, "coupling": False}


def test_cli_limits_monic_ratio_rows_gate(monkeypatch, capsys):
    monkeypatch.setattr(suites, "LIMIT_RATIO_HI", F(0))
    assert main(["verify", "--suite", "limits"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    verdicts = {case: {row[4] for row in doc["rows"] if row[0] == case}
                for case in ("monic_ratio", "rodrigues_ratio")}
    assert verdicts == {"monic_ratio": {"False"}, "rodrigues_ratio": {"info"}}


def test_cli_limits_classical_remainder_rows_gate(monkeypatch, capsys):
    # a quotient one more than each classical weight's exact quotient:
    # quotient * weight is then not the bracket, at every order
    weights = []
    real_fraction, real_div = suites.classical_rodrigues_fraction, BiPoly.div_exact

    def fraction(cp, n, m):
        bracket, weight = real_fraction(cp, n, m)
        weights.append(weight)
        return bracket, weight

    monkeypatch.setattr(suites, "classical_rodrigues_fraction", fraction)
    monkeypatch.setattr(BiPoly, "div_exact",
                        lambda self, divisor: real_div(self, divisor) + (1 if divisor in weights else 0))
    assert main(["verify", "--suite", "limits"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and len(weights) == 10
    verdicts = [row[4] for row in doc["rows"] if row[0] == "classical_rodrigues_zero_remainder"]
    assert verdicts == ["False"] * 10


def test_cli_recurrence_explicit_matrix_rows_gate(monkeypatch, capsys):
    real = suites.explicit_BC

    def perturbed(p, n):
        out = real(p, n)
        if n != 2:
            return out
        rows = [list(r) for r in out["C1"].rows]
        rows[0][0] += 1
        return {**out, "C1": Mat(rows)}

    monkeypatch.setattr(suites, "explicit_BC", perturbed)
    assert main(["verify", *P, "--suite", "recurrence"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert [row[:4] for row in doc["rows"] if row[4] == "False"] == [
        ["explicit_matrix_agreement", "n=2", "C1", "1 differing entries"]]


@pytest.mark.parametrize("family, degrees, message", [
    ("rodrigues", "1 0", "error: equation not admissible"),
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


@pytest.mark.parametrize("suite", ["consistency", "recurrence", "orthogonality"])
def test_cli_verify_nonadmissible_preset_point_exits_1(capsys, suite):
    # abc = q^-2: the spectral condition fails at m = 0, a failed check as in
    # check and generate, not a bad configuration
    params = ("a=8/5", "b=8/5", "c=25/16", "d=-1/2")
    assert main(["verify", *P, *(f"--param={p}" for p in params), "--suite", suite]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: equation not admissible: ['spectral condition fails at m=0']\n"


def test_cli_weight_pole_is_one_line_error(capsys):
    # c = 1 puts a pole of G1 on the weight table's lattice
    code = main(["generate", "--preset", "big-q-jacobi", "--param", "c=1",
                 "--family", "weight", "--degrees", "2 1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: G1 pole at product index 0, lattice point (-1/4, -1/4)\n"


def test_cli_verify_orthogonality_refuses_c_a_power_of_q(capsys):
    # c = q^0: the weight is not defined, one named refusal before any output
    code = main(["verify", "--suite", "orthogonality", "--preset", "big-q-jacobi",
                 "--param", "c=1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the orthogonality weight needs c != q^k (k >= 0), got c=1, q=1/2\n"


def test_cli_unknown_param_is_named(capsys):
    code = main(["check", "--preset", "big-q-jacobi", "--param", "z=1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown parameter 'z'\n"


@pytest.mark.parametrize("param", ["zz=1", "a=1/2"])
def test_cli_param_without_preset_is_refused(tmp_path, capsys, param):
    # --param sets preset parameters, so with --equation it is refused, not ignored
    path = tmp_path / "preset.eq"
    path.write_text(PRESET_TEXT)
    code = main(["generate", "--equation", str(path), "--param", param,
                 "--family", "nonmonic", "--degrees", "1,0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --param sets preset parameters; it needs --preset\n"


@pytest.mark.parametrize("source", [["--equation", "/nonexistent"],
                                    ["--preset", "big-q-jacobi"],
                                    ["--param", "zz=1"],
                                    ["--preset", "big-q-jacobi", "--param", "a=1/2"]],
                         ids=["equation", "preset", "param", "preset-param"])
def test_cli_limits_refuses_an_equation_source(capsys, source):
    # the limits suite has no parameter point, so a source would be ignored
    assert main(["verify", "--suite", "limits", *source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the limits suite takes no equation source "
                            "(--equation, --preset or --param)\n")


@pytest.mark.parametrize("family, degrees", [("monic", "2"), ("rodrigues", "1 1"),
                                             ("nonmonic", "1 0"), ("hypergeometric", "1 1")])
def test_cli_generate_csv_without_table_is_refused(tmp_path, capsys, family, degrees):
    # only the weight table has rows; a polynomial document has no CSV form
    out = tmp_path / "out.csv"
    code = main(["generate", "--preset", "big-q-jacobi", "--family", family,
                 "--degrees", degrees, "--format", "csv", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {family} family has no CSV form; use --format json\n"
    assert list(tmp_path.iterdir()) == []


#: equations that are not of hypergeometric form: B2 depending on x, the
#: preset's six coefficients times y (all six violate the form), and an
#: x^2 term in A12a with a y term in B1, which check lists A12a first
NON_HYPERGEOMETRIC = {
    "b2-x": lambda E: replace(E, b2=E.b2 + x * F(1, 5)),
    "times-y": lambda E: replace(E, **{k: getattr(E, k) * y for k in _POLY_KEYS}),
    "a12a-and-b1": lambda E: replace(E, a12a=E.a12a + x * x, b1=E.b1 + y),
}

#: the sha256 of `check --equation` on each, recorded before the form was
#: decided once: the check document does not move
NON_HYPERGEOMETRIC_CHECK_SHA256 = {
    "b2-x": "55d8f00a8e2d2e3e9b33cc608eacfab29439bb9a77589ec5828252c238c005db",
    "times-y": "e3d758621ceda0bb30299b615d17167e4cc5c801197df5f628a581bc7fd88dff",
    "a12a-and-b1": "c30d801a01abcf378d5d9aae369d492a2e3c6f68d4b2f276a9c2a7f03f743b5a",
}

REQUESTS = {"check": ["check"], "monic": ["generate", "--family", "monic", "--degrees", "3"],
            "rodrigues": ["generate", "--family", "rodrigues", "--degrees", "1 1"],
            "weight": ["generate", "--family", "weight", "--degrees", "2 2"]}


@pytest.mark.parametrize("request_name", REQUESTS)
@pytest.mark.parametrize("name", NON_HYPERGEOMETRIC)
def test_cli_non_hypergeometric_equation_is_one_line_error(tmp_path, capsys, equation, name,
                                                           request_name):
    # check reports every violation; each request that needs the form
    # refuses with the first of them
    path = tmp_path / "bad.eq"
    path.write_text(equation_to_text(NON_HYPERGEOMETRIC[name](equation)))
    assert main(["check", "--equation", str(path)]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == NON_HYPERGEOMETRIC_CHECK_SHA256[name]
    report = json.loads(out)["report"]
    first = report["hypergeometric_form"]["violations"][0]
    assert name != "b2-x" or first == "B2 must not depend on x"
    assert main([*REQUESTS[request_name], "--equation", str(path)]) == 1
    captured = capsys.readouterr()
    if request_name == "check":
        assert captured.err == "" and json.loads(captured.out)["report"] == report
    else:
        assert captured.out == ""
        assert captured.err == f"error: {first}\n"


@pytest.mark.parametrize("request_args", [["check"],
                                          ["generate", "--family", "rodrigues", "--degrees", "1 1"],
                                          ["generate", "--family", "weight", "--degrees", "2 2"]],
                         ids=["check", "rodrigues", "weight"])
def test_cli_degenerate_pearson_system_is_one_line_error(tmp_path, capsys, request_args):
    path = tmp_path / "degenerate.eq"
    path.write_text(DEGENERATE_PEARSON_TEXT)
    assert main([*request_args, "--equation", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: omega vanishes identically; no Pearson system\n"


KEY_REFUSAL = "incompatible Pearson system: G1 G2(qx,y) != G2 G1(x,qy)"

#: the sha256 of `check --equation` on each line file at t = 1/7: check
#: reports the failing ratio rows in its document where generate refuses
LINE_CHECK_SHA256 = {
    "f1": "5ef4b883f42a97354fa502145c33c1150280807b94ffc658179c4ec8da8e9f94",
    "a1": "f39af5edabeda3f77888edfe235f6e92efd1333c6fd72d526a3b3cb15435a2cc",
    "b": "1d42e19bfc7a03c010f5af8d28f4b2f2688d66e9b51b3bd9175541445725cd2d",
}


@pytest.mark.parametrize("text, family, message, check_sha256", [
    (INCOMPATIBLE_PEARSON_TEXT, "rodrigues", KEY_REFUSAL, None),
    (PHI1_ZERO_TEXT, "rodrigues", "phi1 or phi2 vanishes identically; no Rodrigues weight", None),
    # without key the weight table would depend on the walk
    (INCOMPATIBLE_PEARSON_TEXT, "weight", KEY_REFUSAL, None),
    *((equation_to_text(pearson_line(name, F(1, 7))), "rodrigues",
       "equation not potentially self-adjoint: ratio_left fails", digest)
      for name, digest in LINE_CHECK_SHA256.items()),
    (CONSTANT_WEIGHT_FAMILY_TEXT, "rodrigues",
     "equation not potentially self-adjoint: a Rodrigues division leaves a remainder",
     "f5fd0097bbc8b7680e558bd6944405f9fc198f285e777b02334f20e4a694928c"),
], ids=["incompatible", "phi1-zero", "incompatible-weight", "f1-line", "a1-line", "b-line",
        "constant-weight"])
def test_cli_rodrigues_refusal_is_one_line_exit_1(tmp_path, capsys, text, family, message,
                                                  check_sha256):
    path = tmp_path / "eq.eq"
    path.write_text(text)
    assert main(["generate", "--equation", str(path), "--family", family,
                 "--degrees", "1 1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    if check_sha256 is not None:
        assert main(["check", "--equation", str(path)]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == check_sha256


def test_cli_rodrigues_where_phi1_outranks_omega1_in_x(tmp_path, capsys):
    # the document is the one the route wrote before its one-pass step; its
    # eigen-equation residual is nonzero (the Pearson rows fail from order
    # (0, 1) on, which the route does not check), hence exit 1
    path = tmp_path / "eq.eq"
    path.write_text(PHI1_ABOVE_OMEGA1_TEXT)
    assert main(["generate", "--equation", str(path), "--family", "rodrigues",
                 "--degrees", "3 0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["residual_zero"] is False
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "98ed7a65d98cbb4bc7ccbc5142c6e63ae4d43d1e2afccc702de9399fd829f79e")


@pytest.mark.parametrize("exc", [SeriesError("denominator vanished"), SingularMatrixError(2),
                                 ValueError("math domain error")])
def test_cli_series_and_singular_errors_exit_2(monkeypatch, capsys, exc):
    # no preset point reaches these today (validated parameters keep every
    # series denominator nonzero, interpolation nodes are distinct); a
    # future route that does, or that raises any other ValueError, gets a
    # one-line exit 2, not a traceback
    def boom(*args):
        raise exc

    monkeypatch.setattr("qbipoly.cli.nonmonic_poly", boom)
    assert main(["generate", "--preset", "big-q-jacobi", "--family", "nonmonic",
                 "--degrees", "1 0"]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("c", ["1/2", "1/4", "1"])
def test_cli_orthogonality_rejects_c_power_of_q(capsys, c):
    code = main(["verify", "--preset", "big-q-jacobi", "--suite", "orthogonality",
                 "--param", f"c={c}", "--precision", "64", "--truncation", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"c={c}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("precision, truncation, q", [("64", "96", "1/2"), ("192", "200", "17/20")])
def test_cli_orthogonality_runs_where_the_error_bound_gate_refused(capsys, precision, truncation, q):
    """Both requests were refused (exit 2) while the outer Jackson sum was
    truncated and a gate refused any --precision and --truncation whose
    error bound 2^(24 - precision) + 4 q^truncation reached 1e-25.  With
    the moments in closed form every verdict is exact: each exits 0, every
    gated row reads True and every pair prints exactly 0."""
    code = main(["verify", "--preset", "big-q-jacobi", "--suite", "orthogonality",
                 "--param", f"q={q}", "--precision", precision, "--truncation", truncation])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = json.loads(captured.out)["rows"]
    assert all(row[4] == "True" for row in rows if row[4] != "info")
    assert {row[3] for row in rows if row[0] == "pair"} == {"0.0"}


#: two points where the report of orthogonal polynomials once failed at
#: settings that the former error-bound gate accepted, while each moment was
#: only within 2^-precision of max(|M_ij|, |M_00|) and the inner Jackson
#: sums lost bits with the truncation: at d = -1000 the moments reach 1e41
#: and 23 pair rows read 1.3e-25 to 9e-22 at 128/96; at point 23 of
#: tests/test_bigqjacobi.py's sweep_points(40) (aq = cq = 12/13, q = 2/3)
#: every pair failed at 109/147.  With closed-form integrals every pair is
#: exactly 0
GATE_MISSES = {
    "d=-1000": (("a=1/1000", "b=1/1000", "c=1/1000", "d=-1000", "q=1/2"), 128, 96),
    "sweep-23": (("a=18/13", "b=12/13", "c=18/13", "d=-16/13", "q=2/3"), 109, 147),
}


def _verify_argv(params, precision, truncation) -> list:
    return ["verify", *P, "--suite", "orthogonality", *(f"--param={v}" for v in params),
            "--precision", str(precision), "--truncation", str(truncation)]


@pytest.mark.parametrize("point", sorted(GATE_MISSES))
def test_orthogonality_passes_where_the_gate_accepts(capsys, point):
    params, precision, truncation = GATE_MISSES[point]
    assert main(_verify_argv(params, precision, truncation)) == 0


def test_orthogonality_passes_at_d_minus_1000_with_more_precision(capsys):
    assert main(_verify_argv(GATE_MISSES["d=-1000"][0], 160, 96)) == 0


#: points where det H_1 is tiny only because the weight's mass is (1.5e-31
#: and 2.8e-32 at the default 192/200): H_1 is gated at 1e-25 of |h00 h11|
#: + |h01 h10|, which does not scale with the mass
SMALL_MASS = {
    "q=1/1000": ("q=1/1000",),
    "abc=1/1000,d=-1/1000": ("a=1/1000", "b=1/1000", "c=1/1000", "d=-1/1000"),
}


def _h1_row(rows) -> list:
    return [row for row in rows if row[0] == "H1_nonsingular"]


@pytest.mark.parametrize("point", sorted(SMALL_MASS))
def test_h1_gate_does_not_scale_with_the_weights_mass(capsys, point):
    argv = ["verify", *P, "--suite", "orthogonality", *(f"--param={v}" for v in SMALL_MASS[point])]
    assert main(argv) == 0
    [row] = _h1_row(json.loads(capsys.readouterr().out)["rows"])
    assert row[4] == "True" and abs(float(row[3])) < 1e-30


def test_h1_gate_reads_false_on_a_rank_one_block(monkeypatch):
    """H_1 with its second row three times its first (det exactly 0) reads
    False, and the suite's ok with it."""
    gram = suites.MomentTable.gram

    def rank_one(self, polys):
        G = gram(self, polys)
        if len(polys) == 4 and polys[0] == BiPoly.x():
            G[1][2], G[1][3] = 3 * G[0][2], 3 * G[0][3]
        return G

    monkeypatch.setattr(suites.MomentTable, "gram", rank_one)
    ok, rows = suites.run_suite("orthogonality", p=TEST_PARAMS, prec=120)
    assert _h1_row(rows) == [("H1_nonsingular", "det", "", "0.0", "False")] and not ok


def test_orthogonality_request_builds_no_mpmath_context(monkeypatch, capsys):
    # the report's values are exact rationals, each rounded once when printed
    import mpmath

    built = []
    init = mpmath.MPContext.__init__
    monkeypatch.setattr(mpmath.MPContext, "__init__", lambda self: built.append(self) or init(self))
    assert main(["verify", *P, "--suite", "orthogonality", "--precision", "120",
                 "--truncation", "96"]) == 0
    assert built == []


def test_cli_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.eq"
    path.write_text("q = not-a-number\n")
    assert main(["check", "--equation", str(path)]) == 2


@pytest.mark.parametrize("argv", [("check",), ("generate", "--family", "monic", "--degrees", "2")],
                         ids=["check", "generate"])
def test_cli_negative_exponent_is_one_line_error(tmp_path, capsys, equation, argv):
    path = tmp_path / "negative.eq"
    path.write_text(equation_to_text(equation).replace("c11 = ", "c11 = -1,0:1 "))
    assert main([*argv, "--equation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: negative exponent in '-1,0:1' for 'c11'\n"
    assert captured.out == ""


def test_cli_non_utf8_equation_file_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "latin1.eq"
    path.write_bytes(b"q = 1/2\n# caf\xe9\n")
    assert main(["check", "--equation", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not UTF-8 text at byte 13\n"


def test_cli_equation_file_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    # editors on Windows save UTF-8 with a leading BOM; it is not part of the
    # first key, and a bad byte's offset still counts the file's bytes
    path = tmp_path / "bom.eq"
    path.write_bytes(b"\xef\xbb\xbf" + PRESET_TEXT.encode("utf-8"))
    assert main(["check", "--equation", str(path)]) == 0
    out = capsys.readouterr().out
    assert main(["check", *P]) == 0
    assert out == capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CASES["check"][1]
    path.write_bytes(b"\xef\xbb\xbfq = 1/2\n# caf\xe9\n")
    assert main(["check", "--equation", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text at byte 16\n"


def test_cli_requires_equation_source():
    assert main(["check"]) == 2


FAMILY_CHOICES = "monic,rodrigues,nonmonic,hypergeometric,weight"
SUITE_CHOICES = "orthogonality,consistency,limits,recurrence"


@pytest.mark.parametrize("command, option, choices", [
    ("generate", "--family", FAMILY_CHOICES), ("verify", "--suite", SUITE_CHOICES)])
def test_cli_choices_keep_their_order(monkeypatch, capsys, command, option, choices):
    # --family lists _ARITY and --suite lists suites.SUITES: --help and the
    # invalid-choice message keep the order they had as literal tuples
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"  {option} {{{choices}}}\n" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([command, option, "x"])
    assert exc.value.code == 2
    quoted = ", ".join(f"'{c}'" for c in choices.split(","))
    assert capsys.readouterr().err.endswith(
        f"qbipoly {command}: error: argument {option}: invalid choice: 'x' "
        f"(choose from {quoted})\n")


#: each command's own options; every command also reads the equation source
#: and the output options
READS = {
    "check": ("--max-degree",),
    "generate": ("--family", "--degrees"),
    "verify": ("--suite", "--precision", "--truncation"),
}
#: each command's required options, so that only the option tried is wrong
REQUIRED = {"check": [], "generate": ["--family", "monic", "--degrees", "1"],
            "verify": ["--suite", "limits"]}


@pytest.mark.parametrize("command", READS)
def test_cli_command_takes_only_the_options_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    common = {"--help", "--equation", "--preset", "--param", "--out", "--format"}
    assert shown == common | set(READS[command])
    for option in {o for opts in READS.values() for o in opts} - shown:
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], option, "100"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 100" in capsys.readouterr().err


#: equation files for the refusals below; "general" is the preset's six
#: polynomials, an equation without preset parameters
REFUSAL_FILES = {
    "no-equals": "q = 1/2\njunk\n",
    "preset-without-a": "preset = big-q-jacobi\nq = 1/2\nb = 1/4\nc = 1/5\nd = -1/2\n",
    "preset-a-too-large": PRESET_TEXT.replace("a = 1/3", "a = 3"),
    "preset-with-c11": PRESET_TEXT + "c11 = 0,0:1\n",
    "preset-a-over-zero": PRESET_TEXT.replace("a = 1/3", "a = 1/0"),
    "preset-b-not-a-number": PRESET_TEXT.replace("b = 1/4", "b = x"),
    "preset-a-empty": PRESET_TEXT.replace("a = 1/3", "a = "),
    "q-over-zero": PRESET_TEXT.replace("q = 1/2", "q = 1/0"),
    "q-not-a-number": PRESET_TEXT.replace("q = 1/2", "q = x"),
    "q-empty": PRESET_TEXT.replace("q = 1/2", "q = "),
    "q-too-large": PRESET_TEXT.replace("q = 1/2", "q = 2"),
}


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "orthogonality", *P, "--truncation", "15"],
     "truncation must be at least 16"),
    (["check", *P, "--max-degree", "13"], "degree bound must lie in 0..12"),
    (["check", *P, "--max-degree", "-1"], "degree bound must lie in 0..12"),
    (["check", "--equation", "@general", *P], "give either --equation or --preset, not both"),
    (["check", "--preset", "other"], "unknown preset 'other'"),
    (["check", *P, "--param", "a"], "bad --param 'a'"),
    (["check", *P, "--param", "a=x"], "bad --param 'a=x'"),
    (["check", *P, "--param", "a=1/0"], "bad --param 'a=1/0'"),
    (["check", *P, "--param", "q=2"], "q must satisfy 0 < q < 1, got 2"),
    (["check", *P, "--param", "a=3"], "need 0 < aq < 1, got a=3, q=1/2"),
    (["check", *P, "--param", "d=1"], "need d < 0, got d=1"),
    (["generate", *P, "--family", "monic", "--degrees", "x"], "bad --degrees 'x'"),
    (["generate", *P, "--family", "monic", "--degrees", "1 1"],
     "monic generation takes a single degree bound N"),
    (["generate", *P, "--family", "rodrigues", "--degrees", "1"],
     "rodrigues generation takes two degrees: n m"),
    (["generate", *P, "--family", "weight", "--degrees", "1 2 3"],
     "weight table generation takes two lattice bounds: s_max t_max"),
    (["generate", *P, "--family", "nonmonic", "--degrees", "1"],
     "nonmonic generation takes two indices"),
    (["generate", *P, "--family", "hypergeometric", "--degrees", "1 0 0"],
     "hypergeometric generation takes two indices"),
    # the preset refusal comes before the arity and index checks
    (["generate", "--equation", "@general", "--family", "nonmonic", "--degrees", "1"],
     "nonmonic generation requires the big-q-jacobi preset"),
    (["generate", "--equation", "@general", "--family", "nonmonic", "--degrees", "1 2"],
     "nonmonic generation requires the big-q-jacobi preset"),
    (["generate", "--equation", "@general", "--family", "hypergeometric", "--degrees", "1 0 0"],
     "hypergeometric generation requires the big-q-jacobi preset"),
    (["verify", "--suite", "orthogonality", "--equation", "@general"],
     "the orthogonality suite runs on the big-q-jacobi preset"),
    (["verify", "--suite", "consistency", "--equation", "@general"],
     "the consistency suite runs on the big-q-jacobi preset"),
    (["verify", "--suite", "recurrence", "--equation", "@general"],
     "the recurrence suite runs on the big-q-jacobi preset"),
    (["check", "--equation", "@no-equals"], "line 2: expected 'key = value'"),
    (["check", "--equation", "@preset-without-a"], "preset needs parameter 'a'"),
    (["check", "--equation", "@preset-a-too-large"], "need 0 < aq < 1, got a=3, q=1/2"),
    # a key that the file's form does not read is refused, not ignored
    (["check", "--equation", "@general-foo"], "line 2: 'foo' is not a key of a six-polynomial file"),
    (["check", "--equation", "@preset-with-c11"], "line 8: 'c11' is not a key of a preset file"),
    (["check", "--equation", "@general-a"], "line 8: 'a' is not a key of a six-polynomial file"),
    # a repeated --param key is refused, as a repeated key of a file is
    (["check", *P, "--param", "a=1/3", "--param", "a=1/2"], "--param 'a' given twice"),
    # a preset value that is not a fraction names its key and line
    (["check", "--equation", "@preset-a-over-zero"], "line 4: bad value '1/0' for 'a'"),
    (["check", "--equation", "@preset-b-not-a-number"], "line 5: bad value 'x' for 'b'"),
    (["check", "--equation", "@preset-a-empty"], "line 4: bad value '' for 'a'"),
    # so does a q that is not a fraction; a fraction outside 0 < q < 1 is a bad q
    (["check", "--equation", "@q-over-zero"], "line 3: bad value '1/0' for 'q'"),
    (["check", "--equation", "@q-not-a-number"], "line 3: bad value 'x' for 'q'"),
    (["check", "--equation", "@q-empty"], "line 3: bad value '' for 'q'"),
    (["check", "--equation", "@q-too-large"], "bad q: q must satisfy 0 < q < 1, got 2"),
    # a bad term of a six-polynomial file names its key and line
    (["check", "--equation", "@general-c11-over-zero"],
     "line 2: bad coefficient in '0,0:1/0' for 'c11'"),
    (["check", "--equation", "@general-c11-bad-term"], "line 2: bad polynomial term '0;0:1' for 'c11'"),
    (["check", "--equation", "@general-b2-duplicate"],
     "line 7: duplicate exponent pair in '9,0:2' for 'b2'"),
])
def test_cli_refusal_is_one_line_exit_2(tmp_path, capsys, equation, argv, message):
    general = equation_to_text(equation)
    files = dict(REFUSAL_FILES, general=general, **{
        "general-foo": general.replace("\nc11", "\nfoo = 3\nc11", 1),
        "general-a": general + "a = 7\n",
        "general-c11-over-zero": general.replace("\nc11 = ", "\nc11 = 0,0:1/0 ", 1),
        "general-c11-bad-term": general.replace("\nc11 = ", "\nc11 = 0;0:1 ", 1),
        "general-b2-duplicate": general.replace("\nb2 = ", "\nb2 = 9,0:1 9,0:2 ", 1)})
    for name, text in files.items():
        (tmp_path / f"{name}.eq").write_text(text)
    argv = [str(tmp_path / f"{a[1:]}.eq") if a.startswith("@") else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("key, mono, value, failure", [
    ("b2", (0, 1), F(1), "f2 != f1 (1 vs 479/480)"),
    ("c22", (0, 2), F(1), "a2 != a1 (2 vs 1)"),
    ("a12a", (1, 1), F(1, 480), "a3a != a1*q + f1*(q-1) (1/480 vs 1/960)"),
])
def test_cli_check_names_each_admissibility_failure(tmp_path, capsys, equation,
                                                     key, mono, value, failure):
    # one coefficient of the preset's six polynomials edited breaks one condition
    poly = getattr(equation, key)
    edited = replace(equation, **{key: BiPoly({**poly.coeffs, mono: value})})
    path = tmp_path / "edited.eq"
    path.write_text(equation_to_text(edited))
    assert main(["check", "--equation", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["report"]["admissibility"] == {"admissible": False, "failures": [failure]}


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


def test_cli_generate_rodrigues_reports_a_nonzero_residual(tmp_path, monkeypatch, capsys):
    # residual_zero is computed, not asserted: a polynomial off the
    # eigenspace is reported and the command exits 1
    import qbipoly.cli as cli

    real = cli.rodrigues_poly
    monkeypatch.setattr(cli, "rodrigues_poly", lambda E, n, m: real(E, n, m) + x)
    out = tmp_path / "rod.json"
    code = main(["generate", "--preset", "big-q-jacobi", "--family", "rodrigues",
                 "--degrees", "1 1", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["residual_zero"] is False


def test_cli_generate_nonmonic_requires_preset(tmp_path, equation):
    path = tmp_path / "eq.txt"
    path.write_text(equation_to_text(equation))
    assert main(["generate", "--equation", str(path), "--family", "nonmonic",
                 "--degrees", "1 0"]) == 2


def test_cli_nonmonic_index_above_degree_is_one_line_error(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("refused before any computation")

    monkeypatch.setattr("qbipoly.cli.nonmonic_poly", boom)
    out = tmp_path / "p.json"
    assert main(["generate", "--preset", "big-q-jacobi", "--family", "nonmonic",
                 "--degrees", "1 2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nonmonic generation needs 0 <= k <= n, got n=1, k=2\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("values", [
    {"a": "1/3", "b": "1/4", "c": "1/5", "d": "-1/2", "q": "1/2"},
    {"a": "1/2", "b": "3/4", "c": "1/3", "d": "-2/3", "q": "2/3"},
])
@pytest.mark.parametrize("request_args", [
    ("--family", "nonmonic", "--degrees", "3 1"),
    ("--family", "weight", "--degrees", "3 3", "--format", "csv"),
])
def test_cli_preset_file_equals_preset_flags(tmp_path, capsys, values, request_args):
    """A preset equation file carries its parameters as --preset/--param do."""
    path = tmp_path / "preset.eq"
    path.write_text("preset = big-q-jacobi\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["generate", "--equation", str(path), *request_args]) == 0
    from_file = capsys.readouterr().out
    flags = [arg for k, v in values.items() for arg in ("--param", f"{k}={v}")]
    assert main(["generate", "--preset", "big-q-jacobi", *flags, *request_args]) == 0
    assert from_file == capsys.readouterr().out


def test_cli_degree_guardrail():
    assert main(["generate", "--preset", "big-q-jacobi", "--family", "monic",
                 "--degrees", "40"]) == 2


def test_cli_generate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["generate", "--preset", "big-q-jacobi", "--family", "hypergeometric",
            "--degrees", "2 1"]
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
    assert main(["verify", "--suite", "orthogonality", "--preset", "big-q-jacobi",
                 "--precision", "32"]) == 2


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


def test_main_builds_one_parser_per_process(monkeypatch):
    # the parser and its three subcommand parsers are built on the first call only
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["generate", *P, "--family", "hypergeometric", "--degrees", "1 0", "--out", os.devnull]
    assert main(argv) == 0
    assert main(argv) == 0
    assert built == ["qbipoly", "qbipoly check", "qbipoly generate", "qbipoly verify"]
    assert cli.build_parser() is cli.build_parser()


def test_param_list_does_not_leak_into_the_next_call(tmp_path, capsys):
    path = tmp_path / "preset.eq"
    path.write_text(PRESET_TEXT)
    assert main(["check", *P, "--param", "a=1/5", "--out", os.devnull]) == 0
    # a --param left over from the first call would be refused without --preset
    assert main(["check", "--equation", str(path)]) == 0
    assert cli.build_parser().parse_args(["check", *P]).param is None
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert want == CASES["check"][1]


@pytest.mark.parametrize("bad", [["generate", *P, "--degrees", "2"],
                                 ["check", *P, "--format", "xml"],
                                 ["frobnicate"]])
def test_parse_error_leaves_the_parser_usable(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert "usage: qbipoly" in capsys.readouterr().err
    assert main(list(CASES["check"][0])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CASES["check"][1]


def fresh_python(cwd, *args, timeout=120) -> subprocess.CompletedProcess:
    """A new interpreter run with args, importing qbipoly from this source
    tree; a run past timeout seconds fails the test instead of hanging it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbipoly.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          timeout=timeout)


#: runs each argv list through main in one process and prints the exit
#: codes and the sha256 of each stdout
HASHED_OUTPUTS_SCRIPT = """\
import contextlib, hashlib, io, json, sys
from qbipoly.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    out.append([code, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
print(json.dumps(out))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    """Byte-identical output for a fixed configuration, whatever the order
    in which the interpreter iterates sets and dicts of strings: five
    commands under PYTHONHASHSEED 0 and 1."""
    argvs = [("check", *P), ("generate", *P, "--family", "monic", "--degrees", "8"),
             ("generate", *P, "--family", "hypergeometric", "--degrees", "3,2"),
             ("verify", "--suite", "limits"),
             ("verify", *P, "--suite", "orthogonality", "--precision", "128", "--truncation", "96")]
    runs = []
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        proc = fresh_python(tmp_path, "-c", HASHED_OUTPUTS_SCRIPT, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert [code for code, _ in runs[0]] == [0] * len(argvs)
    assert runs[0] == runs[1]


def test_python_m_qbipoly_runs_the_cli(tmp_path):
    proc = fresh_python(tmp_path, "-m", "qbipoly", *CASES["check"][0])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == CASES["check"][1]


#: runs check and a Rodrigues generate in one process, then names on stderr
#: the exit codes and every module loaded of mpmath, dataclasses, inspect
#: (the import that dataclasses brings) and __future__ (which any module
#: importing qbipoly.cli would load with a future statement)
EXACT_COMMANDS_SCRIPT = """\
import json, sys
from qbipoly.cli import main
codes = [main(list(argv)) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules
                if m in ("mpmath", "dataclasses", "inspect", "__future__")
                or m.startswith("mpmath."))
print(json.dumps([codes, loaded]), file=sys.stderr)
"""


def test_exact_commands_load_no_mpmath_dataclasses_or_future(tmp_path):
    argvs = [CASES["check"][0], CASES["generate-rodrigues-2-2"][0]]
    proc = fresh_python(tmp_path, "-c", EXACT_COMMANDS_SCRIPT, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [[0, 0], []]


def test_python_m_orthogonality_matches_its_golden_digest(tmp_path):
    # printing the report's first float value imports mpmath in this run
    argv, digest = CASES["verify-orthogonality-120-96"]
    proc = fresh_python(tmp_path, "-m", "qbipoly", *argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


NINES_30 = "0." + "9" * 30


@pytest.mark.parametrize("q, exact", [("0.9999999", "9999999/10000000"),
                                      (NINES_30, "9" * 30 + "/1" + "0" * 30)],
                         ids=["7-nines", "30-nines"])
def test_cli_orthogonality_near_q_one_refuses_in_time(tmp_path, q, exact):
    # neither the c = q^k check nor the mass's ladder walks over powers of
    # q before it refuses, which near q = 1 would take hours (7 nines) or
    # never end (30 nines)
    proc = fresh_python(tmp_path, "-m", "qbipoly", "verify", "--preset", "big-q-jacobi",
                        "--suite", "orthogonality", "--param", f"q={q}", "--precision", "64",
                        timeout=20)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode() == (f"error: q={exact} is too near 1: the ladder would take "
                                    f"over {2**20} steps\n")


def test_cli_writes_integers_over_4300_digits(tmp_path):
    # the monic N = 12 family at a 30-digit q has coefficients past CPython's
    # default int-to-string cap, which the CLI lifts for its own process
    out = tmp_path / "monic.json"
    proc = fresh_python(tmp_path, "-m", "qbipoly", "generate", "--preset", "big-q-jacobi",
                        "--family", "monic", "--degrees", "12", "--param", f"q={NINES_30}",
                        "--out", str(out), timeout=60)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    assert max(map(len, re.findall(rb"\d+", out.read_bytes()))) > 4300


def test_cli_reads_a_param_over_4300_digits(tmp_path):
    a = "1/" + "3" * 5000
    proc = fresh_python(tmp_path, "-m", "qbipoly", "check", "--preset", "big-q-jacobi",
                        "--param", f"a={a}", timeout=60)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_cli_restores_the_callers_int_digit_limit(monkeypatch, capsys):
    # main lifts the int-to-str cap while it runs (the two tests above) and
    # gives the caller's limit back on every exit: 0, 1, a refusal, a usage error
    real, seen = cli.verify_pearson_identities, []

    def failing(E, k_max, l_max):
        seen.append(sys.get_int_max_str_digits())
        report = real(E, k_max, l_max)
        report["coupling"][(0, 0)] = False
        return report

    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["check", *P]) == 0
        assert sys.get_int_max_str_digits() == 4300
        monkeypatch.setattr(cli, "verify_pearson_identities", failing)
        assert main(["check", *P]) == 1
        assert seen == [0] and sys.get_int_max_str_digits() == 4300
        assert main(["check", *P, "--param", "z=1"]) == 2
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(SystemExit):
            main(["check", *P, "--truncation", "15"])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert capsys.readouterr().err.startswith("error: unknown parameter 'z'\nusage: ")


def _equation_sources():
    """Equation file texts from every structured source that reaches deep
    code, plus equations that are not admissible, the preset times a
    polynomial g (not of hypergeometric form unless g is constant), and
    malformed text."""
    preset = preset_equation(TEST_PARAMS)
    g = st.builds(lambda c, gx, gy: x * gx + y * gy + c, NONZERO, st.sampled_from([0, 1, F(-1, 3)]),
                  st.sampled_from([0, 2, F(1, 5)]))
    equations = st.one_of(
        constant_weight_equations(), constant_weight_equations(x_divides_a12d=True),
        st.builds(pearson_line, st.sampled_from(["f1", "a1", "b"]), NONZERO),
        st.builds(scaled_preset, st.sampled_from([TEST_PARAMS, Q23_PARAMS]),
                  NONZERO, NONZERO, NONZERO),
        admissible_equations(),
        st.builds(lambda E, t: replace(E, a12d=E.a12d + x * y * t),
                  admissible_equations(), NONZERO),
        g.map(lambda g: replace(
            preset, **{key: getattr(preset, key) * g for key in _POLY_KEYS})))
    malformed = st.sampled_from(["q = 1/2\nc11 = 2:1\n", "q = 0\n", "c11 = 1,0:1\n",
                                 PRESET_TEXT.replace("d = -1/2", "d = 1/2"),
                                 INCOMPATIBLE_PEARSON_TEXT.replace("b2 = ", "b2 = 0,0:x ")])
    return st.one_of(equations.map(equation_to_text), malformed,
                     st.sampled_from([INCOMPATIBLE_PEARSON_TEXT, PHI1_ZERO_TEXT, OMEGA2_X_TEXT,
                                      DEGENERATE_PEARSON_TEXT]))


PROPERTY_REQUESTS = [
    ("check", ["check"]), ("monic", ["generate", "--family", "monic", "--degrees", "2"]),
    *(("rodrigues", ["generate", "--family", "rodrigues", "--degrees", f"{t - m} {m}"])
      for t in range(3) for m in range(t + 1)),
    ("weight", REQUESTS["weight"])]
DIVISION_REFUSAL = ("error: equation not potentially self-adjoint: "
                    "a Rodrigues division leaves a remainder\n")
OMEGA_REFUSAL = "error: omega vanishes identically; no Pearson system\n"


@seed(47)
@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_equation_sources())
def test_cli_refuses_each_request_as_require_does(tmp_path, capsys, text):
    # every command and family on an equation from each source, in
    # process: exit 0, 1 or 2; a refusal is one error line with nothing on
    # stdout; an exit-0 document parses; and an exit-1 refusal is the one
    # that pearson.require gives for the request (check refuses only a
    # vanishing omega, and the route also a division with a remainder)
    path = tmp_path / "eq.eq"
    path.write_text(text)
    try:
        E = parse_equation_source(text)[0]
    except ValueError:
        E = None
    for request, argv in PROPERTY_REQUESTS:
        code = main([*argv, "--equation", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        if err:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert code != 2 and json.loads(out), argv
        expected = None
        if E is not None and request != "check":
            try:
                require(E, request)
            except ValueError as exc:
                expected = f"error: {exc}\n"
        if expected is not None:
            assert (code, err) == (1, expected), (argv, code, err)
        elif code == 1 and err:
            assert err == {"check": OMEGA_REFUSAL, "rodrigues": DIVISION_REFUSAL}.get(request), (
                argv, err)
