"""Serialization (JSON/CSV with exact fractions), the equation file format,
and atomic writes.

Scalars travel as decimal-free numerator/denominator strings; float-lane
report values as decimal strings with the digits their precision carries.
Every JSON document carries schema_version.
Files are written to a uniquely named temporary sibling and renamed, so
failures leave neither partial outputs nor temp files.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
import os
from fractions import Fraction

from .bipoly import BiPoly, lowest_terms
from .equation import EquationCoeffs
from .linalg import Mat, PolyVec
from .qcalc import QParam

SCHEMA_VERSION = 1


class EquationParseError(ValueError):
    pass


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return _pair_str(v.numerator, v.denominator)


def _pair_str(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def mp_str(v) -> str:
    """v to the decimal digits its binary precision carries."""
    import mpmath

    return mpmath.nstr(v, int(v.context.prec * math.log10(2)))


def poly_to_json(p: BiPoly) -> list:
    return [{"i": i, "j": j, "num": str(n), "den": str(d)}
            for (i, j), n, d in lowest_terms(p.nums, p.den, sorted(p.nums))]


def poly_from_json(records) -> BiPoly:
    return BiPoly({(rec["i"], rec["j"]): Fraction(int(rec["num"]), int(rec["den"]))
                   for rec in records})


def mat_to_json(m: Mat) -> list:
    return [[_pair_str(n, d) for _, n, d in lowest_terms(nums, den, range(m.ncols))]
            for nums, den in m.forms]


def polyvec_to_json(v: PolyVec) -> list:
    return [poly_to_json(p) for p in v.entries]


def document(kind: str, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def _write_atomic(path: str, write) -> None:
    """Run write(fh) on a uniquely named sibling temp file, created
    exclusively so that no existing file is overwritten, and rename it over
    path; the temp file is removed if anything fails.  A target that exists
    but is not a regular file (a device such as /dev/null, a pipe) cannot
    be replaced by a rename and is written through."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(fh, obj) -> None:
    # the encoder's chunks go out in blocks of 1024: a write per chunk is
    # about 42,500 writes for the monic family at N = 12, and the whole text
    # at once holds every chunk string together (about 2 MB there)
    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=_json_default).iterencode(obj)
    while block := "".join(itertools.islice(chunks, 1024)):
        fh.write(block)
    fh.write("\n")


def json_text(obj) -> str:
    buf = _io.StringIO()
    _write_json(buf, obj)
    return buf.getvalue()


def write_json_atomic(path: str, obj) -> None:
    _write_atomic(path, lambda fh: _write_json(fh, obj))


def _json_default(v):
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, tuple):
        return list(v)
    return str(v)


def _write_csv(fh, header, rows) -> None:
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows)


def csv_text(header, rows) -> str:
    buf = _io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


def write_csv_atomic(path: str, header, rows) -> None:
    _write_atomic(path, lambda fh: _write_csv(fh, header, rows))


# ---------------------------------------------------------------------------
# equation file format (structured key = value text)
# ---------------------------------------------------------------------------

_POLY_KEYS = ("c11", "c22", "a12a", "a12d", "b1", "b2")


def parse_poly_terms(text: str) -> BiPoly:
    """Polynomial as whitespace-separated 'i,j:coeff' items with exact
    fraction coefficients, e.g. '2,0:1/2 0,0:-3'."""
    coeffs = {}
    for item in text.split():
        try:
            mono, val = item.split(":")
            i_s, j_s = mono.split(",")
            key = (int(i_s), int(j_s))
        except ValueError:
            raise EquationParseError(f"bad polynomial term {item!r}") from None
        if key in coeffs:
            raise EquationParseError(f"duplicate exponent pair in {item!r}")
        try:
            coeffs[key] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise EquationParseError(f"bad coefficient in {item!r}") from None
    return BiPoly(coeffs)


def poly_terms_str(p: BiPoly) -> str:
    return " ".join(f"{i},{j}:{_pair_str(n, d)}"
                    for (i, j), n, d in lowest_terms(p.nums, p.den, sorted(p.nums)))


def parse_equation_source(text: str) -> tuple:
    """(equation, preset parameters) from the key-value equation format; the
    parameters are the BigQJacobiParams of a big-q-jacobi preset, or None
    for an equation given by its six polynomials."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise EquationParseError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in fields:
            raise EquationParseError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = val

    if "q" not in fields:
        raise EquationParseError("missing q")
    try:
        qp = QParam(Fraction(fields["q"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise EquationParseError(f"bad q: {exc}") from None

    preset = fields.get("preset")
    if preset is not None:
        if preset != "big-q-jacobi":
            raise EquationParseError(f"unknown preset {preset!r}")
        from .bigqjacobi import BigQJacobiParams, preset_equation

        try:
            params = BigQJacobiParams(*(Fraction(fields[k]) for k in "abcd"), qp)
        except KeyError as exc:
            raise EquationParseError(f"preset needs parameter {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise EquationParseError(str(exc)) from None
        return preset_equation(params), params

    missing = [k for k in _POLY_KEYS if k not in fields]
    if missing:
        raise EquationParseError(f"missing polynomial keys: {', '.join(missing)}")
    polys = {k: parse_poly_terms(fields[k]) for k in _POLY_KEYS}
    return EquationCoeffs(qp, *(polys[k] for k in _POLY_KEYS)), None


def parse_equation_file(path: str) -> tuple:
    """parse_equation_source on the text of an equation file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_equation_source(fh.read())


def equation_to_text(E: EquationCoeffs) -> str:
    lines = [f"q = {frac_str(E.qp.q)}"]
    for key, p in zip(_POLY_KEYS, E.polys()):
        lines.append(f"{key} = {poly_terms_str(p)}")
    return "\n".join(lines) + "\n"
