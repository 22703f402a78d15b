"""Serialization (JSON/CSV with exact fractions), the equation file format,
and atomic writes.

Scalars travel as decimal-free numerator/denominator strings.  Every JSON
document carries schema_version.
Files are written to a uniquely named temporary sibling and renamed, so
failures leave neither partial outputs nor temp files.
"""

import csv
import os
from fractions import Fraction
from io import StringIO
from json.encoder import encode_basestring_ascii

from .bipoly import BiPoly, lowest_terms
from .equation import EquationCoeffs
from .linalg import Mat
from .qcalc import QParam

SCHEMA_VERSION = 1


class EquationParseError(ValueError):
    pass


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return _pair_str(v.numerator, v.denominator)


def _pair_str(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def poly_to_json(p: BiPoly) -> list:
    """The view of p that its JSON text shows: one record per term."""
    return [{"i": i, "j": j, "num": str(n), "den": str(d)}
            for (i, j), n, d in lowest_terms(p.nums, p.den, sorted(p.nums))]


def mat_to_json(m: Mat) -> list:
    """The view of m that its JSON text shows: rows of entry strings."""
    return [[_pair_str(n, d) for _, n, d in lowest_terms(nums, den, range(m.ncols))]
            for nums, den in m.forms]


def _list_text(items: list, nl: str) -> str:
    """The JSON text of a list of the given item texts at indent nl."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def _poly_text(p: BiPoly, nl: str) -> str:
    """The JSON text of poly_to_json(p) at indent nl, one f-string per term."""
    inner, key = nl + "  ", nl + "    "
    return _list_text([f'{{{key}"den": "{d}",{key}"i": {i},{key}"j": {j},{key}"num": "{n}"{inner}}}'
                       for (i, j), n, d in lowest_terms(p.nums, p.den, sorted(p.nums))], nl)


def _mat_text(m: Mat, nl: str) -> str:
    """The JSON text of mat_to_json(m) at indent nl, one gcd per nonzero entry."""
    inner, key = nl + "  ", nl + "    "
    rows = []
    for nums, den in m.forms:
        cells = ["0"] * m.ncols
        for c, n, d in lowest_terms(nums, den, nums):
            cells[c] = _pair_str(n, d)
        rows.append(f'[{key}"' + f'",{key}"'.join(cells) + f'"{inner}]' if cells else "[]")
    return _list_text(rows, nl)


def document(kind: str, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def _write_atomic(path: str, write) -> None:
    """Run write(fh) on a uniquely named sibling temp file, created
    exclusively so that no existing file is overwritten, and rename it over
    path; the temp file is removed if anything fails.  A target that exists
    but is not a regular file (a device such as /dev/null, a pipe) cannot
    be replaced by a rename and is written through.  A symbolic link is
    followed: the file it names is replaced and the link stays, and a file
    that is replaced keeps its permission bits.  A failure to create the
    temp file (a missing directory, no write permission) names path, the
    file the caller asked for."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    real = os.path.realpath(path)
    tmp = f"{real}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if os.path.exists(real):
                os.fchmod(fd, os.stat(real).st_mode & 0o7777)
            write(fh)
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


#: characters of JSON text gathered before a write (monic N = 12: 12 writes)
_BLOCK = 1 << 15

#: the text of a leaf, by its exact type.  A float is written by its repr:
#: documents hold no NaN or infinity, since float() of a Fraction too large
#: for a float raises OverflowError instead of returning inf
_ATOMS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
          bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}

#: the text of an exact leaf at its indent by its exact type, no view formed
_FORMS = {BiPoly: _poly_text, Mat: _mat_text}


def _encode(v, nl: str, out, fh) -> None:
    """Write the text json.dumps(indent=2, sort_keys=True) gives v (or its
    view) to the StringIO out, nl the newline and indent of v's line; out
    goes to fh when a container or exact leaf starts with _BLOCK chars in it."""
    atom = _ATOMS.get(type(v))
    if atom is not None:
        out.write(atom(v))
        return
    if out.tell() >= _BLOCK:
        fh.write(out.getvalue())
        out.seek(0)
        out.truncate()
    form = _FORMS.get(type(v))
    if form is not None:
        out.write(form(v, nl))
        return
    if not isinstance(v, (dict, list, tuple)):
        raise TypeError(f"a document holds no {type(v).__name__}")
    if not v:
        out.write("{}" if isinstance(v, dict) else "[]")
        return
    inner = nl + "  "
    comma = "," + inner
    keyed = isinstance(v, dict)
    if keyed:
        sep, closing, seq = "{" + inner, nl + "}", sorted(v)
    else:
        sep, closing, seq = "[" + inner, nl + "]", v
    for x in seq:
        if keyed:
            sep += encode_basestring_ascii(x) + ": "
            x = v[x]
        atom = _ATOMS.get(type(x))
        if atom is not None:
            out.write(sep + atom(x))
        else:
            out.write(sep)
            _encode(x, inner, out, fh)
        sep = comma
    out.write(closing)


def write_json(fh, doc) -> None:
    """Write json.dumps(view, indent=2, sort_keys=True) and a newline to fh in
    blocks of about _BLOCK characters, without the stdlib's pure-Python encoder;
    view is doc with poly_to_json(p) for each BiPoly leaf p and mat_to_json(m)
    for each Mat leaf m.  doc is dicts with str keys, lists and tuples; a leaf not
    exactly a str, int, float, bool, None, BiPoly or Mat is a TypeError."""
    out = StringIO()
    _encode(doc, "\n", out, fh)
    out.write("\n")
    fh.write(out.getvalue())


def write_json_atomic(path: str, doc) -> None:
    _write_atomic(path, lambda fh: write_json(fh, doc))


def write_csv(fh, header, rows) -> None:
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows)


def write_csv_atomic(path: str, header, rows) -> None:
    _write_atomic(path, lambda fh: write_csv(fh, header, rows))


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
        if min(key) < 0:
            raise EquationParseError(f"negative exponent in {item!r}")
        if key in coeffs:
            raise EquationParseError(f"duplicate exponent pair in {item!r}")
        try:
            coeffs[key] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise EquationParseError(f"bad coefficient in {item!r}") from None
    return BiPoly(coeffs)


def _value(fields: dict, lines: dict, k: str) -> Fraction:
    """The value of key k as a fraction; refused with its line and key."""
    try:
        return Fraction(fields[k])
    except (ValueError, ZeroDivisionError):
        raise EquationParseError(f"line {lines[k]}: bad value {fields[k]!r} for {k!r}") from None


def parse_equation_source(text: str) -> tuple:
    """(equation, preset parameters) from the key-value equation format; the
    parameters are the BigQJacobiParams of a big-q-jacobi preset, or None
    for an equation given by its six polynomials.  A key that neither form
    reads is refused, not ignored."""
    fields, lines = {}, {}
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
        fields[key], lines[key] = val, lineno

    if "q" not in fields:
        raise EquationParseError("missing q")
    q = _value(fields, lines, "q")
    try:
        qp = QParam(q)
    except ValueError as exc:
        raise EquationParseError(f"bad q: {exc}") from None

    preset = fields.get("preset")
    if preset is not None and preset != "big-q-jacobi":
        raise EquationParseError(f"unknown preset {preset!r}")
    kind, keys = ("preset", "abcd") if preset else ("six-polynomial", _POLY_KEYS)
    for key in fields:
        if key not in ("q", "preset", *keys):
            raise EquationParseError(f"line {lines[key]}: {key!r} is not a key of a {kind} file")
    if preset is not None:
        from .bigqjacobi import BigQJacobiParams, preset_equation

        values = []
        for k in "abcd":
            if k not in fields:
                raise EquationParseError(f"preset needs parameter {k!r}")
            values.append(_value(fields, lines, k))
        try:
            params = BigQJacobiParams(*values, qp)
        except ValueError as exc:
            raise EquationParseError(str(exc)) from None
        return preset_equation(params), params

    missing = [k for k in _POLY_KEYS if k not in fields]
    if missing:
        raise EquationParseError(f"missing polynomial keys: {', '.join(missing)}")
    polys = []
    for k in _POLY_KEYS:
        try:
            polys.append(parse_poly_terms(fields[k]))
        except EquationParseError as exc:
            raise EquationParseError(f"line {lines[k]}: {exc} for {k!r}") from None
    return EquationCoeffs(qp, *polys), None


def parse_equation_file(path: str) -> tuple:
    """parse_equation_source on the text of an equation file, which must be
    UTF-8; a leading byte-order mark is dropped after decoding, so a bad
    byte's offset counts it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EquationParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_equation_source(text.removeprefix("\ufeff"))
