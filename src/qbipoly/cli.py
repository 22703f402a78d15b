"""Command-line front door: check / generate / verify.

Exit codes: 0 all checks pass, 1 a check or tolerance failed (including an
equation that fails a hypothesis its request needs: ``pearson.NEEDS`` maps
each request to them, and the first that fails is the refusal), 2 bad
configuration or parse error (including parameters that put a pole of the
weight in the path of the request, or a q too near 1 for the weight's mass,
``jackson.MAX_STEPS``).  Every failure prints one `error:` line.  Outputs
are deterministic for a fixed configuration (fixed summation orders, sorted
keys) and written atomically.  Each command declares only the options it
reads, but for `verify --truncation`, which nothing reads, and checks them
itself once the equation source has loaded.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import io as qio
from .bigqjacobi import (TEST_PARAMS, BigQJacobiParams, lambda_explicit,
                         monic_hypergeometric, nonmonic_poly, preset_equation)
from .bipoly import BiPoly
from .equation import (EquationCoeffs, NotAdmissibleError, ShapeViolation,
                       apply_operator, check_hypergeometric_form)
from .monic import generate_monic_oracle, ttr_matrices
from .pearson import (DegenerateEquationError, LatticePoleError, base_weight, require,
                      verify_pearson_identities, weight_table_rows)
from .qcalc import QParam, verify_operator_relations
from .rodrigues import rodrigues_poly
from .suites import ORTH_PRECISION, ORTH_TRUNCATION, SUITES, run_suite

MAX_DEGREE_GUARD = 12


class ConfigError(ValueError):
    pass


def _load_equation(args) -> tuple:
    if args.equation and args.preset:
        raise ConfigError("give either --equation or --preset, not both")
    if args.param and not args.preset:
        raise ConfigError("--param sets preset parameters; it needs --preset")
    if args.equation:
        return qio.parse_equation_file(args.equation)
    if args.preset:
        if args.preset != "big-q-jacobi":
            raise ConfigError(f"unknown preset {args.preset!r}")
        params = {"a": TEST_PARAMS.a, "b": TEST_PARAMS.b, "c": TEST_PARAMS.c,
                  "d": TEST_PARAMS.d, "q": TEST_PARAMS.qp.q}
        given = set()
        for item in args.param or []:
            try:
                key, val = item.split("=", 1)
                val = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad --param {item!r}") from None
            if key not in params:
                raise ConfigError(f"unknown parameter {key!r}")
            if key in given:
                raise ConfigError(f"--param {key!r} given twice")
            given.add(key)
            params[key] = val
        p = BigQJacobiParams(params["a"], params["b"], params["c"], params["d"],
                             QParam(params["q"]))
        return preset_equation(p), p
    raise ConfigError("an equation source is required (--equation or --preset)")


def _emit(args, doc, header=None, rows=None):
    """doc as JSON, or header and rows as CSV, to the --out file or stdout."""
    if args.out is not None:
        if args.format == "json":
            qio.write_json_atomic(args.out, doc)
        else:
            qio.write_csv_atomic(args.out, header, rows)
    elif args.format == "json":
        qio.write_json(sys.stdout, doc)
    else:
        qio.write_csv(sys.stdout, header, rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args, E: EquationCoeffs) -> int:
    if not 0 <= args.max_degree <= MAX_DEGREE_GUARD:
        raise ConfigError(f"degree bound must lie in 0..{MAX_DEGREE_GUARD}")
    report = {"hypergeometric_form": check_hypergeometric_form(E)}
    if report["hypergeometric_form"]["ok"]:
        adm = E.admissibility
        report["admissibility"] = {"admissible": adm.admissible, "failures": adm.failures}
        if adm.admissible:
            report["eigenvalues"] = {str(n): qio.frac_str(adm.eigenvalue(n))
                                     for n in range(args.max_degree + 1)}
            fx = BiPoly({(2, 1): Fraction(1), (0, 0): Fraction(3)})
            report["operator_relations"] = verify_operator_relations(E.qp, fx)
            pear = verify_pearson_identities(E, 2, 2)
            report["pearson"] = {name: all(pear[name].values())
                                 for name in ("ratio_left", "ratio_right", "key", "coupling")}
    # the verdict is the report's: no boolean in it reads False
    ok = all(v is not False for entries in report.values() for v in entries.values())
    doc = qio.document("check-report", {"ok": ok, "report": report})
    # one CSV row per leaf of a report section, its value as JSON text
    rows = [(section, key, json.dumps(v)) for section, entries in sorted(report.items())
            for key, v in sorted(entries.items())]
    _emit(args, doc, header=("section", "key", "value"), rows=rows)
    return 0 if ok else 1


#: generate's families, in the order --family lists them: the number of
#: --degrees values each takes, and the refusal of any other number
_ARITY = {
    "monic": (1, "monic generation takes a single degree bound N"),
    "rodrigues": (2, "rodrigues generation takes two degrees: n m"),
    "nonmonic": (2, "nonmonic generation takes two indices"),
    "hypergeometric": (2, "hypergeometric generation takes two indices"),
    "weight": (2, "weight table generation takes two lattice bounds: s_max t_max"),
}


def cmd_generate(args, E: EquationCoeffs, p: BigQJacobiParams | None) -> int:
    family, degrees = args.family, args.degrees
    if args.format == "csv" and family != "weight":
        raise ConfigError(f"the {family} family has no CSV form; use --format json")
    try:
        parts = [int(v) for v in degrees.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bad --degrees {degrees!r}") from None
    if any(d < 0 for d in parts) or sum(parts) > MAX_DEGREE_GUARD:
        raise ConfigError(f"degrees {parts} outside the guardrail 0..{MAX_DEGREE_GUARD}")
    if family in ("nonmonic", "hypergeometric") and p is None:
        raise ConfigError(f"{family} generation requires the big-q-jacobi preset")
    arity, message = _ARITY[family]
    if len(parts) != arity:
        raise ConfigError(message)

    if family == "monic":
        fam = generate_monic_oracle(E, parts[0])
        payload = {"family": "monic", "vectors": fam.vectors,
                   "recurrence_matrices": {f"n={n},axis={j}": ttr_matrices(fam, n, j)
                                           for n in range(parts[0]) for j in (1, 2)}}
        _emit(args, qio.document("polynomials", payload))
        return 0
    if family == "weight":
        require(E, "weight")
        anchor = (p.d * p.qp.q,) * 2 if p is not None else (Fraction(3, 7), Fraction(5, 11))
        rows = weight_table_rows(base_weight(E, anchor), parts[0], parts[1])
        header = ("s", "t", "x", "y", "rho_num", "rho_den")
        doc = qio.document("weight-table", {"anchor": [str(a) for a in anchor],
                                            "rows": [list(r) for r in rows]})
        _emit(args, doc, header=header, rows=rows)
        return 0

    # one polynomial and, where the family has one, its eigenvalue
    n, m = parts
    if family == "rodrigues":
        poly, lam = rodrigues_poly(E, n, m), E.admissibility.eigenvalue(n + m)
    elif family == "nonmonic":
        if m > n:
            raise ConfigError(f"nonmonic generation needs 0 <= k <= n, got n={n}, k={m}")
        poly, lam = nonmonic_poly(p, n, m), lambda_explicit(p, n)
    else:
        poly, lam = monic_hypergeometric(p, n, m), None
    payload = {"family": family, "n": n, "k" if family == "nonmonic" else "m": m,
               "polynomial": poly}
    if lam is not None:
        payload["residual_zero"] = (apply_operator(E, poly) + poly * lam).is_zero()
    _emit(args, qio.document("polynomials", payload))
    return 0 if payload.get("residual_zero", True) else 1


def cmd_verify(args, p: BigQJacobiParams | None) -> int:
    if args.precision < 64:
        raise ConfigError("precision must be at least 64 bits")
    if args.truncation < 16:
        raise ConfigError("truncation must be at least 16")
    suite, kwargs = args.suite, {}
    if suite != "limits":
        if p is None:
            raise ConfigError(f"the {suite} suite runs on the big-q-jacobi preset")
        kwargs = {"p": p}
    if suite == "orthogonality":
        kwargs["prec"] = args.precision
    ok, rows = run_suite(suite, **kwargs)
    header = ("case", "a", "b", "value", "pass")
    doc = qio.document("verify-report", {"suite": suite, "ok": ok,
                                         "rows": [list(r) for r in rows]})
    _emit(args, doc, header=header, rows=rows)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in
    it, so every main() call of a process parses with the same one."""
    ap = argparse.ArgumentParser(prog="qbipoly",
                                 description="bivariate q-orthogonal polynomial toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--equation", help="equation file (key = value format)")
        sp.add_argument("--preset", help="named preset, e.g. big-q-jacobi")
        sp.add_argument("--param", action="append", help="preset parameter, e.g. a=1/3")
        sp.add_argument("--out")
        sp.add_argument("--format", default="json", choices=("json", "csv"))

    sp = sub.add_parser("check", help="form, admissibility, eigenvalues, Pearson identities")
    common(sp)
    sp.add_argument("--max-degree", type=int, default=6)
    sp = sub.add_parser("generate", help="emit a polynomial family as JSON")
    common(sp)
    sp.add_argument("--family", required=True, choices=tuple(_ARITY))
    sp.add_argument("--degrees", required=True, help="N for monic; 'n m' otherwise")
    sp = sub.add_parser("verify", help="run a named verification suite")
    common(sp)
    sp.add_argument("--suite", required=True, choices=SUITES)
    # --precision is read by the orthogonality suite only; both are checked
    # for every suite, and --truncation, kept for the requests that send it,
    # is read by none: the moments are closed forms
    sp.add_argument("--precision", type=int, default=ORTH_PRECISION)
    sp.add_argument("--truncation", type=int, default=ORTH_TRUNCATION,
                    help="accepted and unused: the Jackson moments are closed forms")
    return ap


#: the exit code of each failure main reports in one line, the first match
#: deciding: a failed check is 1, and every other ValueError (a ConfigError,
#: a parse error) is 2
_EXIT_CODES = (((NotAdmissibleError, ShapeViolation, DegenerateEquationError), 1),
               ((ValueError, LatticePoleError, OSError), 2))
_FAILURES = tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds)


def main(argv=None) -> int:
    # exact values of any size: no int <-> str digit cap until main returns
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify" and args.suite == "limits":
            if args.equation or args.preset or args.param:
                raise ConfigError("the limits suite takes no equation source "
                                  "(--equation, --preset or --param)")
            E, p = None, None
        else:
            E, p = _load_equation(args)
        if args.command == "check":
            return cmd_check(args, E)
        if args.command == "generate":
            return cmd_generate(args, E, p)
        return cmd_verify(args, p)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
