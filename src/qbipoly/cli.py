"""Command-line front door: check / generate / verify.

Exit codes: 0 all checks pass, 1 a check or tolerance failed, 2 bad
configuration or parse error.  Outputs are deterministic for a fixed
configuration (fixed summation orders, sorted keys, seeded randomness) and
written atomically.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import io as qio
from .bigqjacobi import (BigQJacobiParams, lambda_explicit, nonmonic_poly,
                         preset_equation)
from .bipoly import BiPoly
from .equation import EquationCoeffs, admissibility, check_hypergeometric_form
from .io import EquationParseError
from .monic import OracleError, generate_monic_oracle
from .pearson import verify_pearson_identities
from .qcalc import QParam, verify_operator_relations
from .rodrigues import RodriguesError, RodriguesSpec, rodrigues_poly
from .scalars import QQ
from .suites import run_suite

MAX_DEGREE_GUARD = 12


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    equation: EquationCoeffs
    preset: BigQJacobiParams | None
    backend: str = "exact"
    precision: int = 192
    truncation: int = 200
    max_degree: int = 6
    out: str | None = None
    fmt: str = "json"
    seed: int = 0

    def __post_init__(self):
        if self.precision < 64:
            raise ConfigError("precision must be at least 64 bits")
        if self.truncation < 16:
            raise ConfigError("truncation must be at least 16")
        if not 0 <= self.max_degree <= MAX_DEGREE_GUARD:
            raise ConfigError(f"degree bound must lie in 0..{MAX_DEGREE_GUARD}")
        if self.backend not in ("exact", "float"):
            raise ConfigError("backend must be 'exact' or 'float'")
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")


def _load_equation(args) -> tuple:
    if args.equation and args.preset:
        raise ConfigError("give either --equation or --preset, not both")
    if args.equation:
        return qio.parse_equation_file(args.equation), None
    if args.preset:
        if args.preset != "big-q-jacobi":
            raise ConfigError(f"unknown preset {args.preset!r}")
        params = {"a": Fraction(1, 3), "b": Fraction(1, 4), "c": Fraction(1, 5),
                  "d": Fraction(-1, 2), "q": Fraction(1, 2)}
        for item in args.param or []:
            try:
                key, val = item.split("=", 1)
                if key not in params:
                    raise ConfigError(f"unknown parameter {key!r}")
                params[key] = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad --param {item!r}") from None
        try:
            p = BigQJacobiParams(params["a"], params["b"], params["c"], params["d"],
                                 QParam(params["q"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return preset_equation(p), p
    raise ConfigError("an equation source is required (--equation or --preset)")


def _emit(cfg: RunConfig, obj_json, header=None, rows=None):
    if cfg.out is None:
        if cfg.fmt == "json":
            print(_json_text(obj_json), end="")
        else:
            print(qio.csv_text(header, rows), end="")
        return
    if cfg.fmt == "json":
        qio.write_json_atomic(cfg.out, obj_json)
    else:
        qio.write_csv_atomic(cfg.out, header, rows)


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True, default=qio._json_default) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig) -> int:
    E = cfg.equation
    report = {"hypergeometric_form": check_hypergeometric_form(E)}
    ok = report["hypergeometric_form"]["ok"]
    adm = None
    if ok:
        adm = admissibility(E)
        report["admissibility"] = {"admissible": adm.admissible, "failures": adm.failures}
        ok = ok and adm.admissible
    if ok:
        report["eigenvalues"] = {str(n): qio.frac_str(adm.eigenvalue(n))
                                 for n in range(cfg.max_degree + 1)}
        fx = BiPoly({(2, 1): Fraction(1), (0, 0): Fraction(3)}, QQ)
        report["operator_relations"] = verify_operator_relations(E.qp, fx)
        ok = ok and all(report["operator_relations"].values())
        pear = verify_pearson_identities(E, 2, 2)
        report["pearson"] = {
            "ratio_left": all(pear["ratio_left"].values()),
            "ratio_right": all(pear["ratio_right"].values()),
            "key": all(pear["key"].values()),
            "coupling": all(pear["coupling"].values()),
        }
        ok = ok and pear["ok"]
    doc = qio.document("check-report", {"ok": ok, "report": report})
    rows = [(k, str(v)) for k, v in sorted(report.items())]
    _emit(cfg, doc, header=("check", "result"), rows=rows)
    return 0 if ok else 1


def cmd_generate(cfg: RunConfig, family: str, degrees: str) -> int:
    E = cfg.equation
    try:
        parts = [int(v) for v in degrees.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bad --degrees {degrees!r}") from None
    if any(d < 0 for d in parts) or sum(parts) > MAX_DEGREE_GUARD:
        raise ConfigError(f"degrees {parts} outside the guardrail 0..{MAX_DEGREE_GUARD}")

    if family == "monic":
        if len(parts) != 1:
            raise ConfigError("monic generation takes a single degree bound N")
        from .monic import ttr_matrices

        fam = generate_monic_oracle(E, parts[0], extra_blocks=1)
        recurrence = {}
        for n in range(parts[0]):
            for j in (1, 2):
                tb = ttr_matrices(fam, n, j)
                recurrence[f"n={n},axis={j}"] = {
                    "A": qio.mat_to_json(tb["A"]),
                    "B": qio.mat_to_json(tb["B"]),
                    "C": qio.mat_to_json(tb["C"]) if tb["C"] is not None else None,
                }
        payload = {"family": "monic",
                   "vectors": [qio.polyvec_to_json(v) for v in fam.vectors],
                   "recurrence_matrices": recurrence}
        doc = qio.document("polynomials", payload)
        _emit(cfg, doc)
        return 0
    if family == "rodrigues":
        if len(parts) != 2:
            raise ConfigError("rodrigues generation takes two degrees: n m")
        poly = rodrigues_poly(RodriguesSpec(E, parts[0], parts[1]))
        doc = qio.document("polynomials", {
            "family": "rodrigues", "n": parts[0], "m": parts[1],
            "polynomial": qio.poly_to_json(poly),
            "residual_zero": True,  # rodrigues_poly verifies the eigen-equation
        })
        _emit(cfg, doc)
        return 0
    if family == "weight":
        if len(parts) != 2:
            raise ConfigError("weight table generation takes two lattice bounds: s_max t_max")
        from .pearson import base_weight, weight_table_rows

        if cfg.preset is not None:
            q = cfg.preset.qp.q
            anchor = (cfg.preset.d * q, cfg.preset.d * q)
        else:
            anchor = (Fraction(3, 7), Fraction(5, 11))
        rows = weight_table_rows(base_weight(E, anchor), parts[0], parts[1])
        header = ("s", "t", "x", "y", "rho_num", "rho_den")
        doc = qio.document("weight-table", {"anchor": [str(a) for a in anchor],
                                            "rows": [list(r) for r in rows]})
        _emit(cfg, doc, header=header, rows=rows)
        return 0
    if family in ("nonmonic", "hypergeometric"):
        if cfg.preset is None:
            raise ConfigError(f"{family} generation requires the big-q-jacobi preset")
        if len(parts) != 2:
            raise ConfigError(f"{family} generation takes two indices")
        if family == "nonmonic":
            n, k = parts
            poly = nonmonic_poly(cfg.preset, n, k)
            lam = lambda_explicit(cfg.preset, n)
            from .equation import apply_operator

            residual = apply_operator(E, poly) + poly * lam
            doc = qio.document("polynomials", {
                "family": "nonmonic", "n": n, "k": k,
                "polynomial": qio.poly_to_json(poly),
                "residual_zero": residual.is_zero(),
            })
            _emit(cfg, doc)
            return 0 if residual.is_zero() else 1
        from .bigqjacobi import monic_hypergeometric

        n, m = parts
        poly = monic_hypergeometric(cfg.preset, n, m)
        doc = qio.document("polynomials", {
            "family": "hypergeometric", "n": n, "m": m,
            "polynomial": qio.poly_to_json(poly),
        })
        _emit(cfg, doc)
        return 0
    raise ConfigError(f"unknown family {family!r}")


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    kwargs = {}
    if suite == "orthogonality":
        if cfg.preset is None:
            raise ConfigError("the orthogonality suite runs on the big-q-jacobi preset")
        c, q = cfg.preset.c, cfg.preset.qp.q
        while c < 1:
            c /= q
        if c == 1:
            # (x/(cy); q)_inf then vanishes on the weight's lattice
            raise ConfigError(f"the orthogonality weight needs c != q^k (k >= 0), "
                              f"got c={cfg.preset.c}, q={q}")
        kwargs = {"p": cfg.preset, "truncation": cfg.truncation, "prec": cfg.precision}
    elif suite in ("consistency", "recurrence"):
        if cfg.preset is None:
            raise ConfigError(f"the {suite} suite runs on the big-q-jacobi preset")
        kwargs = {"p": cfg.preset}
    try:
        ok, rows, details = run_suite(suite, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    header = ("case", "a", "b", "value", "pass")
    doc = qio.document("verify-report", {"suite": suite, "ok": ok,
                                         "rows": [list(r) for r in rows]})
    _emit(cfg, doc, header=header, rows=rows)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qbipoly",
                                 description="bivariate q-orthogonal polynomial toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--equation", help="equation file (key = value format)")
        sp.add_argument("--preset", help="named preset, e.g. big-q-jacobi")
        sp.add_argument("--param", action="append", help="preset parameter, e.g. a=1/3")
        sp.add_argument("--backend", default="exact", choices=("exact", "float"))
        sp.add_argument("--precision", type=int, default=192)
        sp.add_argument("--truncation", type=int, default=200)
        sp.add_argument("--max-degree", type=int, default=6)
        sp.add_argument("--out")
        sp.add_argument("--format", default="json", choices=("json", "csv"))
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("check", help="form, admissibility, eigenvalues, Pearson identities")
    common(sp)
    sp = sub.add_parser("generate", help="emit a polynomial family as JSON")
    common(sp)
    sp.add_argument("--family", required=True,
                    choices=("monic", "rodrigues", "nonmonic", "hypergeometric", "weight"))
    sp.add_argument("--degrees", required=True, help="N for monic; 'n m' otherwise")
    sp = sub.add_parser("verify", help="run a named verification suite")
    common(sp)
    sp.add_argument("--suite", required=True,
                    choices=("orthogonality", "consistency", "limits", "recurrence"))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    random.seed(args.seed)
    try:
        if args.command == "verify" and args.suite == "limits":
            equation, preset = None, None
        else:
            equation, preset = _load_equation(args)
        cfg = RunConfig(equation=equation, preset=preset, backend=args.backend,
                        precision=args.precision, truncation=args.truncation,
                        max_degree=args.max_degree, out=args.out, fmt=args.format,
                        seed=args.seed)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "generate":
            return cmd_generate(cfg, args.family, args.degrees)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, EquationParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleError, RodriguesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
