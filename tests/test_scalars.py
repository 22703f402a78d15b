import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qbipoly"


def close(field, a, b, tol=None) -> bool:
    """|a - b| <= tol * max(1, |a|, |b|), tol defaulting to the field's
    tail threshold; for float-lane checks only, never identity proofs."""
    tol = field.tail_eps if tol is None else tol
    scale = max(1, abs(a), abs(b))
    return abs(a - b) <= tol * scale

#: ways of setting or bypassing a float precision; only scalars.py may
#: use them, so the precision policy lives in one module
PRECISION_POLICY = re.compile(
    r"workprec|workdps|MPContext|mpmath\.mpf\(|mpmath\.mp\.(prec|dps)\s*=(?!=)")


def test_only_scalars_sets_float_precision():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "scalars.py" in modules
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in modules if path.name != "scalars.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if PRECISION_POLICY.search(line)]
    assert offenders == []


#: the exact layers hold Fractions only: no scalar-backend parameter and no
#: float type reaches them
EXACT_ONLY = ("bipoly.py", "linalg.py", "equation.py", "pearson.py", "rodrigues.py")
NOT_EXACT = re.compile(r"\b(FloatField|mpmath|QQ|field)\b")


def test_exact_layers_name_no_float_or_backend():
    offenders = [f"{name}:{n}: {line.strip()}"
                 for name in EXACT_ONLY
                 for n, line in enumerate((SRC / name).read_text().splitlines(), 1)
                 if NOT_EXACT.search(line)]
    assert offenders == []


#: the sparse rational form (int numerators over one denominator) is
#: computed on in bipoly.py alone: no other module takes a gcd or an lcm, or
#: imports a private helper of bipoly
FORM_ARITHMETIC = {"gcd", "lcm"}


def test_only_bipoly_computes_on_the_rational_form():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "bipoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in FORM_ARITHMETIC
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                offenders.append(f"{path.name}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if node.module == "math" and names & FORM_ARITHMETIC:
                    offenders.append(f"{path.name}:{node.lineno}: from math import")
                if node.level == 1 and node.module == "bipoly" and any(
                        name.startswith("_") for name in names):
                    offenders.append(f"{path.name}:{node.lineno}: private bipoly import")
    assert offenders == []


#: the explicit families are built as series and the Rodrigues route by
#: its recursion, so no module interpolates
INTERPOLATING = set()


def test_no_module_interpolates():
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py")) if path.name not in INTERPOLATING
                 for node in ast.walk(ast.parse(path.read_text()))
                 if (isinstance(node, ast.ImportFrom)
                     and any(alias.name == "interpolate_2d" for alias in node.names))
                 or (isinstance(node, ast.Attribute) and node.attr == "interpolate_2d")]
    assert offenders == []
