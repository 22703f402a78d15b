"""Output checks, run after the timed region.

Exact payloads are compared with digests recorded at the benchmark's
recording commit: exact rationals are unique, so a correct speed-up cannot
change them.  Suites are judged by exit code, the document's ``ok`` flag and
the pass flag of every gated row, never by digest, so a documented change to
an informational row (the S-matrix erratum, new float digits from another
moment engine) is not a failure.  The constant ``residual_zero`` that
``generate --family rodrigues`` writes is not trusted: the polynomial digest
is what is checked.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: suite -> row cases whose pass column must read "True"; other rows are reports
GATED_ROWS = {
    "orthogonality": ("norm", "pair", "H1_nonsingular", "weight_positive"),
    "consistency": ("hypergeometric_equals_oracle", "rodrigues_in_eigenspace",
                    "recursive_formula_equals_oracle", "generalized_inverse"),
    "recurrence": ("ttr_identity", "second_block_resolvent_matches_oracle"),
    "limits": ("appell_residual_zero", "jnm_residual_zero",
               "classical_rodrigues_zero_remainder", "classical_rodrigues_solves_pde",
               "classical_rodrigues_in_eigenspace"),
}
SUITES = tuple(GATED_ROWS)
WEIGHT_HEADER = ["s", "t", "x", "y", "rho_num", "rho_den"]


def load_digests(path: str = DIGEST_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def exact_payload(kind: str, text: str, fmt: str):
    """The exact part of a generate/check output, or raise ValueError."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if kind != "weight" or not rows or rows[0] != WEIGHT_HEADER:
            raise ValueError("unexpected CSV output")
        return rows[1:]
    doc = json.loads(text)
    if doc.get("schema_version") != 1:
        raise ValueError("missing schema_version 1")
    if kind == "check":
        if doc.get("kind") != "check-report" or doc.get("ok") is not True:
            raise ValueError("check report not ok")
        return doc["report"]["eigenvalues"]
    if doc.get("kind") != "polynomials" or doc.get("family") != kind:
        raise ValueError(f"unexpected document kind {doc.get('kind')!r}")
    if kind == "monic":
        return {"vectors": doc["vectors"], "recurrence_matrices": doc["recurrence_matrices"]}
    return doc["polynomial"]


def suite_problem(suite: str, text: str):
    """None when the suite output passes its gate, else a one-line reason."""
    doc = json.loads(text)
    if doc.get("kind") != "verify-report" or doc.get("suite") != suite:
        return "unexpected document kind"
    if doc.get("ok") is not True:
        return "suite reported ok = false"
    gated = GATED_ROWS[suite]
    seen = set()
    for row in doc["rows"]:
        if row[0] in gated:
            seen.add(row[0])
            if row[-1] != "True":
                return f"gated row failed: {row[:3]}"
    missing = set(gated) - seen
    if suite == "orthogonality":
        # weight_positive is only reported when a positive node weight exists
        missing.discard("weight_positive")
    if missing:
        return f"gated rows missing: {sorted(missing)}"
    return None


def check_output(request, rc, text: str, digests: dict):
    """None when the request's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if request.kind in SUITES:
            return suite_problem(request.kind, text)
        payload = exact_payload(request.kind, text, request.fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    want = digests.get(request.key)
    if want is None:
        return "no recorded digest for this request"
    if digest(payload) != want:
        return "exact payload differs from the recorded digest"
    return None


def coeff_bits_max(request, text: str) -> int:
    """Largest numerator or denominator bit length in an exact output."""
    if request.kind in SUITES:
        return 0
    best = 0
    for token in _scalar_tokens(exact_payload(request.kind, text, request.fmt)):
        for part in token.lstrip("-").split("/"):
            if part.isdigit():
                best = max(best, int(part).bit_length())
    return best


def _scalar_tokens(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for key, v in obj.items():
            if key not in ("i", "j"):
                yield from _scalar_tokens(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _scalar_tokens(v)
