"""Golden CLI outputs: the sha256 of stdout for fixed preset runs of every
command, recorded before the x<->y and forward<->backward folds and the
shared monic blocks landed; the monic N = 12 case, the largest exact
output, was recorded before the oracle's chain step became a scalar
division and Mat products began skipping zero entries.  The monic N = 12
cases at q = 2/3 and q = 9/10, where the chain's coefficients are widest,
were recorded before the operator became one pass and the chain ran
fraction-free.  Any change to an exact output, a row of a suite report or
the JSON layout shows here as a digest mismatch.

The orthogonality report's digest was re-recorded when the moment engine
began building each infinite product once per table, again when the Jackson
power sums became exact integer sums rounded once per moment (it then
printed 40 digits, more than its 120-bit precision carries, so its last
digits moved with the order of operations), again when the report began
printing only the 36 digits that 120 bits carry, and again when each
power's inner Jackson sums of all outer nodes came from one packed-integer
correlation (one fixed point per lattice piece instead of one per node
moves a moment by an ulp or so, and 68 of the 167 rows then print other
last digits).  It was re-recorded once more when the weight's node factors
became integer ladders of exact-rational steps and `integrate` began
summing a polynomial over the moments' exact pairs before one rounding:
every row prints other last digits, and the norms, now about 100 times
closer to the same report at 248 bits, move in their last two.  Both it
and the structure digest below were re-recorded when `weight_positive`
became an exact sign decision, which changed that row alone (the least node
weight as a float became "every node weight", "truncation=96", "exact sign").
Its verdicts and labels are pinned separately below.

The consistency report's digest was re-recorded when the monic oracle
stopped applying the operator to its own vectors and the suite took over
that check: five `oracle_eigen_residual_zero` rows (n = 0..4) now open the
report, and every other row is unchanged."""

import hashlib
import json

import pytest

from qbipoly.cli import main

P = ("--preset", "big-q-jacobi")

CASES = {
    "check": (("check", *P),
              "4292cdae99884520d2701f1676326044c48eb3098d9cb45f70d190afe62cae9c"),
    "generate-monic-6": (("generate", *P, "--family", "monic", "--degrees", "6"),
                         "ac9e49b08960c5e02b61453c817906c6030e3a777f175511d277f70c054cbeb2"),
    "generate-monic-12": (("generate", *P, "--family", "monic", "--degrees", "12"),
                          "d993a41f823f8644c86e5806353c6eb2c88eb4ebcc4ba1866c903bc15c38b4b1"),
    "generate-monic-12-q=2/3": (
        ("generate", *P, "--family", "monic", "--degrees", "12", "--param", "q=2/3"),
        "952bee2afa6bc3235056097cc782e7767055dbb355560df763ac92a1ffd2a486"),
    "generate-monic-12-q=9/10": (
        ("generate", *P, "--family", "monic", "--degrees", "12", "--param", "q=9/10"),
        "cb1db62d9b0e3d2e3cbcf29e55d366e30eee78068b45e4b4771378bdeb0c3afc"),
    "generate-rodrigues-2-2": (("generate", *P, "--family", "rodrigues", "--degrees", "2 2"),
                               "3d4e19bf00d7dd3fd3f94c8a489db5d6c2e3a4051e889e487d0fea3955f69683"),
    "generate-nonmonic-3-1": (("generate", *P, "--family", "nonmonic", "--degrees", "3 1"),
                              "9eec6650d9684b527286c23b0ecd3e4ed3396f34fefc9d76a327dfdf89d9130b"),
    "generate-hypergeometric-2-1": (
        ("generate", *P, "--family", "hypergeometric", "--degrees", "2 1"),
        "3d9b7cb83aa02bb90ec97862543c96b8cd6c1ccec959aca620b5743f4a8ae7e6"),
    "generate-weight-3-3-csv": (
        ("generate", *P, "--family", "weight", "--degrees", "3 3", "--format", "csv"),
        "9d373a5f34e40f5b1cc4994160789601acad6fe9d2ba914f55320c8998770927"),
    "verify-consistency": (("verify", *P, "--suite", "consistency"),
                           "a02daadb4ed59c5654630e3c2df963b10d332f86d96d2d82f8d474b3e06412a9"),
    "verify-recurrence": (("verify", *P, "--suite", "recurrence"),
                          "fb18ee41d26ee423b316cf481ee1b58d03d9caa424997048f2d15836d129665d"),
    "verify-limits": (("verify", "--suite", "limits"),
                      "01af939a46be669083a2828b90a8d8e2b23e9a4fc448471edf11d078163ef1e6"),
    "verify-orthogonality-120-96": (
        ("verify", *P, "--suite", "orthogonality", "--precision", "120", "--truncation", "96"),
        "bee67421654d004beb5495cc84bf0a1d6e63e38f1b812d94a18c1c9959c78cd3"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(capsys, name):
    argv, digest = CASES[name]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: sha256 of the orthogonality report's verdicts and labels: the `ok` flag and
#: the case, a, b and pass columns of every row, without the float values.
#: Their last digits move with any reordering of the moment sums; the
#: verdicts and the row layout must not.
ORTHOGONALITY_STRUCTURE = "0da15a36733b74b18bec303b21485729c423b631e19167fa72a0f6509b6bc16a"


def test_orthogonality_report_structure_is_pinned(capsys):
    assert main(list(CASES["verify-orthogonality-120-96"][0])) == 0
    doc = json.loads(capsys.readouterr().out)
    struct = {"ok": doc["ok"], "rows": [[r[0], r[1], r[2], r[4]] for r in doc["rows"]]}
    text = json.dumps(struct, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ORTHOGONALITY_STRUCTURE
