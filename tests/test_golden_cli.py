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

The orthogonality report's digest was re-recorded again when the moment
table began returning exact rationals and the suite began deciding its
gates on them and rounding each printed value once, at the report's
precision, from its exact rational (a normalized pair value from the exact
root of G_ij^2 / (G_ii G_jj)) instead of through a chain of mpf operations:
30 of the 167 rows (3 norms, 22 pairs and 5 Gram entries) print other last
digits, and the verdicts and labels are unchanged.

It was re-recorded once more when each inner x-integral of the moment
table became a closed form (the big q-Jacobi q-beta integral) and the
truncation began counting outer nodes only: the inner sums lost their
tail of about q^96, so 165 of the 167 rows print other last digits (the
norms from about their 29th significant digit on), and the verdicts and
labels are unchanged.

It was re-recorded again when the weight's Pochhammer ladders began
starting from Euler's series at a switch index instead of from exact
steps out to a far cut: 116 of the 167 rows print other last digits (the
normalized values by at most 6e-38), and the verdicts and labels are
unchanged.

It was re-recorded once more, with the structure digest below, when the
outer Jackson integral became its closed form (exact moment ratios times
one mass, nothing truncated): every one of the 167 rows prints another
value.  The 115 pair rows print exactly 0, the functional's own value;
the 30 norms, 20 Gram entries and det H_1 move from about their 29th
significant digit on (the truncation tail q^96); and the weight_positive
row, whose columns read "truncation=96" and "exact sign", now reads "on
the domain" and "proved".  Every verdict and every other label is
unchanged: the structure digest is the earlier one with that one column
replaced.

The consistency report's digest was re-recorded when the monic oracle
stopped applying the operator to its own vectors and the suite took over
that check: five `oracle_eigen_residual_zero` rows (n = 0..4) now open the
report, and every other row is unchanged.

The consistency, recurrence and limits digests were re-recorded when a
report's verdict became its rows (a suite is ok when no row's pass column
reads False).  Rows that only report now read `info`: the Rodrigues and
classical Rodrigues proportionality rows (their `measured` became
`proportional` or `not proportional`), the closed-form S_n erratum rows and
every q -> 1 error row and Rodrigues ratio row.  The limits `error` and
`ratio` rows, which had 6 fields, became 5-field `monic_error`,
`rodrigues_error`, `monic_ratio` and `rodrigues_ratio` rows, and the monic
ratio rows carry the verdict that gates the suite.  No suite's ok moved,
and the orthogonality and check digests are unchanged.

The `check` CSV document at the preset and the `check` JSON document at
q = 9/10 were recorded before the q-Pearson rows became polynomial
identities on four shared products per order.  The Rodrigues documents at
q = 9/10 and q = 2/3 and the weight CSV at q = 9/10 were recorded before the
Rodrigues lattice began running on integer pairs.

The `check` documents of the structured sources in tests/strategies.py,
where a key or ratio row reads false, were recorded before every order's
Pearson data became closed-form shifts of the order-(0,0) data."""

import hashlib
import json

import pytest

from qbipoly.cli import main
import strategies

P = ("--preset", "big-q-jacobi")

CASES = {
    "check": (("check", *P),
              "4292cdae99884520d2701f1676326044c48eb3098d9cb45f70d190afe62cae9c"),
    "check-csv": (("check", *P, "--format", "csv"),
                  "28e805fe7b54809e9b27af3506bf759eb777a7cb16ea59d8403a41af796392f0"),
    "check-q=9/10": (("check", *P, "--param", "q=9/10"),
                     "469733af6bd474200bca0b5d5283a0a9436f4b9f98f92db542fbfe2ee769c3cc"),
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
    "generate-rodrigues-4-4-q=9/10": (
        ("generate", *P, "--family", "rodrigues", "--degrees", "4 4", "--param", "q=9/10"),
        "3b7e6428d0e9c70e5d9e3fba5c90a4cbd5020c991e886ab03989a9fa9b436bb7"),
    "generate-rodrigues-8-0-q=2/3": (
        ("generate", *P, "--family", "rodrigues", "--degrees", "8 0", "--param", "q=2/3"),
        "edd418a363ae3b037448b258b860f8ff203917083a9346cfa4f9b87961e98b83"),
    "generate-weight-5-5-csv-q=9/10": (
        ("generate", *P, "--family", "weight", "--degrees", "5 5", "--format", "csv",
         "--param", "q=9/10"),
        "ed55c1b94ec6b93fb87fa68488493f8ee24c1f186e6e740b21c6591a4dc866b2"),
    "verify-consistency": (("verify", *P, "--suite", "consistency"),
                           "3d6643cd06da81ba052095f6b7602fb3a5a5938e78e90c969af7f91abd707e48"),
    "verify-recurrence": (("verify", *P, "--suite", "recurrence"),
                          "1fd06721e5623da9c67d1d47bc1367e3308b8a929c42d0515178edb35d4c54a5"),
    "verify-limits": (("verify", "--suite", "limits"),
                      "070f779088c59dc2999389da1d353ce47afee39778046c8bfb0c240c6e84abeb"),
    "verify-orthogonality-120-96": (
        ("verify", *P, "--suite", "orthogonality", "--precision", "120", "--truncation", "96"),
        "e734208f4fc9b2eaf91765d648d4e1d4a297f7ac87a897101ab1ec1c9884b3b2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(capsys, name):
    argv, digest = CASES[name]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: sha256 over the exit code and stdout of the monic N = 12, recurrence and
#: consistency requests, at q = 99/100 and then at d = -1000: the recurrence
#: matrices and the recursive generator on the widest integers the preset
#: reaches.  Recorded before the monic family began keeping its blocks as the
#: chain's integer levels.
WIDE_MONIC_DIGEST = "4cd5eef3dc27a1fc34aefc3acff0a78fbeaaffefb22e29f13185e2fb7912122b"


def test_monic_layer_at_wide_points_matches_golden_digest(capsys):
    digest = hashlib.sha256()
    for param in ("q=99/100", "d=-1000"):
        for request in (("generate", "--family", "monic", "--degrees", "12"),
                        ("verify", "--suite", "recurrence"), ("verify", "--suite", "consistency")):
            code = main([*request, *P, "--param", param])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == WIDE_MONIC_DIGEST


#: sha256 of the orthogonality report's verdicts and labels: the `ok` flag and
#: the case, a, b and pass columns of every row, without the float values.
#: Their last digits move with any reordering of the moment sums; the
#: verdicts and the row layout must not.
ORTHOGONALITY_STRUCTURE = "c27b476a4b2d43d49175d26c30f7420d28125fd097cc6d58affd3dbc389f61c9"


def structure_digest(out: str) -> str:
    doc = json.loads(out)
    struct = {"ok": doc["ok"], "rows": [[r[0], r[1], r[2], r[4]] for r in doc["rows"]]}
    text = json.dumps(struct, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_orthogonality_report_structure_is_pinned(capsys):
    assert main(list(CASES["verify-orthogonality-120-96"][0])) == 0
    assert structure_digest(capsys.readouterr().out) == ORTHOGONALITY_STRUCTURE


#: "a b c d precision" of the 54 points that the benchmark's orthogonality
#: workload draws at q = 1/2 (perfbench/workloads.py), each sent with
#: --truncation 96.  Before the outer integral had a closed form every one
#: exited 0 with the same verdicts and labels as the preset's report.
BENCHMARK_CANDIDATES = (
    "1 6/11 5/11 -1 120", "4/3 1 1/3 -10/9 120", "13/7 10/9 17/9 -12/11 120",
    "15/11 5/13 5/3 -13/11 120", "1 17/9 8/5 -1 120", "17/11 10/7 2/7 -16/9 120",
    "16/11 4/3 8/11 -1/9 128", "4/9 4/13 5/3 -14/9 128", "20/13 5/11 2/7 -12/7 128",
    "8/7 1 1/13 -3/13 128", "3/5 1/3 2/3 -1 128", "18/11 2/5 10/9 -2/11 128",
    "10/11 2/5 23/13 -20/13 136", "1/9 15/13 8/13 -2/9 136", "14/11 9/5 4/3 -4/9 136",
    "13/7 13/9 17/13 -15/11 136", "6/5 6/5 5/3 -18/11 136", "14/9 4/3 11/7 -14/9 136",
    "3/11 14/13 4/3 -15/11 120", "19/13 15/13 17/11 -4/9 120", "2/7 4/5 1/3 -5/3 120",
    "15/11 16/11 11/7 -4/3 120", "1/3 3/13 4/9 -6/13 120", "10/11 2/7 3/5 -4/3 120",
    "6/5 19/11 5/11 -10/13 128", "2/7 1 9/5 -10/7 128", "5/7 1/5 6/5 -17/13 128",
    "5/11 17/9 8/13 -3/5 128", "21/11 4/7 1/3 -2/3 128", "3/5 1 4/5 -2/5 128",
    "4/3 5/7 2/3 -9/5 136", "13/9 23/13 4/7 -7/5 136", "4/9 2/13 18/13 -4/3 136",
    "1/3 12/7 1/3 -13/7 136", "2/11 4/5 5/3 -3/7 136", "1 8/9 3/7 -2/5 136",
    "10/7 4/3 2/3 -3/5 120", "4/7 4/5 12/7 -4/13 120", "4/5 1/11 17/11 -2/3 120",
    "14/9 7/13 1/3 -11/7 120", "5/11 5/9 1/3 -1 120", "1 2/11 8/5 -3/13 120",
    "2/3 1/3 22/13 -14/9 128", "4/5 1/5 9/5 -16/11 128", "2/5 2/3 14/9 -5/3 128",
    "10/7 21/11 23/13 -15/11 128", "5/9 1 6/7 -6/7 128", "7/9 12/7 8/13 -19/11 128",
    "5/13 13/9 11/9 -8/5 136", "2/3 1/3 1/3 -3/11 136", "8/5 25/13 4/7 -2/3 136",
    "16/11 18/13 16/13 -1 136", "4/3 8/5 8/9 -6/7 136", "1 16/11 4/7 -2/3 136",
)


def test_orthogonality_verdicts_are_pinned_at_the_benchmark_candidates(capsys):
    """At each candidate the request exits 0 and its verdicts and labels
    (the ok flag and every row's case, a, b and pass) are the structure
    pinned above, as they were when each moment was a truncated sum."""
    for line in BENCHMARK_CANDIDATES:
        *point, precision = line.split()
        params = [f"--param={name}={v}" for name, v in zip("abcd", point)]
        assert main(["verify", "--suite", "orthogonality", *P, *params,
                     "--precision", precision, "--truncation", "96"]) == 0, line
        assert structure_digest(capsys.readouterr().out) == ORTHOGONALITY_STRUCTURE, line


def _bool_leaves(obj):
    if isinstance(obj, bool):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _bool_leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _bool_leaves(v)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n == "check" or n.startswith("verify")))
def test_document_shows_its_own_verdict(capsys, name):
    """From stdout alone: every verify row has the header's five fields and
    a pass column of True, False or info, and ok is that no row reads
    False; check's ok is that no boolean in its report is False."""
    assert main(list(CASES[name][0])) == 0
    doc = json.loads(capsys.readouterr().out)
    if name == "check":
        assert doc["ok"] is all(leaf is not False for leaf in _bool_leaves(doc["report"]))
        return
    assert all(len(row) == 5 and row[4] in ("True", "False", "info") for row in doc["rows"])
    assert doc["ok"] is all(row[4] != "False" for row in doc["rows"])


#: {source in tests/strategies.py: (exit code, sha256 of the check JSON
#: stdout, sha256 of the check CSV stdout)}; on each a key or ratio row of
#: the Pearson report reads false
FAILING_CHECKS = {
    "CONSTANT_WEIGHT_TEXT": (
        1, "a55018d2491198174295ca2eb73c57c6201e69d03356aab5f6c799b4037fd488",
        "15f57a9296d5a080b7a66fe032643ce4bd96e455d4f19259bcae3d4821de7ed7"),
    "CONSTANT_WEIGHT_FAMILY_TEXT": (
        1, "f5fd0097bbc8b7680e558bd6944405f9fc198f285e777b02334f20e4a694928c",
        "5b7f969f3daf9f94d798aa1ccd6530f3312a9499c7043bff589822832e5eee6a"),
    "INCOMPATIBLE_PEARSON_TEXT": (
        1, "f352c03b29fab3287c146e72505db331e700862d2ee351f4336226a82c313b54",
        "5e8b551e0d431ef1a9406592ac24ed4bc93dee8aef209ae7b805c29e5ce770ea"),
    "OMEGA2_X_TEXT": (
        1, "e76609b5bf8712e5aae05f74d994a2c4facd7bf97ccc6c4e29488c6e0fa18526",
        "23bf6b44b9f5615c4cf2b606ba9015780e312dde64cb2ecca6718ec04474b971"),
    "PHI1_ABOVE_OMEGA1_TEXT": (
        1, "1658fc2b6b3241b15e8414e397702cdca675084933955e65545a57966a6e268a",
        "2b38465ba5818eb32506facb95bbd95074fc0816f7bc516e899400c611305a3a"),
    "PHI1_ZERO_TEXT": (
        1, "4774b386b132e42a542ae75e7a968cd1437658874c892aaf1056c21a8afc89a6",
        "c49b7e718e0de9aa91059e2784681b3c74484be0cda4471331acb64d5628279a"),
}


@pytest.mark.parametrize("name", sorted(FAILING_CHECKS))
def test_check_output_with_failing_rows_matches_golden_digest(capsys, tmp_path, name):
    path = tmp_path / "equation.txt"
    path.write_text(getattr(strategies, name))
    code, *digests = FAILING_CHECKS[name]
    for fmt, digest in zip(("json", "csv"), digests):
        assert main(["check", "--equation", str(path), "--format", fmt]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt
