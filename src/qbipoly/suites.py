"""Named verification suites over the big q-Jacobi preset.

Each suite returns (ok, rows): rows are (case, a, b, value, pass) records
for CSV emission (deterministically ordered).  A row gates when its pass
column reads "True" or "False"; a row that reads "info" only reports.  A
suite's ok is that no row reads "False", so a report carries its own
verdict.  The CLI renders them; the acceptance tests assert on them.  A
suite takes only what the CLI varies (the preset point; for orthogonality
the precision): the degrees, steps and points it covers are module
constants.
"""

import itertools
from fractions import Fraction

from .bigqjacobi import (BigQJacobiParams, ClassicalParams, MomentTable,
                         appell_monic, classical_pde_residual,
                         classical_rodrigues_fraction, error_ratios, explicit_BC,
                         hypergeometric_family, jnm, limit_rows, nonmonic_polys,
                         preset_equation)
from .bipoly import BiPoly
from .equation import apply_operator
from .io import frac_str
from .linalg import Mat, mat_diff
from .monic import (generalized_inverse_L, generate_monic_oracle,
                    generate_monic_rf, joint_L, operator_blocks,
                    s_matrix_closed_form, t_matrix_closed_form, ttr_matrices)
# rodrigues_poly: perfbench/test_perfbench.py checks the tracer rebinds this name
from .rodrigues import rodrigues_family, rodrigues_poly  # noqa: F401
from .scalars import float_str

ORTH_TOL = Fraction(1, 10**25)
#: the precision (bits) of the weight's mass and of the printed values, and
#: the --truncation that `verify` accepts and no suite reads, when `verify`
#: is given no --precision or --truncation
ORTH_PRECISION, ORTH_TRUNCATION = 192, 200
LIMIT_RATIO_LO = Fraction(1, 20)
LIMIT_RATIO_HI = Fraction(1, 5)

#: the total degree of the orthogonality inventory and of the consistency
#: families, and the top n of the recurrence identities
ORTH_TOTAL, CONSISTENCY_TOTAL, RECURRENCE_N = 3, 4, 4


def _solution_inventory(p: BigQJacobiParams, fam, max_total: int) -> list:
    """(family, total degree, label, polynomial) for the three families,
    total degree <= max_total; fam is the monic family of the preset
    equation."""
    E = fam.equation
    out = []
    for n in range(max_total + 1):
        for k in range(n + 1):
            out.append(("monic", n, f"monic[{n - k},{k}]", fam.entry(n, k)))
    for (n, m), poly in rodrigues_family(E, max_total).items():
        out.append(("rodrigues", n + m, f"rodrigues[{n},{m}]", poly))
    pairs = [(n, k) for n in range(max_total + 1) for k in range(n + 1)]
    for (n, k), poly in nonmonic_polys(p, pairs).items():
        out.append(("nonmonic", n, f"nonmonic[{n},{k}]", poly))
    return out


def _report(rows):
    """(ok, rows) of a suite: ok is that no row's pass column reads False."""
    return all(row[4] != "False" for row in rows), rows


def _eigenspace_rows(names, label, sol, entries, m):
    """Exact decomposition of a solution in the monic entries of its total
    degree: its top-degree coefficients are its coordinates in them.  The
    first row gates the decomposition; the second reports whether the
    solution is proportional to entry m."""
    total = len(entries) - 1
    coords = [sol.coeff(total - k, k) for k in range(total + 1)]
    recon = sum((entry * ck for entry, ck in zip(entries, coords)), BiPoly.zero())
    proportional = [k for k, ck in enumerate(coords) if ck != 0] == [m]
    return [(names[0], label, " ".join(frac_str(c) for c in coords), "", str(sol == recon)),
            (names[1], label, frac_str(coords[m]) if coords[m] != 0 else "0",
             "proportional" if proportional else "not proportional", "info")]


def suite_orthogonality(p: BigQJacobiParams, prec: int):
    """Pairwise normalized inner products, positive norms, a nonsingular
    H_1 = L(x P_1^T) and positive node weights (`MomentTable`'s Positivity),
    each gate decided on the exact rationals of `MomentTable.gram` (a pair:
    both norms pass and G_ij^2 < tol^2 G_ii G_jj; H_1: |det| > tol (|h00
    h11| + |h01 h10|), which does not scale with the weight's mass, while
    the printed value is det itself).  The weight's mass cancels from every
    gate, so each verdict is the exact functional's, and a pair that it
    separates prints 0.  A value is rounded once, when printed
    (`float_str`; nan where G_ii G_jj <= 0).

    For the scalar-indexed explicit family every distinct index pair must
    vanish.  The monic and Rodrigues solutions are vector families: the
    orthogonality functional separates distinct vector degrees, while
    same-degree products form the (nonsingular, generally non-diagonal)
    Gram blocks H_n; those pairs are reported as Gram entries, not gated.
    """
    # a product of two polynomials of total degree <= ORTH_TOTAL needs no more
    moments = MomentTable(p, max_degree=2 * ORTH_TOTAL, prec=prec)
    fam = generate_monic_oracle(preset_equation(p), ORTH_TOTAL)
    groups = {}
    for family, total, label, poly in _solution_inventory(p, fam, ORTH_TOTAL):
        groups.setdefault(family, []).append((total, label, poly))

    rows, grams = [], {}
    for family, members in groups.items():
        grams[family] = G = moments.gram([poly for _, _, poly in members])
        for i, (_, label, _) in enumerate(members):
            rows.append(("norm", label, "", float_str(G[i][i], prec), str(G[i][i] > 0)))
    tol = ORTH_TOL ** 2
    for family, members in sorted(groups.items()):
        G = grams[family]
        for (i, (ta, la, _)), (j, (tb, lb, _)) in itertools.combinations(enumerate(members), 2):
            gij, gii, gjj = G[i][j], G[i][i], G[j][j]  # num/den = G_ij^2/(G_ii G_jj)
            num = gij.numerator ** 2 * gii.denominator * gjj.denominator
            den = gij.denominator ** 2 * gii.numerator * gjj.numerator
            val = float_str((num, den), prec, root=True) if den > 0 else "nan"
            held = str(gii > 0 < gjj and num * tol.denominator < tol.numerator * den)
            rows.append(("pair", la, lb, val, held) if family == "nonmonic" or ta != tb
                        else ("gram_entry", la, lb, val, "info"))

    # H_1[r][c] = L(x^(1-r) y^r P_1[c]): rows 0-1, columns 2-3
    h1 = [row[2:] for row in moments.gram([BiPoly.x(), BiPoly.y(), *fam.vectors[1]])[:2]]
    diag, anti = h1[0][0] * h1[1][1], h1[0][1] * h1[1][0]
    det = diag - anti
    rows.append(("H1_nonsingular", "det", "", float_str(det, prec),
                 str(abs(det) > ORTH_TOL * (abs(diag) + abs(anti)))))
    rows.append(("weight_positive", "every node weight", "on the domain",
                 "proved", str(moments.weight_positive)))
    return _report(rows)


def suite_consistency(p: BigQJacobiParams):
    """Eigen-equation residuals of the oracle's vectors, which the oracle
    does not check itself, hypergeometric-vs-oracle equality,
    exact eigenspace decomposition of the Rodrigues outputs (proportionality
    measured, not presumed), recursive-formula agreement, generalized
    inverse."""
    E = preset_equation(p)
    fam = generate_monic_oracle(E, CONSISTENCY_TOTAL)
    rows = []
    for n in range(CONSISTENCY_TOTAL + 1):
        lam = E.admissibility.eigenvalue(n)
        zero = all((apply_operator(E, e) + e * lam).is_zero() for e in fam.vectors[n])
        rows.append(("oracle_eigen_residual_zero", f"n={n}", "", "", str(zero)))
    for (n, m), hyp in hypergeometric_family(p, CONSISTENCY_TOTAL).items():
        same = hyp == fam.entry(n + m, m)
        rows.append(("hypergeometric_equals_oracle", f"({n},{m})", "", "0" if same else "nonzero", str(same)))
    for (n, m), rod in rodrigues_family(E, CONSISTENCY_TOTAL).items():
        rows.extend(_eigenspace_rows(
            ("rodrigues_in_eigenspace", "rodrigues_proportional_to_entry"), f"({n},{m})",
            rod, fam.vectors[n + m], m))
    rf = generate_monic_rf(fam)
    differ = next(((n, k) for n, vec in enumerate(fam.vectors) for k in range(n + 1)
                   if rf[n][k] != vec[k]), None)
    rows.append(("recursive_formula_equals_oracle", f"N={CONSISTENCY_TOTAL}", "",
                 "" if differ is None else "degree {}, entry {}".format(*differ),
                 str(differ is None)))
    for n in range(7):
        good = (generalized_inverse_L(n) @ joint_L(n)) == Mat.identity(n + 2)
        rows.append(("generalized_inverse", f"n={n}", "", "", str(good)))
    return _report(rows)


def suite_recurrence(p: BigQJacobiParams):
    """Recurrence identity on oracle families, the closed-form block
    cross-checks, and the explicit preset matrices comparison.  The paper's
    closed-form S_n is off by one index in its subdiagonal (an erratum), so
    its rows report the differing entries and gate nothing."""
    E = preset_equation(p)
    fam = generate_monic_oracle(E, RECURRENCE_N + 1)
    rows = []
    x, y = BiPoly.x(), BiPoly.y()
    ttr = {(n, j): ttr_matrices(fam, n, j) for n in range(RECURRENCE_N + 1) for j in (1, 2)}
    for n in range(RECURRENCE_N + 1):
        for j, var in ((1, x), (2, y)):
            tb = ttr[(n, j)]
            lhs = [e * var for e in fam.vectors[n]]
            rhs = [a + b for a, b in zip(tb["A"] @ fam.vectors[n + 1], tb["B"] @ fam.vectors[n],
                                         strict=True)]
            if n >= 1:
                rhs = [a + b for a, b in zip(rhs, tb["C"] @ fam.vectors[n - 1], strict=True)]
            rows.append(("ttr_identity", f"n={n}", f"axis={j}", "", str(lhs == rhs)))

    # the paper's closed forms against the operator blocks they express:
    # G_{n,n-1} = S_n / (lambda_{n-1} - lambda_n), and G_{n,n-2} differs from
    # the oracle's chain step only in T_n
    lam = E.admissibility.eigenvalue
    blocks = {n: operator_blocks(E, n) for n in range(1, RECURRENCE_N + 1)}
    for n in range(2, RECURRENCE_N + 1):
        same = t_matrix_closed_form(E, n) == blocks[n][2]
        rows.append(("second_block_resolvent_matches_oracle", f"n={n}", "", "", str(same)))
    for n in range(1, RECURRENCE_N + 1):
        S = blocks[n][1]
        diffs = mat_diff(s_matrix_closed_form(E, n), S)
        rows.append(("closed_form_S_agreement", f"n={n}", "",
                     f"{len(diffs)} differing entries", "info"))
        same = S.scaled(1 / (lam(n - 1) - lam(n))) == fam.block(n, n - 1)
        rows.append(("operator_S_agreement", f"n={n}", "", "", str(same)))

    for n in range(1, RECURRENCE_N + 1):
        explicit = explicit_BC(p, n)
        for j in (1, 2):
            tb = ttr[(n, j)]
            for name, ours, theirs in ((f"B{j}", tb["B"], explicit[f"B{j}"]),
                                       (f"C{j}", tb["C"], explicit[f"C{j}"])):
                diffs = mat_diff(theirs, ours)
                rows.append(("explicit_matrix_agreement", f"n={n}", name,
                             f"{len(diffs)} differing entries", str(not diffs)))
    return _report(rows)


def suite_limits():
    """q -> 1 convergence of the monic and Rodrigues pairs, classical
    residuals, and the classical Rodrigues eigenspace decomposition.  Each
    classical Rodrigues polynomial is the exact quotient (`div_exact`) of
    its bracket by the weight, and its zero-remainder row decides
    quotient * weight == bracket."""
    cp = ClassicalParams(1, 1, 1)
    rows = []

    # each classical target once, as (quotient, whether quotient * weight is
    # the bracket), for the q -> 1 table and the rows below
    pairs = [(total - m, m) for total in range(4) for m in range(total + 1)]
    appell = {nm: appell_monic(cp, *nm) for nm in pairs}
    division = {}
    for nm in pairs:
        bracket, weight = classical_rodrigues_fraction(cp, *nm)
        quot = bracket.div_exact(weight)
        division[nm] = quot, quot * weight == bracket
    points = ((Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 4)),
              (Fraction(0), Fraction(2, 3)))
    table = limit_rows(cp, (Fraction(1, 1000), Fraction(1, 10000)),
                       [(nm, appell[nm], division[nm][0]) for nm in ((1, 0), (1, 1), (2, 1))],
                       points)
    for row in table:
        rows.append((f"{row['kind']}_error", f"({row['n']},{row['m']}) {row['eps']}",
                     f"{float(row['point'][0])},{float(row['point'][1])}",
                     float(row["error"]), "info"))
    for rr in error_ratios(table):
        # gate the monic pairs: the error must shrink at least first order
        # (ratio capped at the eps ratio * 2); a ratio below the generic
        # window flags superconvergence (a vanishing first-order error
        # coefficient), which is reported, not failed
        shrinks = rr["ratio"] is not None and rr["ratio"] <= LIMIT_RATIO_HI
        tag = "superconvergent" if (rr["ratio"] is not None and rr["ratio"] < LIMIT_RATIO_LO) else ""
        rows.append((f"{rr['kind']}_ratio",
                     f"({rr['n']},{rr['m']}) {rr['eps_from']}->{rr['eps_to']} {tag}".strip(),
                     f"{float(rr['point'][0])},{float(rr['point'][1])}",
                     float(rr["ratio"]) if rr["ratio"] is not None else "exact-zero",
                     str(shrinks) if rr["kind"] == "monic" else "info"))

    for n, m in pairs:
        ares = classical_pde_residual(cp, appell[(n, m)], n + m).is_zero()
        rows.append(("appell_residual_zero", f"({n},{m})", "", "", str(ares)))
    for n in range(4):
        for m in range(n + 1):
            jres = classical_pde_residual(cp, jnm(cp, n, m), n).is_zero()
            rows.append(("jnm_residual_zero", f"({n},{m})", "", "", str(jres)))
    for n, m in pairs:
        (rod, exact), total = division[n, m], n + m
        rows.append(("classical_rodrigues_zero_remainder", f"({n},{m})", "", "", str(exact)))
        res_zero = classical_pde_residual(cp, rod, total).is_zero()
        rows.append(("classical_rodrigues_solves_pde", f"({n},{m})", "", "", str(res_zero)))
        rows.extend(_eigenspace_rows(
            ("classical_rodrigues_in_eigenspace", "classical_rodrigues_proportional"),
            f"({n},{m})", rod, [appell[(total - k, k)] for k in range(total + 1)], m))
    return _report(rows)


#: the suites, in the order `verify --suite` lists them; suite NAME runs
#: suite_NAME, looked up when it runs, so a wrapper bound on this module
#: over a suite function is what runs
SUITES = ("orthogonality", "consistency", "limits", "recurrence")


def run_suite(name: str, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return globals()[f"suite_{name}"](**kwargs)
