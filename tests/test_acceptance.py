"""Acceptance gate: one test per criterion, each printing a PASS line with
its tolerance and timing.  Two sub-clauses that are mathematically
unattainable (the Rodrigues outputs have mixed leading forms, so they cannot
be proportional to a single monic entry; and the (1,0) monic limit pair
superconverges) are kept as strict expected failures with the analysis in
their reasons: the assertions are faithful, the failures are real.
"""

import random
import time
from fractions import Fraction

import pytest

from qbipoly.bigqjacobi import (ClassicalParams, TEST_PARAMS, appell_monic,
                                classical_pde_residual, classical_rodrigues,
                                error_ratios, jnm, lambda_explicit, limit_check,
                                monic_hypergeometric, nonmonic_poly)
from qbipoly.bipoly import BiPoly
from qbipoly.equation import apply_operator
from qbipoly.linalg import Mat
from qbipoly.monic import (generalized_inverse_L, generate_monic_oracle, generate_monic_rf,
                           joint_L, operator_blocks, t_matrix_closed_form, ttr_matrices)
from qbipoly.pearson import base_weight, build_pearson, verify_pearson_identities
from qbipoly.qcalc import verify_operator_relations
from qbipoly.rodrigues import rodrigues_poly
from qbipoly.scalars import FloatField
from qbipoly.suites import suite_orthogonality, suite_recurrence
from test_bigqjacobi import closed_form_weight
from test_equation import assert_routes_agree
from test_pearson import pearson_ratios, value_xfirst

F = Fraction
x = BiPoly.x()
y = BiPoly.y()

PEARSON_ANCHOR = (F(3, 7), F(5, 11))


def report(num, name, started, tolerance="exact"):
    print(f"ACCEPTANCE {num} [{name}]: PASS (tolerance {tolerance}, "
          f"{time.time() - started:.1f}s)")


def test_criterion_1_operator_calculus(qp):
    started = time.time()
    rng = random.Random(20240808)
    for trial in range(100):
        f = BiPoly({(rng.randint(0, 4), rng.randint(0, 4)): F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(rng.randint(1, 6))})
        g = BiPoly({(rng.randint(0, 4), rng.randint(0, 4)): F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(rng.randint(1, 6))})
        f = BiPoly({m: c for m, c in f.coeffs.items() if sum(m) <= 4})
        g = BiPoly({m: c for m, c in g.coeffs.items() if sum(m) <= 4})
        rep = verify_operator_relations(qp, f, g)
        assert all(rep.values()), (trial, rep)
    elapsed = time.time() - started
    assert elapsed < 10
    report(1, "operator calculus, 100 seeded random polynomials", started)


def test_criterion_2_coefficient_propagation(equation):
    started = time.time()
    for k in range(7):
        for l in range(7):
            assert_routes_agree(equation, k, l)
    elapsed = time.time() - started
    assert elapsed < 10
    report(2, "closed forms == iterated recurrences, 0 <= k,l <= 6", started)


def test_criterion_3_admissibility_eigenvalues(equation, params, adm):
    started = time.time()
    assert adm.admissible and not adm.failures
    for n in range(11):
        assert adm.eigenvalue(n) == lambda_explicit(params, n)
    assert adm.eigenvalue(1) == F(-479, 480)
    report(3, "admissibility conditions and eigenvalue displays, n <= 10", started)


def test_criterion_4_pearson(equation, params):
    started = time.time()
    rep = verify_pearson_identities(equation, 3, 3)
    assert rep["ok"]

    W = base_weight(equation, PEARSON_ANCHOR)
    for s in range(13):
        for t in range(13 - s):
            assert W.value(s, t) == value_xfirst(W, s, t)

    fld = FloatField(192)
    P = build_pearson(equation)
    q = params.qp.q
    tol = fld.of(F(1, 10 ** 30))
    g1, g2 = pearson_ratios(P, q)
    for pt in ((F(2, 9), F(3, 7)), (F(-1, 8), F(2, 7))):
        w0 = closed_form_weight(params, pt[0], pt[1], fld)
        assert abs(closed_form_weight(params, q * pt[0], pt[1], fld) / w0
                   - fld.of(g1.eval(*pt))) < tol
        assert abs(closed_form_weight(params, pt[0], q * pt[1], fld) / w0
                   - fld.of(g2.eval(*pt))) < tol
    report(4, "Pearson identities k,l <= 3; path independence s+t <= 12; "
              "closed-form ratios", started, "exact / 1e-30 at 192 bits")


def test_criterion_5_eigen_solutions(equation, params, adm, oracle5):
    started = time.time()
    for n in range(6):
        lam = adm.eigenvalue(n)
        for entry in oracle5.vectors[n]:
            assert (apply_operator(equation, entry) + entry * lam).is_zero()
    for n in range(3):
        for m in range(3):
            p = rodrigues_poly(equation, n, m)
            lam = adm.eigenvalue(n + m)
            assert (apply_operator(equation, p) + p * lam).is_zero()
    for n in range(4):
        lam = lambda_explicit(params, n)
        for k in range(n + 1):
            p = nonmonic_poly(params, n, k)
            assert (apply_operator(equation, p) + p * lam).is_zero()
    elapsed = time.time() - started
    assert elapsed < 120
    report(5, "zero residuals: monic n+m<=5, Rodrigues n,m<=2, explicit family n<=3", started)


def test_criterion_6_consistency(equation, params, oracle5):
    started = time.time()
    for total in range(5):
        for m in range(total + 1):
            assert monic_hypergeometric(params, total - m, m) == oracle5.entry(total, m)
    oracle = generate_monic_oracle(equation, 4)
    assert generate_monic_rf(oracle) == oracle.vectors
    for n in range(7):
        assert generalized_inverse_L(n) @ joint_L(n) == Mat.identity(n + 2)
    report(6, "hypergeometric == oracle n+m<=4; recursive formula == oracle "
              "N<=4; left inverse n<=6", started)


@pytest.mark.xfail(strict=True, reason=(
    "the Rodrigues construction's total-degree-(n+m) part carries every "
    "monomial of that degree (verified exactly: its eigenspace coordinates "
    "are all nonzero at the test parameters), so it cannot be proportional "
    "to the single monic entry with leading x^n y^m; it equals an exact "
    "rational combination of the degree-(n+m) monic entries instead"))
def test_criterion_6_rodrigues_proportionality(equation, oracle5):
    for total in range(1, 5):
        for m in range(total + 1):
            n = total - m
            rod = rodrigues_poly(equation, n, m)
            const = rod.coeff(n, m)
            assert const != 0 and rod == oracle5.entry(total, m) * const


def test_criterion_7_paper_formula_crosschecks(equation, params, oracle5):
    started = time.time()
    lam = oracle5.equation.admissibility.eigenvalue
    for n in range(2, 5):
        T = t_matrix_closed_form(equation, n)
        assert T == operator_blocks(equation, n)[2]
        # the resolvent formula for G_{n,n-2}, fed the oracle's G_{n,n-1}
        inner = T + oracle5.block(n, n - 1) @ operator_blocks(equation, n - 1)[1]
        assert inner.scaled(1 / (lam(n - 2) - lam(n))) == oracle5.block(n, n - 2)

    from qbipoly.bigqjacobi import explicit_BC

    _, rows = suite_recurrence(params)
    for case in ("closed_form_S_agreement", "operator_S_agreement"):
        assert [r[1] for r in rows if r[0] == case] == [f"n={n}" for n in range(1, 5)]

    for n in range(1, 5):
        explicit = explicit_BC(params, n)
        for j in (1, 2):
            tb = ttr_matrices(oracle5, n, j)
            assert explicit[f"B{j}"] == tb["B"] and explicit[f"C{j}"] == tb["C"]

    for n in range(5):
        for j, var in ((1, x), (2, y)):
            tb = ttr_matrices(oracle5, n, j)
            lhs = [e * var for e in oracle5.vectors[n]]
            rhs = [a + b for a, b in zip(tb["A"] @ oracle5.vectors[n + 1],
                                         tb["B"] @ oracle5.vectors[n], strict=True)]
            if n >= 1:
                rhs = [a + b for a, b in zip(rhs, tb["C"] @ oracle5.vectors[n - 1], strict=True)]
            assert lhs == rhs
    report(7, "resolvent formula vs oracle n<=4; agreement reports emitted; "
              "recurrence identity n<=4, j=1,2", started)


def test_criterion_8_orthogonality():
    started = time.time()
    ok, rows = suite_orthogonality(TEST_PARAMS, prec=192)
    assert ok, [r for r in rows if r[-1] == "False"]
    pair_rows = [r for r in rows if r[0] == "pair"]
    assert pair_rows and all(r[-1] == "True" for r in pair_rows)
    assert any(r[0] == "H1_nonsingular" and r[-1] == "True" for r in rows)
    assert any(r[0] == "weight_positive" and r[-1] == "True" for r in rows)
    elapsed = time.time() - started
    assert elapsed < 180
    report(8, "pairwise inner products < 1e-25 at 192 bits (exactly 0 for separated pairs); "
              "Gram positivity; H1 nonsingular", started, "1e-25")


def test_criterion_9_limits():
    started = time.time()
    cp = ClassicalParams(1, 1, 1)
    eps_list = [F(1, 1000), F(1, 10000)]
    points = [(F(1, 3), F(1, 2)), (F(-1, 2), F(1, 4)), (F(0), F(2, 3))]
    rows = limit_check(cp, eps_list, [(1, 1), (2, 1)], points)
    for rr in error_ratios([r for r in rows if r["kind"] == "monic"]):
        assert rr["ratio"] is not None and F(1, 20) <= rr["ratio"] <= F(1, 5), rr

    for n in range(4):
        for m in range(n + 1):
            assert classical_pde_residual(cp, jnm(cp, n, m), n).is_zero()
    for total in range(4):
        for m in range(total + 1):
            assert classical_pde_residual(cp, appell_monic(cp, total - m, m), total).is_zero()
            classical_rodrigues(cp, total - m, m)  # raises on nonzero remainder
    report(9, "limit ratios in [0.05, 0.2] for (1,1), (2,1); classical "
              "residuals zero; Rodrigues division exact, n+m<=3", started,
           "ratio window [0.05, 0.2] / exact")


@pytest.mark.xfail(strict=True, reason=(
    "the (1,0) monic pair superconverges at alpha=beta=gamma=delta=1: the "
    "limit entry's only deviation is its constant term q^2/(1+q^2+q^4) = "
    "1/3 - (4/9) eps^2 + O(eps^3), so the error is second order and the "
    "measured ratio ~0.01 sits below the stated first-order window"))
def test_criterion_9_limit_window_includes_10_pair():
    cp = ClassicalParams(1, 1, 1)
    rows = limit_check(cp, [F(1, 1000), F(1, 10000)], [(1, 0)], [(F(1, 3), F(1, 2))])
    for rr in error_ratios([r for r in rows if r["kind"] == "monic"]):
        assert rr["ratio"] is not None and F(1, 20) <= rr["ratio"] <= F(1, 5), rr


@pytest.mark.xfail(strict=True, reason=(
    "the classical Rodrigues output mixes the eigenspace exactly like its "
    "q-analogue (e.g. at (n,m)=(1,0), alpha=beta=gamma=1 it equals "
    "2(y-x) - 2(x+1), carrying x and y), so it is not proportional to the "
    "monic solution with leading x^n y^m; it decomposes exactly in the "
    "degree-(n+m) monic family instead"))
def test_criterion_9_classical_rodrigues_proportionality():
    cp = ClassicalParams(1, 1, 1)
    for total in range(1, 4):
        for m in range(total + 1):
            n = total - m
            rod = classical_rodrigues(cp, n, m)
            const = rod.coeff(n, m)
            assert const != 0 and rod == appell_monic(cp, n, m) * const
