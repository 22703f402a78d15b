import functools
import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qbipoly.bigqjacobi import (TEST_PARAMS, BigQJacobiParams, ClassicalParams,
                                MomentTable, _jacobi_ratios,
                                appell_monic, check_weight_params, preset_equation,
                                classical_pde_residual, classical_rodrigues,
                                classical_rodrigues_fraction,
                                error_ratios, explicit_BC, hypergeometric_family, jnm,
                                lambda_explicit, limit_check, limit_params,
                                monic_hypergeometric, nonmonic_poly, nonmonic_polys)
import qbipoly.bigqjacobi as bigqjacobi
from qbipoly.bipoly import BiPoly
from qbipoly.equation import EquationCoeffs, apply_operator
from qbipoly.jackson import MAX_STEPS, _ladder
from qbipoly.linalg import Mat
from qbipoly.monic import (generate_monic_oracle, generate_monic_rf, s_matrix_closed_form,
                           ttr_matrices)
from qbipoly.qcalc import (QParam, gauss_2f1_terminating, kampe_de_feriet,
                           phi_bivariate, phi_rs, qpochhammer, qpochhammer_inf)
from qbipoly.rodrigues import rodrigues_family, rodrigues_poly
from qbipoly.scalars import FloatField
from qbipoly.suites import run_suite
from monic_references import reference_classical_residual, reference_explicit_BC
from strategies import replace
from test_linalg import tensor_vandermonde_interpolate

F = Fraction
x = BiPoly.x()
y = BiPoly.y()


def test_parameter_validation(qp):
    with pytest.raises(ValueError):
        BigQJacobiParams(F(3), F(1, 4), F(1, 5), F(-1, 2), qp)  # aq >= 1
    with pytest.raises(ValueError):
        BigQJacobiParams(F(1, 3), F(1, 4), F(1, 5), F(1, 2), qp)  # d > 0


def test_preset_is_admissible_with_explicit_eigenvalues(params, equation, adm):
    assert adm.admissible
    for n in range(11):
        assert adm.eigenvalue(n) == lambda_explicit(params, n)
    assert lambda_explicit(params, 1) == F(-479, 480)


def test_cross_coefficient_consistency(params, equation):
    a1 = equation.sigma1()[0]
    f1 = equation.tau1()[0]
    q = params.qp.q
    abcq4 = params.a * params.b * params.c * q ** 4
    assert equation.cross_a()[0] == abcq4 == a1 * q + f1 * (q - 1)


# non-monic family ----------------------------------------------------------------

Q23 = BigQJacobiParams(F(1, 2), F(2, 3), F(3, 7), F(-1, 3), QParam(F(2, 3)))


def univariate_value(m: int, t, A, B, C, qp: QParam):
    """Univariate big q-Jacobi value P_m(t; A, B; C; q) via 3-phi-2."""
    q = qp.q
    return phi_rs([q**-m, A * B * q ** (m + 1), t], [A * q, C * q], qp, q)


def nonmonic_value(p: BigQJacobiParams, n: int, k: int, xv, yv):
    """Pointwise reference for P_{n,k}(x, y): the product of two scalar
    3-phi-2 values and the bridge, as written in the paper."""
    q = p.qp.q
    a, b, c, d = p.a, p.b, p.c, p.d
    f1 = univariate_value(n - k, yv, a, b * c * q ** (2 * k + 1), d * q**k, p.qp)
    bridge = F(1)
    for j in range(k):
        bridge *= yv - d * q ** (1 + j)
    f2 = univariate_value(k, xv / yv, c, b, d / yv, p.qp)
    return f1 * bridge * f2


def test_nonmonic_trivial(params):
    assert nonmonic_poly(params, 0, 0) == BiPoly.const(1)


def test_nonmonic_10_is_univariate_in_y(params):
    p = nonmonic_poly(params, 1, 0)
    assert p.degree_x() <= 0
    assert p.swap().degree_x() == 1
    # matches the direct series value at a sample point
    assert p.eval(F(1, 2), F(2, 3)) == nonmonic_value(params, 1, 0, F(1, 2), F(2, 3))


def test_nonmonic_total_degree(params):
    for n in range(4):
        for k in range(n + 1):
            assert nonmonic_poly(params, n, k).total_degree() == n


def test_nonmonic_residuals(params, equation):
    for n in range(4):
        lam = lambda_explicit(params, n)
        for k in range(n + 1):
            p = nonmonic_poly(params, n, k)
            assert (apply_operator(equation, p) + p * lam).is_zero()


@pytest.mark.parametrize("point", [TEST_PARAMS, Q23], ids=["test-params", "q=2/3"])
def test_nonmonic_equals_tensor_reference(point):
    # the series against the pointwise product on the whole (n+1)^2 tensor
    # grid, interpolated by two Vandermonde solves
    for n in range(7):
        nodes = [F(v) for v in range(1, n + 2)]
        for k in range(n + 1):
            full = Mat([[nonmonic_value(point, n, k, xv, yv) for yv in nodes] for xv in nodes])
            assert nonmonic_poly(point, n, k) == tensor_vandermonde_interpolate(nodes, nodes, full)


#: the first candidate point of the families benchmark's first nonmonic slot
BENCH_NONMONIC = BigQJacobiParams(F(1, 3), F(5, 11), F(2, 3), F(-5, 3), QParam(F(1, 2)))


@pytest.mark.parametrize("point", [TEST_PARAMS, Q23, BENCH_NONMONIC],
                         ids=["test-params", "q=2/3", "benchmark"])
def test_nonmonic_polys_equal_their_one_pair_calls(point):
    # one QTables and one list of fold factors serve every pair, in the
    # order asked
    pairs = [(n, k) for n in range(6) for k in range(n + 1)]
    got = nonmonic_polys(point, pairs[::-1])
    assert list(got) == pairs[::-1]
    for n, k in pairs:
        assert got[n, k] == nonmonic_poly(point, n, k), (n, k)
    with pytest.raises(ValueError):
        nonmonic_polys(point, [(1, 1), (1, 2)])


def test_nonmonic_index_bounds(params):
    for n, k in ((1, 2), (2, -1)):
        with pytest.raises(ValueError):
            nonmonic_poly(params, n, k)


# explicit recurrence matrices ------------------------------------------------------

def test_explicit_BC_matches_oracle_recurrence(params, equation, oracle5):
    for n in range(1, 5):
        explicit = explicit_BC(params, n)
        for j in (1, 2):
            tb = ttr_matrices(oracle5, n, j)
            assert explicit[f"B{j}"] == tb["B"]
            assert explicit[f"C{j}"] == tb["C"]


def test_explicit_BC_divides_by_zero_where_abc_q2_is_one():
    # den_c of n = 1 has the factor abc q^2 - 1
    with pytest.raises(ZeroDivisionError):
        explicit_BC(PZERO, 1)


def test_closed_forms_keep_no_state_between_calls():
    # each call builds its own tables: a call at q = 2/3 between two calls
    # at q = 1/2 leaves the second equal to the first
    def closed_forms(p):
        E = preset_equation(p)
        return ([explicit_BC(p, n) for n in (1, 2, 3)], hypergeometric_family(p, 3),
                [s_matrix_closed_form(E, n) for n in (1, 2, 3)])

    first = closed_forms(TEST_PARAMS)
    other = closed_forms(P23)
    assert closed_forms(TEST_PARAMS) == first != other


def test_explicit_BC_sparsity(params):
    mats = explicit_BC(params, 3)
    B1, B2 = mats["B1"].rows, mats["B2"].rows
    for i in range(4):
        for j in range(4):
            if i != j and i != j + 1:
                assert B1[i][j] == 0
            if i != j and i != j - 1:
                assert B2[i][j] == 0
    C1, C2 = mats["C1"].rows, mats["C2"].rows
    for i in range(4):
        for j in range(3):
            if i not in (j, j + 1, j + 2):
                assert C1[i][j] == 0
            if i not in (j, j + 1, j - 1):
                assert C2[i][j] == 0


def test_explicit_BC_drives_recurrence(params, oracle5):
    for n in range(1, 4):
        explicit = explicit_BC(params, n)
        for j, var in ((1, x), (2, y)):
            A = ttr_matrices(oracle5, n, j)["A"]
            lhs = [e * var for e in oracle5.vectors[n]]
            rhs = [a + b + c for a, b, c in zip(A @ oracle5.vectors[n + 1],
                                                explicit[f"B{j}"] @ oracle5.vectors[n],
                                                explicit[f"C{j}"] @ oracle5.vectors[n - 1],
                                                strict=True)]
            assert lhs == rhs


# monic hypergeometric representation -------------------------------------------------

def qbinomial(n: int, k: int, qp: QParam) -> F:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k})."""
    if not 0 <= k <= n:
        raise ValueError(f"qbinomial needs 0 <= k <= n, got n={n}, k={k}")
    q = qp.q
    num = qpochhammer(q, qp, n)
    return num / (qpochhammer(q, qp, k) * qpochhammer(q, qp, n - k))


def explicit_double_sum(p: BigQJacobiParams, n: int, m: int) -> BiPoly:
    """The monic solution with leading monomial x^n y^m as the hand-expanded
    (n+1)(m+1) double sum of (bx/d; q)_i (y; q)_j products with Gaussian
    binomials: a reference independent of the series kernel."""
    q = p.qp.q
    qp = p.qp
    a, b, c, d = p.a, p.b, p.c, p.d
    abc = a * b * c

    pref = ((d / b) ** n * qpochhammer(a * q, qp, m) * qpochhammer(b * q, qp, n)
            * qpochhammer(d * q ** (n + 1), qp, m) * qpochhammer(abc * q ** (m + 2) / d, qp, n)
            / qpochhammer(abc * q ** (m + n + 2), qp, n + m))

    total = BiPoly.zero()
    for i in range(n + 1):
        for j in range(m + 1):
            expo = (i * (i - 2 * n + 1) + j * (j - 2 * m + 1)) // 2
            coef = ((-1) ** (i + j) * qbinomial(n, i, qp) * qbinomial(m, j, qp)
                    * q**expo * qpochhammer(abc * q ** (m + n + 2), qp, i + j)
                    / (qpochhammer(a * q, qp, j) * qpochhammer(b * q, qp, i)
                       * qpochhammer(d * q ** (n + 1), qp, j)
                       * qpochhammer(abc * q ** (m + 2) / d, qp, i)))
            pochx = qpochhammer(x * (b / d), qp, i)
            pochy = qpochhammer(y, qp, j)
            total = total + pochx * pochy * coef
    return total * pref


@pytest.mark.parametrize("point", ["test-params", "q=2/3", "|dq|>1"])
def test_hypergeometric_equals_explicit_double_sum(point):
    p = {"test-params": TEST_PARAMS, "q=2/3": P23, "|dq|>1": PBIG}[point]
    for total in range(6):
        for m in range(total + 1):
            assert monic_hypergeometric(p, total - m, m) == explicit_double_sum(p, total - m, m)


def phi_bivariate_route(p: BigQJacobiParams, n: int, m: int) -> BiPoly:
    """The monic solution as the prefactor times one `phi_bivariate` call
    with the polynomial parameters bx/d and y: the route's own series."""
    q, qp = p.qp.q, p.qp
    a, b, c, d = p.a, p.b, p.c, p.d
    abc = a * b * c
    pref = ((d / b) ** n * qpochhammer(a * q, qp, m) * qpochhammer(b * q, qp, n)
            * qpochhammer(d * q ** (n + 1), qp, m) * qpochhammer(abc * q ** (m + 2) / d, qp, n)
            / qpochhammer(abc * q ** (m + n + 2), qp, n + m))
    return pref * phi_bivariate([abc * q ** (n + m + 2)], [q**-n, x * (b / d)], [q**-m, y],
                                [], [b * q, abc * q ** (m + 2) / d], [a * q, d * q ** (n + 1)],
                                qp, q, q)


@pytest.mark.parametrize("point", ["test-params", "q=2/3", "|dq|>1", "abcq^2=1"])
def test_hypergeometric_family_equals_the_phi_bivariate_series(point):
    # at abc q^2 = 1 every (abc q^2; q)_k past k = 0 vanishes: a row divided
    # by another row there would be 0/0
    p = {"test-params": TEST_PARAMS, "q=2/3": P23, "|dq|>1": PBIG, "abcq^2=1": PZERO}[point]
    family = hypergeometric_family(p, 4)
    assert list(family) == [(t - m, m) for t in range(5) for m in range(t + 1)]
    for (n, m), poly in family.items():
        assert poly == phi_bivariate_route(p, n, m) == monic_hypergeometric(p, n, m), (n, m)


def test_series_with_polynomial_arguments_match_scalar_calls(params):
    # BiPoly parameters or arguments, evaluated afterwards, give the scalar sum
    q, qp = params.qp.q, params.qp
    rng = random.Random(11)
    points = [(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)))
              for _ in range(5)]
    half = F(1, 2)
    phi2 = phi_bivariate([F(1, 7)], [q**-2, x * F(2, 3)], [q**-3, y], [], [F(1, 3)],
                         [F(1, 5)], qp, q, F(3, 5), tags=(1, 0, 2))
    kdf = kampe_de_feriet([F(7, 2)], [F(-3)], [F(-2)], [], [F(2)], [F(3, 2)],
                          (x + 1) * half, (1 - y) * half)
    rs = phi_rs([q**-3, F(1, 9), x * y], [F(1, 3), F(-1, 5)], qp, q)
    rs_arg = phi_rs([q**-2], [F(1, 3)], qp, x - y)  # s + 1 - r = 1: signed q^C(k,2)
    for xv, yv in points:
        assert phi2.eval(xv, yv) == phi_bivariate([F(1, 7)], [q**-2, xv * F(2, 3)], [q**-3, yv],
                                                  [], [F(1, 3)], [F(1, 5)], qp, q, F(3, 5),
                                                  tags=(1, 0, 2))
        assert kdf.eval(xv, yv) == kampe_de_feriet([F(7, 2)], [F(-3)], [F(-2)], [], [F(2)],
                                                   [F(3, 2)], (xv + 1) * half, (1 - yv) * half)
        assert rs.eval(xv, yv) == phi_rs([q**-3, F(1, 9), xv * yv], [F(1, 3), F(-1, 5)], qp, q)
        assert rs_arg.eval(xv, yv) == phi_rs([q**-2], [F(1, 3)], qp, xv - yv)

def test_hypergeometric_trivial(params):
    assert monic_hypergeometric(params, 0, 0) == BiPoly.const(1)


def test_hypergeometric_is_monic(params):
    for n, m in [(1, 0), (0, 1), (2, 1), (1, 2)]:
        p = monic_hypergeometric(params, n, m)
        assert p.coeff(n, m) == 1
        assert p.total_degree() == n + m


def test_hypergeometric_equals_oracle_entries(params, oracle5):
    for total in range(5):
        for m in range(total + 1):
            assert monic_hypergeometric(params, total - m, m) == oracle5.entry(total, m)


def test_hypergeometric_11_is_P2_middle_entry(params, oracle5):
    assert monic_hypergeometric(params, 1, 1) == oracle5.vectors[2][1]


# validity across the big q-Jacobi domain ------------------------------------------

SWEEP_Q = [F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(2, 5)]


def is_power_of(v: F, q: F) -> bool:
    """v = q^k for some integer k (0 < q < 1)."""
    if v <= 0:
        return False
    while v < 1:
        v /= q
    while v > 1:
        v *= q
    return v == 1


def sweep_points(count, seed=2013):
    """Seeded points of the big q-Jacobi domain: aq, bq, cq in (0, 1),
    d < 0 and c not a power of q, q among five bases."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice([F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(2, 5)])
        a, b, c = (F(rng.randint(1, 12), 13) / q for _ in range(3))
        d = -F(rng.randint(1, 39), 13)
        if not is_power_of(c, q):
            out.append(BigQJacobiParams(a, b, c, d, QParam(q)))
    return out


@st.composite
def big_q_jacobi_points(draw):
    """aq, bq, cq in (0, 1), d < 0 and c not a power of q, for q drawn from
    SWEEP_Q."""
    q = draw(st.sampled_from(SWEEP_Q))
    inside = st.fractions(min_value=0, max_value=1, max_denominator=13).filter(lambda t: 0 < t < 1)
    a, b, c = (draw(inside) / q for _ in range(3))
    d = -draw(st.fractions(min_value=0, max_value=3, max_denominator=13).filter(lambda t: t > 0))
    assume(not is_power_of(c, q))
    return BigQJacobiParams(a, b, c, d, QParam(q))


@seed(54)
@settings(max_examples=20, deadline=None, database=None)
@given(big_q_jacobi_points())
def test_recursive_formula_reproduces_oracle_through_degree_5(p):
    oracle = generate_monic_oracle(preset_equation(p), 5)
    assert generate_monic_rf(oracle) == oracle.vectors


@seed(2013)
@settings(max_examples=40, deadline=None, database=None)
@given(big_q_jacobi_points(), st.integers(0, 3), st.data())
def test_routes_agree_across_the_domain(p, total, data):
    # oracle = hypergeometric route = recursive formula through N = 3, and
    # x_j P_n = A P_{n+1} + B P_n + C P_{n-1} for n <= 2; the Rodrigues and
    # the non-monic solutions have exact zero residuals, and the non-monic
    # one equals the pointwise product off the integer grid
    E = preset_equation(p)
    oracle = generate_monic_oracle(E, 3)
    for n in range(4):
        for m in range(n + 1):
            assert monic_hypergeometric(p, n - m, m) == oracle.entry(n, m)
    P = oracle.vectors
    assert generate_monic_rf(oracle) == P
    for n in range(3):
        for j, var in ((1, x), (2, y)):
            tb = ttr_matrices(oracle, n, j)
            rhs = [a + b for a, b in zip(tb["A"] @ P[n + 1], tb["B"] @ P[n], strict=True)]
            if n >= 1:
                rhs = [a + b for a, b in zip(rhs, tb["C"] @ P[n - 1], strict=True)]
            assert [e * var for e in P[n]] == rhs, (n, j)
    m = data.draw(st.integers(0, total), label="m")
    rod = rodrigues_poly(E, total - m, m)
    assert rod.total_degree() == total
    assert (apply_operator(E, rod) + rod * lambda_explicit(p, total)).is_zero()
    k = data.draw(st.integers(0, total), label="k")
    poly = nonmonic_poly(p, total, k)
    assert (apply_operator(E, poly) + poly * lambda_explicit(p, total)).is_zero()
    # no d q^(1+j) is -5/17 (d has denominator <= 13), so the reference's
    # (dq/y; q)_j has no zero factor
    for xv, yv in ((F(-2, 7), F(5, 11)), (F(3, 13), F(-5, 17))):
        assert poly.eval(xv, yv) == nonmonic_value(p, total, k, xv, yv)


@seed(2013)
@settings(max_examples=40, deadline=None, database=None)
@given(big_q_jacobi_points(), st.integers(0, 3), st.data())
def test_families_equal_their_pairs_across_the_domain(p, total, data):
    # the 40 points of test_routes_agree_across_the_domain (same seed,
    # strategies and draws): each family, built once for n + m <= 4, is its
    # one-pair calls polynomial for polynomial
    data.draw(st.integers(0, total), label="m")
    data.draw(st.integers(0, total), label="k")
    E = preset_equation(p)
    rod, hyp = rodrigues_family(E, 4), hypergeometric_family(p, 4)
    pairs = [(t - m, m) for t in range(5) for m in range(t + 1)]
    assert list(rod) == list(hyp) == pairs
    for n, m in pairs:
        assert rod[n, m] == rodrigues_poly(E, n, m), (n, m)
        assert hyp[n, m] == monic_hypergeometric(p, n, m), (n, m)
        # monic: the top-degree part is x^n y^m
        assert hyp[n, m].total_degree() == n + m, (n, m)
        assert {mono: c for mono, c in hyp[n, m].coeffs.items() if sum(mono) == n + m} \
            == {(n, m): 1}, (n, m)


@seed(2013)
@settings(max_examples=40, deadline=None, database=None)
@given(big_q_jacobi_points())
def test_explicit_BC_matches_oracle_recurrence_across_the_domain(p):
    oracle = generate_monic_oracle(preset_equation(p), 5)
    for n in range(1, 5):
        explicit = explicit_BC(p, n)
        for j in (1, 2):
            tb = ttr_matrices(oracle, n, j)
            assert (explicit[f"B{j}"], explicit[f"C{j}"]) == (tb["B"], tb["C"]), (n, j)


#: the points where the integer kernels of the monic layer and explicit_BC
#: are compared with their Fraction references: the 40 sweep points,
#: q = 9/10, q = 99/100 and d = -1000 (the last three at TEST_PARAMS)
REFERENCE_POINTS = sweep_points(40) + [replace(TEST_PARAMS, qp=QParam(F(9, 10))),
                                       replace(TEST_PARAMS, qp=QParam(F(99, 100))),
                                       replace(TEST_PARAMS, d=F(-1000))]
REFERENCE_IDS = [f"sweep-{k}" for k in range(40)] + ["q=9/10", "q=99/100", "d=-1000"]


@pytest.mark.parametrize("p", REFERENCE_POINTS + [TEST_PARAMS], ids=REFERENCE_IDS + ["preset"])
def test_explicit_BC_equals_the_fraction_reference(p):
    """Equal forms (Mat equality compares each row's numerators and
    denominator), n = 1..6."""
    for n in range(1, 7):
        assert explicit_BC(p, n) == reference_explicit_BC(p, n), n


# classical (q -> 1) targets ----------------------------------------------------------

CP = ClassicalParams(1, 1, 1)


def test_appell_trivial_and_monic():
    assert appell_monic(CP, 0, 0) == BiPoly.const(1)
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        p = appell_monic(CP, n, m)
        assert p.coeff(n, m) == 1
        assert p.total_degree() == n + m


def test_appell_solves_limit_pde():
    for total in range(4):
        for m in range(total + 1):
            p = appell_monic(CP, total - m, m)
            assert classical_pde_residual(CP, p, total).is_zero()


def test_jnm_solves_limit_pde():
    for n in range(4):
        for m in range(n + 1):
            p = jnm(CP, n, m)
            assert p.total_degree() == n
            assert classical_pde_residual(CP, p, n).is_zero()


def pochhammer_rising(a, k: int):
    """(a)_k = a (a+1) ... (a+k-1), the tests' reference rising factorial."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    return math.prod((a + j for j in range(k)), start=a * 0 + F(1))


def jacobi_poly(n: int, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}(x) = ((a+1)_n / n!) 2F1(-n, n+a+b+1; a+1; (1-x)/2)."""
    a = F(a) if isinstance(a, int) else a
    b = F(b) if isinstance(b, int) else b
    half = F(1, 2)
    arg = (1 - x) * half if isinstance(x, (int, F)) else (BiPoly.const(1) - x) * half
    lead = pochhammer_rising(a + 1, n) / pochhammer_rising(F(1), n)
    return gauss_2f1_terminating(F(-n), n + a + b + 1, a + 1, arg) * lead


def test_jnm_matches_jacobi_product_form():
    al, be, ga = F(1), F(1), F(1)
    for n in range(4):
        for m in range(n + 1):
            p = jnm(CP, n, m)
            for xv, yv in ((F(1, 3), F(1, 2)), (F(-1, 4), F(2, 5))):
                t = (2 * xv - yv + 1) / (yv + 1)
                lead = (pochhammer_rising(F(1), m) * pochhammer_rising(F(1), n - m)
                        * (yv + 1) ** m
                        / (pochhammer_rising(ga + 1, m) * pochhammer_rising(al + 1, n - m)))
                ref = lead * jacobi_poly(m, ga, be, t) \
                    * jacobi_poly(n - m, al, be + ga + 2 * m + 1, yv)
                assert p.eval(xv, yv) == ref


def classical_weight(cp: ClassicalParams) -> BiPoly:
    """(1-y)^alpha (x+1)^beta (y-x)^gamma for integer exponents."""
    one = BiPoly.const(1)
    return ((one - y) ** cp.alpha) * ((x + one) ** cp.beta) * ((y - x) ** cp.gamma)


def test_classical_weight_polynomial():
    w = classical_weight(CP)
    assert w == (BiPoly.const(1) - y) * (x + 1) * (y - x)


def test_classical_rodrigues_division_exact():
    # div_exact raises on a nonzero remainder; degree comes out right
    for total in range(4):
        for m in range(total + 1):
            p = classical_rodrigues(CP, total - m, m)
            assert p.total_degree() == total


def test_classical_rodrigues_solves_pde():
    for total in range(4):
        for m in range(total + 1):
            p = classical_rodrigues(CP, total - m, m)
            assert classical_pde_residual(CP, p, total).is_zero()


@pytest.mark.parametrize("alpha, beta, gamma", [(a, b, g) for a in range(3) for b in range(3)
                                                  for g in range(3)], ids=str)
def test_classical_rodrigues_is_an_exact_quotient_at_each_parameter_point(alpha, beta, gamma):
    # the weight divides the bracket at integer parameters, so the limits
    # suite's division cannot refuse; the quotient solves the limit PDE
    cp = ClassicalParams(alpha, beta, gamma)
    for total in range(4):
        for m in range(total + 1):
            bracket, weight = classical_rodrigues_fraction(cp, total - m, m)
            quot = bracket.div_exact(weight)
            assert quot * weight == bracket, (total - m, m)
            assert classical_pde_residual(cp, quot, total).is_zero(), (total - m, m)


@pytest.mark.parametrize("alpha, beta, gamma", [(0, 0, 0), (1, 1, 1), (2, 0, 1), (0, 2, 2)],
                         ids=str)
def test_classical_residual_equals_the_product_reference(alpha, beta, gamma):
    """The stencil pass gives the form of the BiPoly products, on solutions
    (zero residual) and on seeded polynomials and wrong degrees (nonzero)."""
    cp = ClassicalParams(alpha, beta, gamma)
    rng = random.Random(61)
    polys = [(appell_monic(cp, t - m, m), t + s) for t in range(4) for m in range(t + 1)
             for s in (0, 1)]
    polys += [(jnm(cp, n, m), n) for n in range(4) for m in range(n + 1)]
    polys += [(BiPoly({(rng.randint(0, 5), rng.randint(0, 5)): F(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(7)}), rng.randint(0, 8)) for _ in range(20)]
    polys += [(BiPoly.zero(), 2), (BiPoly.const(F(3, 4)), 0), (BiPoly.const(F(3, 4)), 1)]
    for u, total in polys:
        got, want = classical_pde_residual(cp, u, total), reference_classical_residual(cp, u, total)
        assert (got.nums, got.den) == (want.nums, want.den), (u, total)


def test_classical_rodrigues_first_order_closed_form():
    # (1/rho) d/dx [(x+1)^{beta+1} (1-y)^alpha (y-x)^{gamma+1}]
    #   = (beta+1)(y-x) - (gamma+1)(x+1)
    p = classical_rodrigues(CP, 1, 0)
    assert p == (y - x) * 2 - (x + 1) * 2


def test_limit_parameters():
    p = limit_params(CP, F(1, 1000))
    q = F(999, 1000)
    assert p.qp.q == q and p.a == q and p.d == -q


def test_monic_limit_errors_shrink():
    rows = limit_check(CP, [F(1, 100), F(1, 1000)], [(1, 1)], [(F(1, 3), F(1, 2))])
    monic_rows = [r for r in rows if r["kind"] == "monic"]
    ratios = [r["ratio"] for r in error_ratios(monic_rows)]
    assert len(ratios) == 1
    assert F(1, 20) <= ratios[0] <= F(1, 5)


def test_trivial_limit_pair_is_exact():
    rows = limit_check(CP, [F(1, 100)], [(0, 0)], [(F(1, 3), F(1, 2))])
    assert all(r["error"] == 0 for r in rows if r["kind"] == "monic")


def test_limits_suite_builds_one_oracle_per_eps_and_each_target_once(monkeypatch):
    # limit_check builds its oracle at q = 1 - eps once, at the largest total
    # degree, not once per (n, m); the suite builds each Appell target once
    import qbipoly.suites as suites

    built, targets = [], []
    oracle, appell = bigqjacobi.generate_monic_oracle, suites.appell_monic
    monkeypatch.setattr(bigqjacobi, "generate_monic_oracle",
                        lambda E, N: built.append(N) or oracle(E, N))
    monkeypatch.setattr(suites, "appell_monic",
                        lambda cp, n, m: targets.append((n, m)) or appell(cp, n, m))
    ok, _ = suites.suite_limits()
    assert ok
    assert built == [3, 3]
    assert sorted(targets) == sorted(set(targets)) and len(targets) == 10


def test_limits_suite_builds_each_lane_from_one_lattice_and_each_target_once(monkeypatch):
    # per eps one Rodrigues lattice for the three pairs, and each classical
    # Rodrigues target built once, by the suite
    import qbipoly.suites as suites

    lattices, targets = [], []
    polys, fraction = bigqjacobi.rodrigues_polys, suites.classical_rodrigues_fraction
    monkeypatch.setattr(bigqjacobi, "rodrigues_polys",
                        lambda E, pairs: lattices.append(list(pairs)) or polys(E, pairs))
    for name in ("classical_rodrigues", "classical_rodrigues_fraction"):
        monkeypatch.setattr(bigqjacobi, name,
                            lambda cp, n, m: pytest.fail("limit rows rebuilt a classical target"))
    monkeypatch.setattr(suites, "classical_rodrigues_fraction",
                        lambda cp, n, m: targets.append((n, m)) or fraction(cp, n, m))
    ok, _ = suites.suite_limits()
    assert ok
    assert lattices == [[(1, 0), (1, 1), (2, 1)]] * 2
    assert sorted(targets) == sorted(set(targets)) and len(targets) == 10


def test_limit_check_rows_do_not_depend_on_the_oracle_degree():
    # one oracle per eps at the largest n + m gives the rows that one
    # oracle per (n, m, eps) at n + m gives
    points = [(F(1, 3), F(1, 2)), (F(-1, 2), F(1, 4))]
    both = limit_check(CP, [F(1, 100)], [(1, 0), (2, 1)], points)
    apart = (limit_check(CP, [F(1, 100)], [(1, 0)], points)
             + limit_check(CP, [F(1, 100)], [(2, 1)], points))
    assert both == apart


def closed_form_weight(p: BigQJacobiParams, xv, yv, field: FloatField, variant: str = "W"):
    """Pointwise closed-form weight by infinite q-Pochhammers (float lane).

    variant "W": the explicit weight; variant "rho": the lattice-product
    normalization, equal to W times the constant -d/c.
    """
    qp = p.qp
    a, b, c, d = p.a, p.b, p.c, p.d
    xf = field.of(xv)
    yf = field.of(yv)
    if yf == 0:
        raise ZeroDivisionError("weight undefined at y = 0")
    q = field.of(qp.q)

    def poch(z):
        return qpochhammer_inf(z, qp, field)

    if variant == "W":
        num = poch(d * q / yf) * poch(xf / (c * yf)) * poch(xf / field.of(d)) \
            * poch(yf / field.of(a)) * poch(yf / field.of(d))
        den = yf * poch(field.of(d) / (c * yf)) * poch(c * q * yf / field.of(d)) \
            * poch(xf / yf) * poch(b * xf / field.of(d)) * poch(yf)
    elif variant == "rho":
        num = poch(yf / field.of(a)) * poch(xf / field.of(d)) * poch(d * q / yf) \
            * poch(xf / (c * yf)) * poch(yf / field.of(d))
        den = poch(yf) * poch(xf / yf) * poch(b * xf / field.of(d)) \
            * poch(d * q / (c * yf)) * poch(c * yf / field.of(d))
    else:
        raise ValueError(f"unknown weight variant {variant!r}")
    if den == 0:
        raise ZeroDivisionError("vanishing denominator factor in the closed-form weight")
    return num / den


def weight_limit_ratio(cp: ClassicalParams, eps, point, prec: int = 64):
    """W(x, y; q = 1-eps) / classical weight at an interior point (float)."""
    p = limit_params(cp, Fraction(eps))
    fld = FloatField(prec)
    wq = closed_form_weight(p, point[0], point[1], fld, variant="W")
    wc = classical_weight(cp).eval(*point)
    return wq / fld.of(wc)


def test_weight_ratio_tends_to_one():
    r1 = weight_limit_ratio(CP, F(1, 200), (F(1, 3), F(1, 2)), prec=64)
    r2 = weight_limit_ratio(CP, F(1, 1000), (F(1, 3), F(1, 2)), prec=64)
    assert abs(r1 - 1) < 0.1
    assert abs(r2 - 1) < abs(r1 - 1)  # approaching 1 as eps shrinks


def brute_column(p, t, sigma, fld, bits, D=0):
    """Independent slow reference for the orthogonality functional at one
    outer node: (y, [(x, Jackson factor of x, weight)]) on the float field
    `fld`, at y = a q^{1+t} (sigma = 1) or y = d q^{1+t} (sigma = -1).  Each
    x branch starts from direct infinite products at its first node, and
    each later weight divides out the factors that its step moves past.  On
    y > 0 a branch runs until a term, over 1 - q, is under 2^-bits of its
    least sum of |x|^i w (i <= D), so its tail is below that.  On y < 0 only
    x = d q^{1+r}, r <= t, carries mass: the continuous limits, with the
    vanishing factor of (dq/y; q)_inf and of (x/y; q)_inf dropped."""
    q = fld.of(p.qp.q)
    a, b, c, d = (fld.of(v) for v in (p.a, p.b, p.c, p.d))

    def pochinf(z):
        prod, term = fld.one, z
        while abs(term) >= fld.tail_eps:
            prod *= 1 - term
            term *= q
        return prod

    # (q^-t; q)_inf less its vanishing factor: (dq/y) on y < 0, and (x/y) at r = 0
    drop = pochinf(q) * fld.ctx.fprod(1 - q ** -m for m in range(1, t + 1))
    yv = (a if sigma > 0 else d) * q ** (1 + t)
    outer = (pochinf(d * q / yv) if sigma > 0 else drop) * pochinf(yv / a) * pochinf(yv / d) / (
        yv * pochinf(d / (c * yv)) * pochinf(c * q * yv / d) * pochinf(yv))
    nodes = []
    for xv, sgn in ((c * q * yv, 1), (d * q, -1))[sigma < 0:]:
        ups, downs = [xv / (c * yv), xv / d], [xv / yv, b * xv / d]
        w = outer * pochinf(ups[0]) * pochinf(ups[1]) / (
            (pochinf(downs[0]) if sigma > 0 else drop) * pochinf(downs[1]))
        least = 0
        for r in itertools.count():
            jx = sgn * (1 - q) * xv
            nodes.append((xv, jx, w))
            least += abs(jx * w) * min(1, abs(xv) ** D)
            if r == t if sigma < 0 else abs(xv) <= 1 and abs(jx * w) / (1 - q) < 2**-bits * least:
                break
            # (z q^(r+1); q)_inf = (z q^r; q)_inf / (1 - z q^r)
            w = w * (1 - downs[0]) * (1 - downs[1]) / ((1 - ups[0]) * (1 - ups[1]))
            ups, downs, xv = [u * q for u in ups], [v * q for v in downs], xv * q
    return yv, nodes


def brute_nodes(p, N, fld, bits=64, D=2):
    """Every node of `brute_column` for t <= N on both outer branches as (x,
    y, Jackson factor, weight)."""
    q = fld.of(p.qp.q)
    return [(xv, yv, sigma * (1 - q) * yv * jx, w) for t in range(N + 1) for sigma in (1, -1)
            for yv, column in [brute_column(p, t, sigma, fld, bits, D)] for xv, jx, w in column]


def brute_moment(fld, nodes, i, j):
    return fld.ctx.fsum(jw * xv ** i * yv ** j * w for xv, yv, jw, w in nodes)


#: a second parameter point, away from q = 1/2
P23 = BigQJacobiParams(F(1, 2), F(3, 4), F(1, 3), F(-2, 3), QParam(F(2, 3)))
ENGINE_POINTS = {"test-params": (TEST_PARAMS, 16), "q=2/3": (P23, 12)}


@functools.lru_cache(maxsize=None)
def engine_and_brute(point):
    """(moment table, brute-force field, its nodes) at 80 bits on one
    parameter point; the table's triangle holds the box i, j <= 2."""
    p, N = ENGINE_POINTS[point]
    fld = FloatField(80)
    return MomentTable(p, max_degree=4, prec=80), fld, brute_nodes(p, N, fld)


def test_moment_engine_against_slow_reference():
    """The engine's pieces against the brute double Jackson sum of the
    written weight, both outer sums cut at the same N: the closed-form
    inner integrals times G, summed over the outer nodes
    (`truncated_outer_moments`), within 2^-50; and the table within the
    tail that cut drops, plus 2^(1 - 80) and the sum's rounding."""
    for point in sorted(ENGINE_POINTS):
        mt, fld, nodes = engine_and_brute(point)
        outer = truncated_outer_moments(ENGINE_POINTS[point][0], 4, ENGINE_POINTS[point][1], fld)
        for i in range(3):
            for j in range(3):
                ref = mpf_value(brute_moment(fld, nodes, i, j))
                M, tail, scale = (mpf_value(v) for v in outer[i, j])
                assert abs(M - ref) <= F(2) ** (-50) * max(1, abs(ref))
                assert abs(mt.moment(i, j) - M) <= F(2) ** -79 * abs(M) + tail \
                    + F(2) ** (24 - 80) * scale


def test_weight_min_positive_is_least_brute_node_weight():
    """The exact verdict (is the least nonzero node weight positive?) against
    the least nonzero node weight of the slow reference, each weight a
    product of direct infinite products."""
    for point in sorted(ENGINE_POINTS):
        mt, fld, nodes = engine_and_brute(point)
        ref = min(w for _, _, _, w in nodes if w != 0)
        assert mt.weight_positive is (ref > 0)


@pytest.mark.parametrize("point", sorted(ENGINE_POINTS))
def test_moment_table_error_follows_precision(point):
    """The table at prec agrees with the same table at prec + 64 within
    2^(16 - prec), relative to the larger of the moment and M_00 (the
    measured error is about 2^(9 - prec)), over the box i, j <= 4."""
    p = ENGINE_POINTS[point][0]
    prec = 120
    got = MomentTable(p, max_degree=8, prec=prec)
    ref = MomentTable(p, max_degree=8, prec=prec + 64)
    m00 = abs(ref.moment(0, 0))
    for i in range(5):
        for j in range(5):
            bound = F(2) ** (16 - prec) * max(abs(ref.moment(i, j)), m00)
            assert abs(ref.moment(i, j) - got.moment(i, j)) <= bound


def _poch_ladder(z, lo: int, hi: int, q, qp: QParam, field: FloatField) -> dict:
    """{k: (z q^k; q)_inf for lo <= k <= hi}, lo <= 0 <= hi, on mpf values
    of `field`, from one direct evaluation at k = 0: a step up divides by
    the factor 1 - z q^k, a step down multiplies by 1 - z q^(k-1)."""
    out = {0: qpochhammer_inf(z, qp, field)}
    val, zk = out[0], z
    for k in range(hi):
        val /= 1 - zk
        zk *= q
        out[k + 1] = val
    val, zk = out[0], z
    for k in range(0, lo, -1):
        zk /= q
        val *= 1 - zk
        out[k - 1] = val
    return out


def reference_moments(p, max_degree, truncation, prec):
    """The moment table and least node weight by the earlier engine: every
    node operation an mpf operation at `prec` (a node weight yfac A B, then
    q^r w x^i term by term), on `_poch_ladder` sequences.  The outer sum
    stops at `truncation`; on y > 0 the inner sums run to r = R, where q^R
    is under 2^-(prec + 16), so their tails are below the tests' bounds."""
    fld = FloatField(prec)
    N, D = truncation, max_degree
    R = max(N, math.ceil((prec + 16) / -math.log2(p.qp.q)))
    q = fld.of(p.qp.q)
    a, b, c, d = (fld.of(v) for v in (p.a, p.b, p.c, p.d))

    def seq(z, lo, hi):
        return _poch_ladder(z, lo, hi, q, p.qp, fld)

    def geometric(start, n):
        out = [start]
        for _ in range(n - 1):
            out.append(out[-1] * q)
        return out

    Q, Cq, Bq = seq(q, 0, R), seq(c * q, 0, R + 1), seq(b * q, 0, R)
    ACD, ABCD = seq(a * c * q**2 / d, 0, N + R), seq(a * b * c * q**2 / d, 0, N + R)
    DAC, DA = seq(d / (a * c), -N - 1, R), seq(d / a, -N, R + 1)
    AD, AQ, C1, DQ = seq(a * q / d, 0, N), seq(a * q, 0, N), seq(1 / c, -N - 1, 0), seq(d * q, 0, N)
    drop = [Q[0]]
    for k in range(1, N + 1):
        drop.append(drop[k - 1] * (-(q ** -k)) * (1 - q**k))
    qr, ypos = geometric(fld.one, R + 1), geometric(a * q, N + 1)
    dlat, xcq = geometric(d * q, R + 1), geometric(a * c * q**2, N + R + 1)
    A_cq = [Q[r] / Cq[r] for r in range(R + 1)]
    B_cq = [ACD[s] / ABCD[s] for s in range(N + R + 1)]
    A_d = [Q[r] / Bq[r] for r in range(R + 1)]
    B_d = [DAC[k] / DA[k] for k in range(-N, R + 1)]
    B_neg = [C1[k] / drop[-k] for k in range(-N, 1)]
    least = []

    def jackson_sums(weights, xs):
        least.extend(w for w in weights if w != 0)
        sums = [fld.of(0)] * (D + 1)
        for w, xv, qk in zip(weights, xs, qr):
            base = qk * w
            for i in range(D + 1):
                sums[i] += base
                base *= xv
        return sums

    def add_outer_node(wt, yv, inner):
        ypow = fld.one
        for j in range(D + 1):
            acc = wt * ypow
            for i in range(D + 1):
                M[i][j] += acc * inner[i]
            ypow *= yv

    M = [[fld.of(0)] * (D + 1) for _ in range(D + 1)]
    for t in range(N + 1):
        yv = ypos[t]
        yfac = DA[-t] * Q[t] * AD[t] / (yv * DAC[-1 - t] * ACD[t] * AQ[t])
        inner = [fld.of(0)] * (D + 1)
        for xstart, xsign, weights, xs in (
                (c * q * yv, 1, [yfac * A_cq[r] * B_cq[t + r] for r in range(R + 1)],
                 xcq[t:t + R + 1]),
                (d * q, -1, [yfac * A_d[r] * B_d[r - t + N] for r in range(R + 1)], dlat)):
            sums = jackson_sums(weights, xs)
            for i in range(D + 1):
                inner[i] += xsign * (1 - q) * xstart * sums[i]
        add_outer_node((1 - q) * yv, yv, inner)
    for t in range(N + 1):
        yv = dlat[t]
        yfac = drop[t] * DA[1 + t] * Q[t] / (yv * C1[-1 - t] * Cq[1 + t] * DQ[t])
        sums = jackson_sums([yfac * A_d[r] * B_neg[r - t + N] for r in range(t + 1)], dlat)
        add_outer_node(-(1 - q) * yv, yv, [-(1 - q) * d * q * s for s in sums])
    return M, min(least, default=None)


def outer_node_weights(p, N, fld) -> tuple:
    """([(1 - q) G(y_t)] on y_t = a q^(1+t), [-(1 - q) G(y_t)] on y_t = d
    q^(1+t), t = 0..N) as mpf values of `fld`: G of `MomentTable`, its
    constant and each branch's four Pochhammer sequences from `_poch_ladder`
    (one direct infinite product each, then exact steps).  The engine
    computed these once, to sum the outer integral that it now has in
    closed form."""
    q = fld.of(p.qp.q)
    a, b, c, d = (fld.of(v) for v in (p.a, p.b, p.c, p.d))

    def seq(z):
        return _poch_ladder(z, 0, N, q, p.qp, fld)

    bcq2 = b * c * q * q
    const = c * q * (1 - q) ** 2 * seq(q)[0] * seq(bcq2)[0] / (seq(c * q)[0] * seq(b * q)[0])
    out = []
    for sign, (u1, u2), (d1, d2) in ((1, (q, a * q / d), (a * q, a * bcq2 / d)),
                                     (-1, (d * q / a, q), (d * q, bcq2))):
        U1, U2, D1, D2 = seq(u1), seq(u2), seq(d1), seq(d2)
        out.append([sign * const * U1[t] * U2[t] / (D1[t] * D2[t]) for t in range(N + 1)])
    return tuple(out)


def inner_ratios(p, D) -> list:
    """[(nums, den)] for i = 0..D, Q_i(y) = sum_m nums[m] y^m / den: the
    inner x-integral of x^i at y over that of 1, the kernel's ratios of the
    big q-Jacobi weight in z = bx/d with (alpha, beta, gamma) = (bcy/d, d/y,
    b), times (d/b)^i."""
    q, b, c, d = p.qp.q, p.b, p.c, p.d
    rows, den = _jacobi_ratios(q, D, b * c * q / d, [b * q], b * c * q * q)
    s, t = (d / b).numerator, (d / b).denominator
    return [({m: n * s**i for m, n in enumerate(row)}, den * t**i) for i, row in enumerate(rows)]


def truncated_outer_moments(p, D, N, fld) -> dict:
    """{(i, j): (M_ij, tail, scale)} on i + j <= D, mpf values of `fld`: the
    truncated outer Jackson sum that the engine summed before the outer
    integral had a closed form, M_ij = sum_m R_im mu_(j+1+m) for Q_i(y) =
    sum_m R_im y^m (`inner_ratios`) and mu_p = (1 - q) sum_(t <= N)
    (+-) y_t^p G(y_t) (`outer_node_weights`); scale sums the terms' absolute
    values the same way.  tail bounds what the cut drops: on y = a q^(1+t),
    G(yq)/G(y) = (1 - y)(1 - bcqy/d) / ((1 - y/a)(1 - y/d)) <= max(1, bcq) /
    (1 - q^(t+1)), and on y = d q^(1+t) it is at most max(1, a) / (1 -
    q^(t+1)), so past t = N each branch's terms of mu_p (p >= 1) shrink by
    at least rho = q max(1, a, bcq) / (1 - q^(N+1)) a step, and |mu_p|
    loses under its last terms times rho / (1 - rho)."""
    q = fld.of(p.qp.q)
    pos, neg = outer_node_weights(p, N, fld)
    nodes = [(fld.of(p.a) * q ** (1 + t), w) for t, w in enumerate(pos)] \
        + [(fld.of(p.d) * q ** (1 + t), w) for t, w in enumerate(neg)]
    mu, scale, last = ([fld.of(0)] * (D + 2) for _ in range(3))
    for k, (yv, w) in enumerate(nodes):
        term = w * yv
        for e in range(1, D + 2):
            mu[e] += term
            scale[e] += abs(term)
            if k in (N, 2 * N + 1):
                last[e] += abs(term)
            term *= yv
    rho = fld.of(p.qp.q * max(1, p.a, p.b * p.c * p.qp.q)) / (1 - q ** (N + 1))
    assert rho < 1
    out = {}
    for i, (nums, den) in enumerate(inner_ratios(p, D)):
        for j in range(D + 1 - i):
            M, cut, size = (fld.ctx.fsum(f(n) * v[j + 1 + m] for m, n in nums.items()) / den
                            for f, v in ((int, mu), (abs, last), (abs, scale)))
            out[i, j] = M, cut * rho / (1 - rho), size
    return out


#: a point with |dq| > 1, so that powers of the x < 0 lattice grow past 1
PBIG = BigQJacobiParams(F(1, 3), F(2, 5), F(3, 7), F(-3), QParam(F(1, 2)))
#: abc q^2 = 1: the first factor of (abc q^2; q)_k vanishes
PZERO = BigQJacobiParams(F(3, 2), F(3, 2), F(16, 9), F(-1), QParam(F(1, 2)))


def product_preset_equation(p: BigQJacobiParams) -> EquationCoeffs:
    """The preset's coefficients as products of their factors, the form
    that preset_equation writes out expanded: its reference."""
    q = p.qp.q
    a, b, c, d = p.a, p.b, p.c, p.d
    one = BiPoly.const(1)
    c11 = (one * (d * q) - x) * (one * (a * c * q**2) - x) * q
    c22 = (one * (a * q) - y) * (one * (d * q) - y) * q
    a12a = (one * d - x * b) * (one - y) * (a * c * q**4)
    a12d = (one * (d * q) - x) * (one * (a * q) - y)
    inner1 = one * (d - a * c * d * q**2 + a * c * q - a * b * c * q**2) + x * (a * b * c * q**2)
    b1 = (inner1 * q - x) * (q / (q - 1))
    inner2 = one * (d * q + a * q * (1 - d * q) - a * b * c * q**3) + y * (a * b * c * q**3 - 1)
    b2 = inner2 * (q / (q - 1))
    return EquationCoeffs(p.qp, c11, c22, a12a, a12d, b1, b2)


@pytest.mark.parametrize("params", [TEST_PARAMS, P23, PBIG, *sweep_points(40)],
                         ids=["test-params", "q=2/3", "|dq|>1", *(f"sweep-{k}" for k in range(40))])
def test_preset_equation_equals_its_product_form(params):
    assert preset_equation(params) == product_preset_equation(params)


@pytest.mark.parametrize("point", sorted(ENGINE_POINTS) + ["|dq|>1"])
def test_power_sum_engine_matches_reference_loop(point):
    """The earlier mpf loop against the power-sum engine that the table
    replaced (`truncated_outer_moments`: the closed-form inner integrals
    times G, summed as mu_p = (1 - q) sum_t (+-) y_t^p G(y_t)), both outer
    sums cut at truncation 40:
    within 2^(16 - prec) of max(|M_ij|, |M_00|); the table within that
    cut's tail plus 2^(1 - prec); and the exact verdict is the sign of the
    loop's least node weight."""
    p = PBIG if point == "|dq|>1" else ENGINE_POINTS[point][0]
    prec, D, N = 96, 4, 40
    # the triangle i + j <= 2D holds the loop's box i, j <= D
    got = MomentTable(p, max_degree=2 * D, prec=prec)
    outer = truncated_outer_moments(p, 2 * D, N, FloatField(prec + 32))
    ref, ref_least = reference_moments(p, D, N, prec)
    ref = [[mpf_value(v) for v in row] for row in ref]
    tol = F(2) ** (16 - prec)
    assert got.weight_positive is (ref_least > 0)
    for i in range(D + 1):
        for j in range(D + 1):
            M, tail, scale = (mpf_value(v) for v in outer[i, j])
            assert abs(M - ref[i][j]) <= tol * max(abs(ref[i][j]), abs(ref[0][0]))
            assert abs(got.moment(i, j) - M) <= F(2) ** (1 - prec) * abs(M) + tail \
                + F(2) ** (16 - prec - 32) * scale
    if point == "|dq|>1":
        assert abs(got.moment(D, 0)) > abs(got.moment(0, 0))


#: the edges of the benchmark domain at q = 1/2: c = 1/13, where B grows
#: fastest toward k = -N, and c = 23/13 (c > 1) with d = -25/13, where it decays
EDGE_POINTS = {"c=1/13": BigQJacobiParams(F(1, 3), F(1, 4), F(1, 13), F(-1, 2), QParam(F(1, 2))),
               "c=23/13": BigQJacobiParams(F(1, 3), F(1, 4), F(23, 13), F(-25, 13),
                                           QParam(F(1, 2)))}


def pair_value(pair) -> Fraction:
    """The exact rational m 2^e of an integer pair (m, e)."""
    return F(pair[0]) * F(2) ** pair[1]


def mpf_value(v) -> Fraction:
    """The exact rational of an mpf."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * pair_value((man, exp))


def truncated(num: int, den: int, bits: int) -> Fraction:
    """num / den (den != 0) truncated toward zero to a dyadic rational of
    bits or bits + 1 significant bits: a relative change under 2^(1 -
    bits), with no gcd of the long integers."""
    n, d = abs(num), abs(den)
    s = bits + d.bit_length() - n.bit_length()
    m = (n << s) // d if s >= 0 else (n >> -s) // d
    m = m if (num < 0) == (den < 0) else -m
    return F(m, 1 << s) if s >= 0 else F(m << -s)


def ladder_reference(ups, downs, q, lo, hi, slack_bits):
    """([partial products to J for k = lo..hi], tau), hi >= 0: the factors of
    `_ladder` for j = k..J, exact rationals (a zero factor of `downs` left
    out), multiplied in one at a time with each product truncated toward
    zero to R bits, with J and R so far out that the cut tail and the
    truncations move each value by a relative tau <= 2^-slack_bits (tau =
    2 s + n 2^(2 - R) for n truncations and s = 2 sum|z| q^(J+1) / (1 -
    q): 2 s bounds e^s - 1 and n 2^(1 - R) the truncations).  A truncation
    keeps the sign and never reaches zero, so the signs are those of the
    exact partial products."""
    S = sum(abs(z) for z in ups + downs)
    qn, qd = q.numerator, q.denominator
    # the least J >= hi with 4 S q^(J+1) / (1 - q) <= 2^-(slack_bits + 1),
    # on the integers a / b = q^(J+1)
    J, a, b = hi, qn ** (hi + 1), qd ** (hi + 1)
    while 4 * S.numerator * a * qd << (slack_bits + 1) > S.denominator * (qd - qn) * b:
        J, a, b = J + 1, a * qn, b * qd
    n = (J - lo + 1) * len(ups + downs)
    R = slack_bits + n.bit_length() + 3
    # q^j = A / B, so 1 - z q^j = (zd B - zn A) / (zd B)
    vals, v, A, B = [], F(1), a // qn, b // qd
    for j in range(J, lo - 1, -1):
        if j < J:
            A, B = (A // qn, B // qd) if j >= 0 else (A * qd, B * qn)
        for z in ups:
            if v:
                v = truncated(v.numerator * (z.denominator * B - z.numerator * A),
                              v.denominator * z.denominator * B, R)
        for z in downs:
            if v and (u := z.denominator * B - z.numerator * A):
                v = truncated(v.numerator * z.denominator * B, v.denominator * u, R)
        if j <= hi:
            vals.append(v)
    return vals[::-1], 4 * S * q ** (J + 1) / (1 - q) + F(n, 2 ** (R - 2))


#: (ups, downs, q, prec), every z < 1: single Pochhammers at q = 1/2 and
#: 2/3, negative z, a ratio, z near 1 in `ups` and in `downs` (factors near
#: zero); then ratios at q = 9/10 and 99/100, where Euler's series starts
#: far out, and z = -1000 (a mass factor at d = -1000) and -8, whose switch
#: index K lies far out at q = 1/2 too
LADDER_CASES = [
    ([F(1, 2)], [], F(1, 2), 64),
    ([F(3, 4)], [], F(2, 3), 64),
    ([F(-5)], [], F(1, 2), 64),
    ([F(-7, 3)], [], F(2, 3), 80),
    ([F(-1, 6)], [F(1, 3), F(-2, 5)], F(2, 3), 72),
    ([F(12, 13)], [F(1, 13)], F(1, 2), 64),
    ([F(9, 10), F(-3, 5)], [F(1, 4), F(-9, 40)], F(9, 10), 64),
    ([F(99, 100), F(-1, 2)], [F(1, 3)], F(99, 100), 24),
    ([F(-1000)], [F(1, 2000)], F(1, 2), 64),
    ([F(1, 3)], [F(-8)], F(1, 2), 64),
    ([F(-4)], [F(999, 1000)], F(1, 2), 64),
]


@pytest.mark.parametrize("case", range(len(LADDER_CASES)))
def test_ladder_error_below_stated_bound(case):
    """The ladder is within 2^-prec of the infinite product, tail cut
    included: checked exactly against partial products taken so much
    further that their own tail tau cannot hide a miss (|v - P_J| <=
    2^-prec (1 + tau) |P_J| + tau |P_J|)."""
    ups, downs, q, prec = LADDER_CASES[case]
    [want], tau = ladder_reference(ups, downs, q, 0, 0, prec + 40)
    assert abs(pair_value(_ladder(ups, downs, q, prec)) - want) \
        <= (F(1, 2**prec) * (1 + tau) + tau) * abs(want)


def outward(num: int, den: int, bits: int, up: bool) -> tuple:
    """(m, s), m 2^-s = num / den (num, den > 0) rounded down, or up if up,
    to bits or bits + 1 significant bits."""
    s = bits + den.bit_length() - num.bit_length()
    n, d = (num << s, den) if s >= 0 else (num, den << -s)
    return (-(-n // d) if up else n // d), s


def ladder_enclosure(ups, downs, q, bits) -> tuple:
    """(lo, hi), lo <= V <= hi for V = prod_(z in ups) (z; q)_inf /
    prod_(z in downs) (z; q)_inf, every z < 1: the partial products to J
    with every operation rounded outward at R = bits + 32 bits (q^j held
    between two fixed-point bounds), times the bounds [1 - 2 s, 1 + 5 s] of
    the tail (z q^J; q)_inf over all z, s = sum |z| q^J / (1 - q) <=
    2^-(bits + 4).  Its integers keep R bits whatever J is, so it reaches q =
    999/1000, where exact partial products would carry q^j exactly."""
    u, v = q.numerator, q.denominator
    S, R = sum(abs(z) for z in ups + downs), bits + 32
    one = 1 << R
    qlo = qhi = one
    lo, hi = (one, R), (one, R)     # (m, s): m 2^-s

    def bounds(z):
        """[floor, ceil] of z q^j in units of 2^-R."""
        zl, zh = (z.numerator * qlo, z.numerator * qhi) if z > 0 else \
            (z.numerator * qhi, z.numerator * qlo)
        return zl // z.denominator, -(-zh // z.denominator)

    while (S.numerator * qhi * v) << (bits + 4) > S.denominator * (v - u) * one:
        nl = nh = dl = dh = 1
        for z in ups:
            zl, zh = bounds(z)
            nl, nh = nl * (one - zh), nh * (one - zl)
        for z in downs:
            zl, zh = bounds(z)
            dl, dh = dl * (one - zh), dh * (one - zl)
        shift = R * (len(ups) - len(downs))
        m, s = outward(lo[0] * nl, dh, R, False)
        lo = (m, lo[1] + s + shift)
        m, s = outward(hi[0] * nh, dl, R, True)
        hi = (m, hi[1] + s + shift)
        qlo, qhi = qlo * u // v, -(-qhi * u // v)
    s = F(S.numerator * qhi * v, S.denominator * (v - u) * one)
    return (F(lo[0], 1) / F(2) ** lo[1] * (1 - 2 * s), F(hi[0], 1) / F(2) ** hi[1] * (1 + 5 * s))


@pytest.mark.parametrize("ups, downs, prec", [
    ([F(99, 100), F(-1, 2)], [F(1, 3)], 48),
    ([F(1, 2), F(-3)], [F(9, 10), F(-1, 4)], 48),
], ids=["case-7-ratio", "mass-like"])
def test_ladder_near_q_one_within_its_bound(ups, downs, prec):
    """At q = 999/1000, where the ladder takes about 10^4 fixed-point
    steps, it lies within 2^-prec of an outward-rounded enclosure of the
    partial products (itself under 2^-(prec + 8) wide), checked exactly."""
    q = F(999, 1000)
    lo, hi = ladder_enclosure(ups, downs, q, prec + 8)
    assert 0 < hi - lo < F(1, 2 ** (prec + 8)) * lo
    got = pair_value(_ladder(ups, downs, q, prec))
    assert lo * (1 - F(1, 2**prec)) <= got <= hi * (1 + F(1, 2**prec))


@pytest.mark.parametrize("q", [F(99, 100), F(999, 1000), F(9999, 10000)], ids=str)
def test_ladder_telescopes_exactly_near_q_one(q):
    """(z; q)_inf / (z q^2; q)_inf is exactly (1 - z)(1 - z q): the ladder
    takes every factor on its own, rounded, and Euler's series at its own
    x, so the product telescopes only within the ladder's bound."""
    for z in (F(1, 3), F(-5, 7), F(-40)):
        want = (1 - z) * (1 - z * q)
        got = pair_value(_ladder([z], [z * q * q], q, 64))
        assert abs(got - want) < F(1, 2**64) * want


@pytest.mark.parametrize("ups, downs", [([F(1, 3)], [F(1)]), ([F(4)], [F(1, 5)]),
                                        ([F(1, 5)], [F(3)])],
                         ids=["zq^0=1", "zq^0=4", "zq^0=3"])
def test_ladder_refuses_a_factor_that_is_not_positive(ups, downs):
    """A ladder with a factor 1 - z (z >= 1), zero or negative, is
    refused, not computed."""
    with pytest.raises(ValueError, match=re.escape("the ladder needs z < 1 for every z, got z = ")):
        _ladder(ups, downs, F(1, 2), 64)


def test_ladder_refuses_q_too_near_one_before_any_step(monkeypatch):
    """Near q = 1 the ladder takes about ln(8 S / (1 - q)) / (1 - q) steps;
    past MAX_STEPS it is refused at once, from a logarithm, and no power of
    q is formed: 1 - q = 1e-7 and 1e-400 refuse before `_euler` runs."""
    import qbipoly.jackson as jackson

    monkeypatch.setattr(jackson, "_euler", lambda *args: pytest.fail("a ladder ran"))
    for q in (F(10**7 - 1, 10**7), 1 - F(1, 10**400)):
        with pytest.raises(ValueError, match=re.escape(f"q={q} is too near 1: the ladder "
                                                       f"would take over {MAX_STEPS} steps")):
            _ladder([F(1, 2)], [F(-2)], q, 64)


#: beside the benchmark's domain edges: q = 2/3, q = 9/10 (where Euler's
#: series starts far out) and d = -1000 (where the ladder's switch index
#: lies far out)
FACTOR_POINTS = {**EDGE_POINTS, "q=2/3": P23,
                 "q=9/10": BigQJacobiParams(F(1, 2), F(1, 3), F(1, 4), F(-1, 2), QParam(F(9, 10))),
                 "d=-1000": BigQJacobiParams(F(1, 1000), F(1, 1000), F(1, 1000), F(-1000),
                                             QParam(F(1, 2)))}


@pytest.mark.parametrize("point", sorted(FACTOR_POINTS))
def test_node_factors_against_the_infinite_product_formula(point):
    """The outer node factors (1 - q) (+-) G(y_t) at N = 6 that the
    truncated-sum reference sums (`outer_node_weights`, on mpmath at 128
    bits) are within 2^(3 - 64) of G's infinite-product formula taken
    factor by factor (eight Pochhammer sequences as exact partial products,
    `ladder_reference`)."""
    p = FACTOR_POINTS[point]
    N, wp = 6, 64
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d
    taus = []

    def P(z):
        vals, tau = ladder_reference([z], [], q, 0, N, wp + 40)
        taus.append(tau)
        return vals

    Q, Bcq, Cq, Bq = P(q), P(b * c * q**2), P(c * q), P(b * q)
    const = c * q * (1 - q) ** 2 * Q[0] * Bcq[0] / (Cq[0] * Bq[0])
    want = ([const * u * v / (w * z) for u, v, w, z in
             zip(Q, P(a * q / d), P(a * q), P(a * b * c * q**2 / d))]
            + [-const * u * v / (w * z) for u, v, w, z in zip(P(d * q / a), Q, P(d * q), Bcq)])
    # eight partial products per value at most, each off by a relative tau
    slack = 1 + 16 * max(taus) * 2**wp
    pos, neg = outer_node_weights(p, N, FloatField(2 * wp))
    assert len(pos) == len(neg) == N + 1
    for v, w in zip(pos + neg, want):
        assert abs(mpf_value(v) - w) <= F(8, 2**wp) * slack * abs(w)


@pytest.mark.parametrize("point", sorted(FACTOR_POINTS))
def test_mass_against_the_infinite_product_formula(point):
    """M_00 of a 64-bit table is within 2^-64 of the Andrews-Askey mass
    written as G's constant times the outer integral,

        cq (1 - q) (q, bcq^2; q)_inf / (cq, bq; q)_inf
        * aq (1 - q) (q, aq/d, d/a, abcq^3; q)_inf / (bcq^2, aq, dq, abcq^2/d; q)_inf,

    each Pochhammer from exact partial products (`ladder_reference`, ten
    sequences, each off by a relative tau)."""
    p, prec = FACTOR_POINTS[point], 64
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d
    taus = []

    def P(z):
        [val], tau = ladder_reference([z], [], q, 0, 0, prec + 40)
        taus.append(tau)
        return val

    bcq2 = b * c * q * q
    want = (c * q * (1 - q) * P(q) * P(bcq2) / (P(c * q) * P(b * q))
            * a * q * (1 - q) * P(q) * P(a * q / d) * P(d / a) * P(a * b * c * q**3)
            / (P(bcq2) * P(a * q) * P(d * q) * P(a * bcq2 / d)))
    slack = 1 + 32 * max(taus) * 2**prec
    got = MomentTable(p, max_degree=0, prec=prec).moment(0, 0)
    assert abs(got - want) <= F(1, 2**prec) * slack * want


@pytest.mark.parametrize("c", [F(1), F(1, 2), F(1, 4)])
def test_moment_table_refuses_c_a_power_of_q(c):
    """At c = q^k, k >= 0, (x/(cy); q)_inf vanishes on the weight's lattice
    and the outer factors of y < 0 would divide by it: the table refuses the
    point with the message the CLI prints, before any lattice work."""
    p = BigQJacobiParams(F(1, 3), F(1, 4), c, F(-1, 2), QParam(F(1, 2)))
    message = f"the orthogonality weight needs c != q^k (k >= 0), got c={c}, q=1/2"
    with pytest.raises(ValueError, match=re.escape(message)):
        MomentTable(p, max_degree=2, prec=80)


def test_moment_table_refuses_a_negative_degree():
    """A negative degree once raised a TypeError from inside the engine: it
    is refused by name."""
    with pytest.raises(ValueError, match=re.escape("max_degree must be at least 0, got -1")):
        MomentTable(TEST_PARAMS, -1, 128)


@pytest.mark.parametrize("c", [F(1), F(1, 2), F(1, 4)])
def test_orthogonality_suite_refuses_c_a_power_of_q(c):
    p = BigQJacobiParams(F(1, 3), F(1, 4), c, F(-1, 2), QParam(F(1, 2)))
    with pytest.raises(ValueError, match=re.escape(f"got c={c}, q=1/2")):
        run_suite("orthogonality", p=p, prec=80)


@pytest.mark.parametrize("c", [F(3, 2), F(3, 4), F(1, 3)])
def test_weight_accepts_c_off_the_powers_of_q(c):
    check_weight_params(BigQJacobiParams(F(1, 3), F(1, 4), c, F(-1, 2), QParam(F(1, 2))))


def test_weight_params_near_q_one_decided_from_lowest_terms():
    # a walk over the powers of q would take about ln(1/c)/(1 - q) steps
    q = F("0." + "9" * 30)
    for k in (0, 1, 7, 100):
        c = q**k
        with pytest.raises(ValueError, match=re.escape("the orthogonality weight needs c != q^k")):
            check_weight_params(BigQJacobiParams(F(1, 3), F(1, 4), c, F(-1, 2), QParam(q)))
    for c in (F(1, 5), q**7 * F(999, 1000), F(1, 10**30)):
        check_weight_params(BigQJacobiParams(F(1, 3), F(1, 4), c, F(-1, 2), QParam(q)))


def brute_node_signs(signs, N) -> list:
    """The nonzero node weights' signs yfac A B over node signs laid out as
    `exact_node_signs` returns them, one product per node."""
    A_cq, B_cq, A_d, B_d, B_neg, yfacs = signs
    out = []
    for t in range(N + 1):
        out += [yfacs[t] * A_cq[r] * B_cq[t + r] for r in range(N + 1)]
        out += [yfacs[t] * A_d[r] * B_d[r - t + N] for r in range(N + 1)]
        out += [yfacs[N + 1 + t] * A_d[r] * B_neg[r - t + N] for r in range(t + 1)]
    return [v for v in out if v]


def exact_node_signs(p, N) -> tuple:
    """The signs (-1, 0 or 1) of the weight's node factors at truncation N,
    (A_cq, B_cq, A_d, B_d, B_neg, yfacs): the node weight at x = cqy q^r (x
    > 0), x = d q^{1+r} (x < 0), y = a q^{1+t} (y > 0) and y = d q^{1+t} (y <
    0) is yfac(t) A(r) B(index), each a ratio of factors (z q^k; q)_inf; the
    lists run over r, t + r and r - t (+ N), and yfacs over y > 0, then y <
    0.  Each is the sign of exact partial products taken so far out that
    every later factor is positive (`ladder_reference`), and yfac = Y(t) /
    (B(-t) (y_t - d/c)) from those and one exact rational."""
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d

    def S(ups, downs, lo, hi):
        return [(v > 0) - (v < 0) for v in ladder_reference(ups, downs, q, lo, hi, 4)[0]]

    B_d, B_neg = S([d / (a * c)], [d / a], -N, N), S([1 / c], [F(1)], -N, 0)
    yfacs = []
    for y0, ys, bs in ((a, S([q, a * q / d], [a * c * q**2 / d, a * q], 0, N), B_d),
                       (d, S([d * q / a, q], [c * q**2, d * q], 0, N), B_neg)):
        yfacs += [u * v * ((y0 * q ** (1 + t) > d / c) - (y0 * q ** (1 + t) < d / c))
                  for t, (u, v) in enumerate(zip(ys, bs[N::-1]))]
    return (S([q], [c * q], 0, N), S([a * c * q**2 / d], [a * b * c * q**2 / d], 0, 2 * N),
            S([q], [b * q], 0, N), B_d, B_neg, yfacs)


def unchecked_params(a, b, c, d, q) -> BigQJacobiParams:
    """BigQJacobiParams without the domain check of __post_init__."""
    p = object.__new__(BigQJacobiParams)
    for name, v in zip("abcd", (a, b, c, d)):
        object.__setattr__(p, name, v)
    object.__setattr__(p, "qp", QParam(q))
    return p


#: q = 9/10; two points off the domain, where some node weights are
#: negative: aq > 1, and d > 0 with a c q^2 / d = q^-14, so that B_cq(k) is
#: exactly zero for k <= 14 and so is every weight of the nodes t + r <= 14
#: on x > 0, while B_d keeps no zero (it divides yfac)
SIGN_POINTS = {
    "q=9/10": (BigQJacobiParams(F(1, 2), F(1, 3), F(1, 4), F(-1, 2), QParam(F(9, 10))), 40),
    "aq>1": (unchecked_params(F(3), F(1, 4), F(1, 5), F(-1, 2), F(1, 2)), 12),
    "zero-weights": (unchecked_params(F(1, 3), F(1, 3), F(1, 5), F(1, 15) * F(1, 2) ** 16,
                                      F(1, 2)), 12),
}


@pytest.mark.parametrize("point", sorted(SIGN_POINTS))
def test_weight_positive_at_q_near_one_and_with_zero_node_weights(point):
    """The least nonzero node sign yfac A B over exact partial products,
    found by a brute loop over the nodes, is positive at q = 9/10, where the
    table reads True; off the domain some node weight is negative, and the
    table refuses the point instead of computing it."""
    p, N = SIGN_POINTS[point]
    signs = exact_node_signs(p, N)
    assert (min(brute_node_signs(signs, N)) > 0) is (point == "q=9/10")
    assert signs[1].count(0) == (15 if point == "zero-weights" else 0)
    if point == "q=9/10":
        assert MomentTable(p, max_degree=2, prec=80).weight_positive is True
    else:
        with pytest.raises(ValueError, match=re.escape("the ladder needs z < 1 for every z")):
            MomentTable(p, max_degree=2, prec=80)


def assert_node_weights_positive(p, N=16):
    """The domain theorem (`MomentTable`'s Positivity) at one point: every
    node weight of the truncated lattice, signed from exact partial
    products (`exact_node_signs`, `brute_node_signs`), is positive or zero,
    and some is positive."""
    nonzero = brute_node_signs(exact_node_signs(p, N), N)
    assert nonzero and min(nonzero) > 0, p


def test_weight_positive_at_the_sweep_points():
    """The domain theorem at every point of sweep_points(40), where every
    table reads True."""
    for p in sweep_points(40):
        assert_node_weights_positive(p)
        assert MomentTable(p, max_degree=1, prec=64).weight_positive is True


def domain_draws(q, count, seed):
    """Seeded points at base q with c in (1, 1/q), cq near 1, and c just
    above and below q and q^3: the edges of the count T that fixes the
    signs of the y < 0 ratios."""
    rng = random.Random(seed)
    cs = [1 + (1 / q - 1) * F(rng.randint(1, 99), 100) for _ in range(count)]
    cs += [(1 - F(1, 1000)) / q, (1 - F(1, 10**9)) / q]
    cs += [q**k * (1 + s * F(1, 1000)) for k in (1, 3) for s in (-1, 1)]
    return [BigQJacobiParams(F(rng.randint(1, 12), 13) / q, F(rng.randint(1, 12), 13) / q, c,
                             -F(rng.randint(1, 39), 13), QParam(q)) for c in cs]


@pytest.mark.parametrize("q", [F(1, 3), F(1, 2), F(2, 3), F(9, 10)], ids=str)
def test_node_weights_are_positive_on_the_domain(q):
    """The domain theorem at seeded draws off the sweep's grid of c."""
    for p in domain_draws(q, 4, seed=59):
        assert_node_weights_positive(p)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_node_weights_at_c_a_power_of_q_are_never_negative(k):
    """At c = q^k, which the table refuses, every y < 0 node weight vanishes
    (a factor of (x/(cy); q)_inf) and none of the others is negative."""
    N, q = 16, F(1, 2)
    p = BigQJacobiParams(F(1, 3), F(1, 4), q**k, F(-1, 2), QParam(q))
    signs = exact_node_signs(p, N)
    assert signs[5][N + 1:] == [0] * (N + 1)
    assert_node_weights_positive(p, N)


@pytest.mark.parametrize("point", sorted(EDGE_POINTS))
def test_moment_table_at_the_benchmark_domain_edges(point):
    """At 120 bits the table agrees with itself at 64 more bits within
    2^(16 - prec) of max(|M_ij|, |M_00|)."""
    p, prec = EDGE_POINTS[point], 120
    got = MomentTable(p, max_degree=8, prec=prec)
    ref = MomentTable(p, max_degree=8, prec=prec + 64)
    m00 = abs(ref.moment(0, 0))
    for i in range(5):
        for j in range(5):
            bound = F(2) ** (16 - prec) * max(abs(ref.moment(i, j)), m00)
            assert abs(ref.moment(i, j) - got.moment(i, j)) <= bound


@pytest.mark.parametrize("p", REFERENCE_POINTS, ids=REFERENCE_IDS)
def test_moments_equal_the_truncated_outer_sum(p):
    """Every moment of a degree-6 table at 64 bits equals the truncated
    outer Jackson sum (on mpmath at 128 bits, cut where rho^N < 2^-72)
    within 2^(1 - 64) of itself, plus the sum's tail and its rounding: the
    Andrews-Askey closed form and its exact ratios against the sum they
    replace, at the 40 sweep points, q = 9/10, q = 99/100 and d = -1000."""
    prec, D = 64, 6
    fld = FloatField(2 * prec)
    rho = p.qp.q * max(1, p.a, p.b * p.c * p.qp.q)
    N = math.ceil((prec + 8) / -math.log2(rho)) + 1
    mt = MomentTable(p, D, prec)
    for (i, j), (M, tail, scale) in truncated_outer_moments(p, D, N, fld).items():
        got = mt.moment(i, j)
        bound = F(2) ** (1 - prec) * abs(got) + mpf_value(tail) + F(2) ** (24 - 2 * prec) * mpf_value(scale)
        assert abs(got - mpf_value(M)) <= bound, (i, j)


#: (point, truncation): the inner integrals' closed form is checked at
#: these, at the outer nodes t = 0, N/2 and N of both branches
CLOSED_FORM_POINTS = {
    "test-params": (TEST_PARAMS, 96), "q=2/3": (P23, 96), "|dq|>1": (PBIG, 96),
    "d=-1000": (BigQJacobiParams(F(1, 1000), F(1, 1000), F(1, 1000), F(-1000), QParam(F(1, 2))),
                96),
    "q=9/10": (SIGN_POINTS["q=9/10"][0], 40),
}


@pytest.mark.parametrize("point", sorted(CLOSED_FORM_POINTS))
def test_inner_integrals_have_their_closed_form(point):
    """(1 - q) (+-) G(y_t) Q_i(y_t), the engine's inner integral of x^i (i
    <= 6) times the weight's y part and the outer Jackson factor over y_t
    (G from `outer_node_weights`), against a brute inner Jackson sum of the written weight on mpmath at
    prec + 64, carried until its tail is under 2^-(prec + 8): within
    2^-prec of the brute sum of the terms' absolute values, at 96 bits."""
    p, N = CLOSED_FORM_POINTS[point]
    prec, D = 96, 6
    fld = FloatField(prec + 64)
    q = fld.of(p.qp.q)
    weights = outer_node_weights(p, N, fld)
    polys = inner_ratios(p, D)
    for t in (0, N // 2, N):
        for sigma in (1, -1):
            g = mpf_value(weights[sigma < 0][t])
            yv, column = brute_column(p, t, sigma, fld, prec + 8, D)
            y_exact = (p.a if sigma > 0 else p.d) * p.qp.q ** (1 + t)
            terms = [sigma * (1 - q) * jx * w for _, jx, w in column]
            for nums, den in polys:
                got = g * sum(n * y_exact**m for m, n in nums.items()) / den
                want, scale = fld.ctx.fsum(terms), fld.ctx.fsum(map(abs, terms))
                assert abs(got - mpf_value(want)) <= F(2) ** -prec * mpf_value(scale)
                terms = [v * xv for v, (xv, _, _) in zip(terms, column)]


def test_moment_table_computes_one_ladder(monkeypatch):
    """Both integrals are closed forms: a degree-6 table sums no Jackson
    sum and calls `_ladder` once, for M_00's five factors over five, at its
    own precision."""
    calls = []

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    ladder = bigqjacobi._ladder
    monkeypatch.setattr(bigqjacobi, "_ladder", counted)
    MomentTable(TEST_PARAMS, 6, 128)
    assert [(len(ups), len(downs), q, prec) for ups, downs, q, prec in calls] == \
        [(5, 5, F(1, 2), 128)]


def test_moment_table_rounds_nothing(monkeypatch):
    """A degree-6 table builds no mpmath context and makes no infinite
    product of field values; its 28 moments, of the triangle i + j <= 6,
    are exact rationals, and it decides weight positivity exactly."""
    import mpmath
    import qbipoly.qcalc as qcalc

    contexts, products = [], []
    init, pochhammer = mpmath.MPContext.__init__, qcalc.qpochhammer_inf
    monkeypatch.setattr(mpmath.MPContext, "__init__",
                        lambda self: contexts.append(self) or init(self))
    monkeypatch.setattr(qcalc, "qpochhammer_inf",
                        lambda *args: products.append(args) or pochhammer(*args))
    mt = MomentTable(TEST_PARAMS, 6, 128)
    assert mt.weight_positive is True
    moments = [mt.moment(i, j) for i in range(7) for j in range(7 - i)]
    assert len(moments) == 28 and moments[0] > 0
    assert all(type(m) is Fraction for m in moments)
    assert contexts == [] and products == []


#: the sha256 of repr((sorted(_fixed.items()), _num, _den, weight_positive))
#: of the degree-6 table at (point, precision): the preset at 128 bits, a
#: benchmark candidate at 136 and q = 2/3 at the CLI default 192, recorded
#: when the outer integral became its closed form (the exact ratios and the
#: one ladder of M_00; every moment moved by under 4 q^T + 2^-prec of
#: max(|M_ij|, M_00) from the truncated tables before, at their
#: truncations T = 96, 96 and 200)
TABLE_DIGESTS = {
    ("test-params", 128): "0e821618e78ad14931d113f55f1a98acb16644a654b15c4cdbfb01677ab9b8e1",
    ("benchmark", 136): "e08b753cc30cb596a0022cab46d6951dbd7d820bbbfb01e5970a1845a1ba686c",
    ("q=2/3", 192): "e01a53694ada30d984ad427ca86807c2b8c090eda16b32c029dbfa5bc55dff50",
}


def pinned_table(case) -> MomentTable:
    point, prec = case
    p = {"test-params": TEST_PARAMS, "q=2/3": P23,
         "benchmark": BigQJacobiParams(F(10, 11), F(2, 5), F(23, 13), F(-20, 13),
                                       QParam(F(1, 2)))}[point]
    return MomentTable(p, max_degree=6, prec=prec)


def table_digest(mt) -> str:
    state = repr((sorted(mt._fixed.items()), mt._num, mt._den, mt.weight_positive))
    return hashlib.sha256(state.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TABLE_DIGESTS), ids=lambda c: "%s-%d" % c)
def test_moment_table_exact_pairs_are_pinned(case):
    """Every exact ratio, M_00 and the weight verdict of a degree-6 table,
    bit for bit; the table keeps the triangle i + j <= 6."""
    mt = pinned_table(case)
    assert sorted(mt._fixed) == [(i, j) for i in range(7) for j in range(7 - i)]
    assert table_digest(mt) == TABLE_DIGESTS[case]


#: the sha256 of repr([(sorted(_fixed.items()), _num, _den) per table]) of
#: the degree-6 tables at 128 bits at `REFERENCE_POINTS`, then the preset's
#: at max_degree 0, 1 and 12: recorded when the inner and the outer ratios
#: still had a basis change each, before one kernel served both
DOMAIN_TABLES_DIGEST = "9f81fdba9e4bd997ac4e05aac971ba5bb70777f89693a459f438b0d4b07c7e2f"


def test_moment_tables_across_the_domain_are_pinned():
    """Both ratio sets from the one kernel, bit for bit, at the 40 sweep
    points, q = 9/10, q = 99/100, d = -1000 and three preset degrees."""
    tables = [MomentTable(p, 6, 128) for p in REFERENCE_POINTS] \
        + [MomentTable(TEST_PARAMS, D, 128) for D in (0, 1, 12)]
    state = repr([(sorted(mt._fixed.items()), mt._num, mt._den) for mt in tables])
    assert hashlib.sha256(state.encode()).hexdigest() == DOMAIN_TABLES_DIGEST


@pytest.mark.parametrize("p", sweep_points(40), ids=[f"sweep-{k}" for k in range(40)])
def test_nonmonic_family_is_an_orthogonal_basis(p):
    """The product construction of `nonmonic_polys` is orthogonal under
    the weight: the Gram matrix of the ten P_(n,k) with n <= 3 has exactly
    0 at all 45 off-diagonal pairs, equal total degrees included, and a
    positive norm on the diagonal."""
    pairs = [(n, k) for n in range(4) for k in range(n + 1)]
    polys = nonmonic_polys(p, pairs)
    G = MomentTable(p, 6, 128).gram([polys[nk] for nk in pairs])
    assert all(G[i][j] == 0 for i in range(10) for j in range(i))
    assert all(G[i][i] > 0 for i in range(10))


def test_moment_table_refusal_names_the_monomial():
    """The table holds the total-degree triangle i + j <= max_degree, not
    the box: x^2 y^1 integrates at max_degree 3 and x^3 y^3 does not, and a
    monomial past the triangle is named in the refusal, for `integrate` and
    for a `gram` product."""
    mt = MomentTable(TEST_PARAMS, max_degree=3, prec=80)
    assert mt.integrate(x**2 * y + y**3) != 0
    triangle = "the moment table covers x^i y^j for i + j <= 3; "
    with pytest.raises(ValueError, match=re.escape(triangle + "x^3 y^3 is outside it")):
        mt.integrate(x**3 * y**3)
    with pytest.raises(ValueError, match=re.escape(triangle + "x^4 y^0 is outside it")):
        mt.integrate(x**4 + y)
    with pytest.raises(ValueError, match=re.escape(triangle + "x^1 y^3 is outside it")):
        mt.gram([x, y**3])


@pytest.mark.parametrize("point", ["test-params", "q=2/3", "|dq|>1"])
def test_gram_is_integrate_of_each_product_bit_for_bit(point):
    """gram(polys)[a][b] == integrate(polys[a] * polys[b]) exactly, both
    Fractions, for every pair of the orthogonality suite's inventory of all
    three families, with polynomials of content > 1 whose products reduce
    by that content, and the zero polynomial; a product past the table
    raises as integrate does."""
    from qbipoly.suites import ORTH_TOTAL, _solution_inventory

    p = {"test-params": TEST_PARAMS, "q=2/3": P23, "|dq|>1": PBIG}[point]
    mt = MomentTable(p, max_degree=2 * ORTH_TOTAL, prec=96)
    fam = generate_monic_oracle(preset_equation(p), ORTH_TOTAL)
    polys = [poly for *_, poly in _solution_inventory(p, fam, ORTH_TOTAL)]
    polys += [x * 6 + y * 4 - 10, (x * 9 - 3) * F(1, 2), x * y * F(2, 3), (y * 2 + 1) * F(5, 3),
              (x * y - 2) * F(3, 5), BiPoly.zero()]
    assert [(poly.den, math.gcd(*poly.nums.values())) for poly in polys[-6:-1]] == \
        [(1, 2), (2, 3), (3, 2), (3, 5), (5, 3)]
    G = mt.gram(polys)
    for a, pa in enumerate(polys):
        for b, pb in enumerate(polys):
            assert G[a][b] == mt.integrate(pa * pb)
            assert type(G[a][b]) is Fraction
    assert G[-1][0] == 0
    with pytest.raises(ValueError):
        mt.gram([x**4, y**3])


def test_orthogonality_suite_at_eight_sweep_points():
    """The suite at every fifth of sweep_points(40), at 109 bits (the
    precision that the former error-bound gate named at each of them):
    every gated row passes, every pair that the functional separates prints
    exactly 0, in under 1 s of CPU time in all."""
    started = time.process_time()
    for p in sweep_points(40)[::5]:
        ok, rows = run_suite("orthogonality", p=p, prec=109)
        assert ok, [row for row in rows if row[4] == "False"]
        assert sum(row[4] == "True" for row in rows) == 147
        pairs = [row for row in rows if row[0] == "pair"]
        assert len(pairs) == 115 and {row[3] for row in pairs} == {"0.0"}
    assert time.process_time() - started < 1


def test_orthogonality_suite_integrates_only_through_gram(monkeypatch):
    """Every value of the functional in the suite, H_1 included, comes from
    `gram`: `integrate` never runs."""
    calls = []
    integrate = MomentTable.integrate

    def counted(self, poly):
        calls.append(poly)
        return integrate(self, poly)

    monkeypatch.setattr(MomentTable, "integrate", counted)
    ok, rows = run_suite("orthogonality", p=TEST_PARAMS, prec=120)
    assert ok and calls == []
    assert ("weight_positive", "every node weight", "on the domain", "proved", "True") in rows


def exact_functional(mt, poly) -> Fraction:
    """The functional on the table's exact moments, as a Fraction."""
    return sum((n * mt.moment(i, j) for (i, j), n in poly.nums.items()), F(0)) / poly.den


def test_integrate_is_the_exact_sum():
    """integrate is the exact rational sum over the table's moments, a
    Fraction, whatever mpmath.mp.prec; the zero polynomial gives 0 and a
    degree past the table raises."""
    import mpmath

    mt = MomentTable(TEST_PARAMS, max_degree=6, prec=96)
    polys = [x * y * F(2, 3) + x * x - F(1, 7), (x - y * F(5, 11)) ** 3 * F(-9, 4),
             BiPoly.const(F(1, 3)), x**3 * y**3 - x * F(10**40, 3) + F(10**40, 3)]
    saved = mpmath.mp.prec
    try:
        for prec in (saved, 20, 1000):
            mpmath.mp.prec = prec
            for poly in polys:
                got = mt.integrate(poly)
                assert type(got) is Fraction
                assert got == exact_functional(mt, poly)
    finally:
        mpmath.mp.prec = saved
    assert mt.integrate(BiPoly.zero()) == 0
    assert type(mt.integrate(BiPoly.zero())) is Fraction
    with pytest.raises(ValueError):
        mt.integrate(x**7)
    with pytest.raises(ValueError):
        mt.integrate(x**4 * y**3 + x)
