import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qbipoly.bigqjacobi import TEST_PARAMS, BigQJacobiParams, preset_equation
from qbipoly.bipoly import BiPoly
import qbipoly.equation as equation_module
from qbipoly.equation import (EquationCoeffs, ShapeViolation,
                              admissibility, apply_operator,
                              check_hypergeometric_form, derived_coeffs)
from qbipoly.io import parse_equation_source
from qbipoly.qcalc import QParam, dq1, dq2, dqm1, dqm2, qnum
from test_bigqjacobi import big_q_jacobi_points

F = Fraction
x = BiPoly.x()
y = BiPoly.y()

#: a second admissible preset point, off the q = 1/2 lattice of TEST_PARAMS
Q23_PARAMS = BigQJacobiParams(F(1, 2), F(3, 4), F(1, 3), F(-2, 3), QParam(F(2, 3)))


def closed_forms(E: EquationCoeffs, k: int, l: int, lam):
    """Closed-form coefficients (C11, C22, A12a, A12d, B1, B2, mu) of the
    (k, l) derived equation: the reference that the iterated one-step
    recurrence in derived_coeffs must reproduce exactly."""
    qp = E.qp
    q = qp.q
    x = BiPoly.x()
    y = BiPoly.y()
    one = BiPoly.const(1)
    a1, b1s, _ = E.sigma1()
    a2, b2s, _ = E.sigma2()
    a3a, b3a, c3a, _ = E.cross_a()
    a3d, b3d, c3d, _ = E.cross_d()
    f1, _ = E.tau1()
    f2, _ = E.tau2()
    nk, nl = qnum(k, qp), qnum(l, qp)

    c11 = E.c11 / q**k + x * (x * a3d + c3d) * ((1 - q**l) / q ** (k + l - 1))
    c22 = E.c22 / q**l + y * (y * a3d + b3d) * ((1 - q**k) / q ** (k + l - 1))
    a12a = E.a12a.scale_args(q**k, q**l)
    a12d = E.a12d / q ** (k + l)
    b1 = (E.b1.scale_args(q**k, 1)
          + (one * c3d + x * (a3d - a3a * q ** (k + l - 1))) * ((1 - q) * nk * nl / q ** (k + l - 1))
          + (one * b1s + x * (a1 * (q**k + 1))) * (nk / q ** (k - 1))
          + (one * c3d + x * a3d + (one * c3a + x * a3a) * q ** (l - 1)) * (nl / q ** (l - 1)))
    b2 = (E.b2.scale_args(1, q**l)
          + (one * b3d + y * (a3d - a3a * q ** (k + l - 1))) * ((1 - q) * nk * nl / q ** (k + l - 1))
          + (one * b2s + y * (a2 * (q**l + 1))) * (nl / q ** (l - 1))
          + (one * b3d + y * a3d + (one * b3a + y * a3a) * q ** (k - 1)) * (nk / q ** (k - 1)))
    mu = (lam + nk * (f1 * q ** (k - 2) + a1 * qnum(k - 1, qp)) / q ** (k - 2)
          + nl * (f2 * q ** (l - 2) + a2 * qnum(l - 1, qp)) / q ** (l - 2)
          + nk * nl * (a3d + a3a * q ** (k + l - 2)) / q ** (k + l - 2))
    return c11, c22, a12a, a12d, b1, b2, mu


def six_polys(E: EquationCoeffs) -> tuple:
    """The six coefficient polynomials of an equation, in field order."""
    return E.c11, E.c22, E.a12a, E.a12d, E.b1, E.b2


def assert_routes_agree(E: EquationCoeffs, k: int, l: int, lam=F(0)):
    D = derived_coeffs(E, k, l, lam=lam)
    names = ("C11", "C22", "A12a", "A12d", "B1", "B2", "mu")
    for name, rec, clo in zip(names, six_polys(D) + (D.mu,), closed_forms(E, k, l, lam)):
        assert rec == clo, f"closed form for {name} at order ({k},{l}) disagrees with the recurrence"


def test_preset_passes_form_check(equation):
    assert check_hypergeometric_form(equation)["ok"]


def test_zero_equation_is_well_formed(qp):
    z = BiPoly.zero()
    E = EquationCoeffs(qp, z, z, z, z, z, z)
    assert check_hypergeometric_form(E)["ok"]


def test_form_check_flags_quadratic_cross_term(equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22,
                         equation.a12a + x * x, equation.a12d,
                         equation.b1, equation.b2)
    rep = check_hypergeometric_form(bad)
    assert not rep["ok"]
    assert not rep["a12a_bilinear"]
    assert any("A12a" in v for v in rep["violations"])
    with pytest.raises(ShapeViolation):
        bad.cross_a()


def test_extractors(equation, qp):
    a1, b1s, c1s = equation.sigma1()
    assert a1 == 1
    a2 = equation.sigma2()[0]
    assert a2 == 1
    f1, g1 = equation.tau1()
    q = qp.q
    abc = F(1, 3) * F(1, 4) * F(1, 5)
    assert f1 == q * (abc * q ** 3 - 1) / (q - 1)
    a3a = equation.cross_a()[0]
    assert a3a == a1 * q + f1 * (q - 1)
    assert equation.cross_d()[0] == a1


# admissibility ---------------------------------------------------------------

def test_admissibility_passes(adm):
    assert adm.admissible and not adm.failures


def test_eigenvalues(adm):
    assert adm.eigenvalue(0) == 0
    assert adm.eigenvalue(1) == F(-479, 480)
    values = [adm.eigenvalue(n) for n in range(21)]
    assert len(set(values)) == 21  # injective on the tested range


def test_admissibility_fails_on_perturbed_cross_term(equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    res = admissibility(bad)
    assert not res.admissible
    assert any("a3d" in msg for msg in res.failures)


def test_admissibility_structural_spectral_check(qp):
    # a1 = 1, f1 = q [1-m] at m = 2 makes the spectral condition fail
    res = admissibility(equation_from(qp, F(1), qp.q * qnum(-1, qp)))
    assert not res.admissible
    assert res.failures == ["spectral condition fails at m=2"]


def equation_from(qp, a1, f1):
    """The admissible-shaped equation with sigma leading coefficient a1 and
    tau slope f1 (every other coefficient zero)."""
    q = qp.q
    return EquationCoeffs(
        qp,
        BiPoly({(2, 0): a1 * q}),
        BiPoly({(0, 2): a1 * q}),
        BiPoly({(1, 1): a1 * q + f1 * (q - 1)}),
        BiPoly({(1, 1): a1}),
        BiPoly({(1, 0): f1}),
        BiPoly({(0, 1): f1}),
    )


@pytest.mark.parametrize("a1, m", [(F(1), 70), (F(-3, 5), 65), (F(0), 0)])
def test_admissibility_spectral_check_at_any_m(qp, a1, m):
    # f1 = a1 q [1-m] makes the spectral condition fail at m, however large;
    # a1 = f1 = 0 fails it at every m, reported at m = 0
    f1 = a1 * qp.q * qnum(1 - m, qp)
    res = admissibility(equation_from(qp, a1, f1))
    assert not res.admissible
    assert res.failures == [f"spectral condition fails at m={m}"]


def test_admissibility_near_q_one_is_decided_at_once():
    # the spectral value 1 + (q-1) f1/(a1 q) = 2 (a1 = 1, f1 = q/(q-1)) is
    # no power of q; walking the powers q^(1-m) up to 2 would take about
    # ln 2 / (1 - q) steps on ever longer fractions
    q = F(999999, 1000000)
    E = parse_equation_source(
        f"q = {q}\nc11 = 2,0:{q} 0,0:{q}\nc22 = 0,2:{q} 0,0:{q}\na12a = 1,1:{2 * q}\n"
        f"a12d = 1,1:1 0,0:1\nb1 = 1,0:-999999\nb2 = 0,1:-999999\n")[0]
    started = time.perf_counter()
    res = admissibility(E)
    assert time.perf_counter() - started < 1
    assert res.admissible and res.failures == []
    # f1 = a1 q [1-m] at m = 5000 fails the condition at exactly that m
    qp = QParam(q)
    res = admissibility(equation_from(qp, F(1), qp.q * qnum(1 - 5000, qp)))
    assert res.failures == ["spectral condition fails at m=5000"]


#: eigenvalue indices checked pairwise
EIGEN_BOUND = 20


def assert_eigenvalue_gaps(adm):
    """lambda_n - lambda_m = ([m] - [n]) (f1 - a1 q [1-n-m]) exactly for
    n, m <= EIGEN_BOUND, and a zero gap only where the spectral condition
    fails at n + m, which admissibility refuses."""
    qp, f1, a1 = adm.qp, adm.f1, adm.a1
    lam = [adm.eigenvalue(n) for n in range(EIGEN_BOUND + 1)]
    for n in range(EIGEN_BOUND + 1):
        for m in range(n):
            spectral = f1 - a1 * qp.q * qnum(1 - n - m, qp)
            assert lam[n] - lam[m] == (qnum(m, qp) - qnum(n, qp)) * spectral, (n, m)
            if lam[n] == lam[m]:
                assert spectral == 0 and not adm.admissible, (n, m)
    if adm.admissible:
        assert len(set(lam)) == EIGEN_BOUND + 1


@seed(2013)
@settings(max_examples=40, deadline=None, database=None)
@given(big_q_jacobi_points(), st.integers(0, 3), st.data())
def test_eigenvalues_distinct_on_the_preset_sweep(p, total, data):
    # the seeded 40-point sweep of test_bigqjacobi.test_routes_agree_across_the_domain:
    # the same seed and strategies draw the same points
    adm = admissibility(preset_equation(p))
    assert adm.admissible
    assert_eigenvalue_gaps(adm)


@st.composite
def spectral_points(draw):
    """(q, a1, f1), with f1 = a1 q [1-k] (a collision of lambda_n and
    lambda_(k-n)) in about a third of the draws."""
    qp = QParam(draw(st.fractions(min_value=0, max_value=1, max_denominator=12)
                     .filter(lambda t: 0 < t < 1)))
    a1 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
    if draw(st.integers(0, 2)) == 0:
        f1 = a1 * qp.q * qnum(1 - draw(st.integers(0, 2 * EIGEN_BOUND)), qp)
    else:
        f1 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
    return qp, a1, f1


@seed(20)
@settings(max_examples=100, deadline=None, database=None)
@given(spectral_points())
def test_eigenvalues_collide_only_where_the_spectral_condition_fails(point):
    qp, a1, f1 = point
    assert_eigenvalue_gaps(admissibility(equation_from(qp, a1, f1)))


# operator application ---------------------------------------------------------

def test_operator_on_constant(equation):
    assert apply_operator(equation, BiPoly.const(1)).is_zero()


def test_operator_on_y(equation):
    f2, g2 = equation.tau2()
    assert apply_operator(equation, y) == y * f2 + BiPoly.const(g2)


def reference_operator(E, f: BiPoly) -> BiPoly:
    """The operator as six compositions of whole-polynomial difference
    passes, each multiplied by its coefficient, and summed: the reference
    for the one-pass apply_operator."""
    qp = E.qp
    return (E.c11 * dq1(dqm1(f, qp), qp)
            + E.c22 * dq2(dqm2(f, qp), qp)
            + E.a12a * dq1(dq2(f, qp), qp)
            + E.a12d * dqm1(dqm2(f, qp), qp)
            + E.b1 * dq1(f, qp)
            + E.b2 * dq2(f, qp))


OPERATOR_PARAMS = [TEST_PARAMS, Q23_PARAMS,
                   BigQJacobiParams(F(1, 2), F(3, 4), F(1, 3), F(-2, 3), QParam(F(9, 10)))]


@cache
def operator_equations(index: int) -> dict:
    """{(k, l): derived_coeffs of order (k, l) <= (2, 2)} at a point of
    OPERATOR_PARAMS (q = 1/2, 2/3, 9/10), with the EquationCoeffs itself
    at (0, 0)."""
    E = preset_equation(OPERATOR_PARAMS[index])
    return {(k, l): derived_coeffs(E, k, l) if k or l else E for k in range(3) for l in range(3)}


@st.composite
def polys_to_degree_8(draw):
    d = draw(st.integers(0, 8))
    monos = st.tuples(st.integers(0, d), st.integers(0, d)).filter(lambda m: sum(m) <= d)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    return BiPoly(draw(st.dictionaries(monos, coeffs, max_size=12)))


@seed(149)
@settings(max_examples=120, deadline=None, database=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), polys_to_degree_8())
def test_operator_equals_the_six_part_composition(index, k, l, f):
    E = operator_equations(index)[(k, l)]
    assert apply_operator(E, f) == reference_operator(E, f)


@pytest.mark.parametrize("index", range(3), ids=["q=1/2", "q=2/3", "q=9/10"])
def test_operator_on_zero_constant_and_degree_one(index):
    for E in operator_equations(index).values():
        for f in (BiPoly.zero(), BiPoly.const(F(-3, 7))):
            assert apply_operator(E, f) == reference_operator(E, f) == BiPoly.zero()
        for f in (x, y, x * F(2, 3) - y * 5 + 1):
            assert apply_operator(E, f) == reference_operator(E, f)
            assert apply_operator(E, f).total_degree() <= 1


def test_operator_degree_nonincrease(equation):
    for p in (x ** 3, x * x * y, x * y * y + x, y ** 4):
        img = apply_operator(equation, p)
        assert img.total_degree() <= p.total_degree()


def apply_adjoint(E, f: BiPoly) -> BiPoly:
    """The adjoint operator; multiplication by the coefficient happens inside
    the differences, with the same sqrt(q)-absorbed convention."""
    qp = E.qp
    q = qp.q
    return (dq1(dqm1(E.c11 * f, qp), qp)
            + dq2(dqm2(E.c22 * f, qp), qp)
            + dq1(dq2(E.a12d * f, qp), qp) * q**2
            + dqm1(dqm2(E.a12a * f, qp), qp) * (1 / q**2)
            - (dqm1(E.b1 * f, qp) + dqm2(E.b2 * f, qp)) * (1 / q))


def test_adjoint_of_zero(equation):
    assert apply_adjoint(equation, BiPoly.zero()).is_zero()


def test_adjoint_nontrivial(equation):
    # spot value: the adjoint is a different operator than D
    f = x * y
    assert apply_adjoint(equation, f) != apply_operator(equation, f)


# propagation ------------------------------------------------------------------

def test_derived_identity_at_origin(equation):
    D = derived_coeffs(equation, 0, 0, lam=F(5, 7))
    assert six_polys(D) == six_polys(equation)
    assert D.mu == F(5, 7)


def test_derived_a12d_scaling(equation, qp):
    q = qp.q
    for k, l in [(1, 0), (0, 2), (2, 3)]:
        D = derived_coeffs(equation, k, l)
        assert D.a12d == equation.a12d / q ** (k + l)


def test_derived_mu_one_step(equation, adm):
    lam1 = adm.eigenvalue(1)
    D = derived_coeffs(equation, 1, 0, lam=lam1)
    f1 = equation.tau1()[0]
    assert D.mu == lam1 + f1


def test_derived_both_routes_agree_6x6(equation):
    for k in range(7):
        for l in range(7):
            assert_routes_agree(equation, k, l)


@pytest.mark.parametrize("params", [TEST_PARAMS, Q23_PARAMS], ids=["q=1/2", "q=2/3"])
def test_derived_routes_agree_with_spectral_value(params):
    E = preset_equation(params)
    lam = admissibility(E).eigenvalue(3)
    for k in range(4):
        for l in range(4):
            assert_routes_agree(E, k, l, lam)


def test_derived_equation_governs_derived_solutions(equation, adm, oracle5):
    # Dq-differentiating a solution gives a solution of the derived equation
    # with spectral value mu^{(k,l)}
    lam3 = adm.eigenvalue(3)
    u = oracle5.entry(3, 1)
    for k, l in [(1, 0), (0, 1), (1, 1)]:
        D = derived_coeffs(equation, k, l, lam=lam3)
        v = u
        for _ in range(k):
            v = dq1(v, equation.qp)
        for _ in range(l):
            v = dq2(v, equation.qp)
        assert (apply_operator(D, v) + v * D.mu).is_zero()


# weighted bilinear form --------------------------------------------------------

def bilinear_selfadjoint_check(E, functional, f: BiPoly, g: BiPoly):
    """Return (<Df, g>, <f, Dg>) under a weighted moment functional
    (BiPoly -> scalar); potential self-adjointness makes these agree."""
    return functional(apply_operator(E, f) * g), functional(f * apply_operator(E, g))


def test_bilinear_selfadjointness(equation, moments):
    left, right = bilinear_selfadjoint_check(equation, moments.integrate, x, y)
    scale = max(1, abs(left), abs(right))
    assert abs(left - right) / scale < F(1, 10 ** 20)


def test_eigen_rayleigh_relation(equation, adm, moments, oracle5):
    # D u = -lambda u pointwise, so <D u, u> = -lambda <u, u>
    u = oracle5.entry(2, 1)
    lam = adm.eigenvalue(2)
    du_u = moments.integrate(apply_operator(equation, u) * u)
    uu = moments.integrate(u * u)
    assert abs(du_u + lam * uu) / abs(uu) < F(1, 10 ** 20)


def test_derived_coeffs_takes_one_chain_of_k_plus_l_steps(equation, monkeypatch):
    # order (k, l) is k Dq1 steps, then l Dq2 steps (the Dq1 step across
    # the swap), from order (0, 0): no other order is formed on the way
    steps = []
    real = equation_module._xstep
    monkeypatch.setattr(equation_module, "_xstep",
                        lambda qp, state: steps.append(1) or real(qp, state))
    for k in range(4):
        for l in range(4):
            steps.clear()
            derived_coeffs(equation, k, l)
            assert len(steps) == k + l, (k, l)
