import random
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest

from qbipoly.bigqjacobi import TEST_PARAMS, MomentTable
from qbipoly.bipoly import BiPoly
from qbipoly.qcalc import (QParam, QTables, Rows, SeriesError, _difference_table, _terms,
                           dq1, dq2, dq_nm_table, dqm1, dqm2, gauss_2f1_terminating,
                           kampe_de_feriet, phi_bivariate, phi_rs, power_exponent, qnum,
                           qpochhammer, qpochhammer_inf, verify_operator_relations)
from qbipoly.scalars import FloatField
from test_bigqjacobi import closed_form_weight, jacobi_poly, pochhammer_rising, qbinomial
from test_scalars import close

x = BiPoly.x()
y = BiPoly.y()
F = Fraction


def test_qparam_validation():
    with pytest.raises(ValueError):
        QParam(F(3, 2))
    with pytest.raises(ValueError):
        QParam(F(0))


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(1, 10), F(99, 100), F(999999, 1000000)],
                         ids=str)
def test_power_exponent_names_the_exact_power(q):
    for k in (-300, -7, -1, 0, 1, 2, 7, 300):
        v = q**k
        assert power_exponent(v, q) == k
        # a factor prime to q, and (for u != 1 in q = u/w) the denominator
        # of q^(k+1) over the numerator of q^k, make no power of q
        assert power_exponent(v * F(1000003, 1000033), q) is None
        if q.numerator != 1:
            assert power_exponent(v / q.denominator, q) is None
    for v in (F(0), F(-1), -q, F(-1, 2)):
        assert power_exponent(v, q) is None
    assert power_exponent(q**4000, q) == 4000


def test_qnum(qp):
    assert qnum(0, qp) == 0
    assert qnum(3, qp) == F(7, 4)
    assert qnum(-1, qp) == -2


def test_qpochhammer(qp):
    assert qpochhammer(F(1, 3), qp, 0) == 1
    assert qpochhammer(F(1, 2), qp, 2) == F(3, 8)
    assert qpochhammer(F(2), qp, 2) == 0  # second factor (1 - 2q) vanishes
    with pytest.raises(ValueError):
        qpochhammer(F(1), qp, -1)


def test_qtables_read_powers_and_running_product_rows(qp):
    tab = QTables(qp.q)
    assert [tab.pow(k) for k in (-2, 0, 3)] == [4, 1, F(1, 8)]
    # 1 - 4 q^2 = 0: the row is zero from index 3 on, as the product form is
    assert tab.row(F(4), 4) == [qpochhammer(F(4), qp, k) for k in range(5)]
    assert tab.row(F(4), 4)[3:] == [0, 0]
    assert tab.row(x, 3)[:4] == [qpochhammer(x, qp, k) for k in range(4)]


def test_qpochhammer_polynomial_argument(qp):
    p = qpochhammer(x, qp, 2)  # (1 - x)(1 - x/2)
    assert p == (1 - x) * (BiPoly.const(1) - x * F(1, 2))


def test_qpochhammer_inf(qp):
    fld = FloatField(96)
    v = qpochhammer_inf(F(1, 2), qp, fld)
    ref = qpochhammer(F(1, 2), qp, 120)  # geometric tail below 2^-100
    assert close(fld, v, fld.of(ref))


def test_qbinomial(qp):
    assert qbinomial(5, 0, qp) == 1
    assert qbinomial(5, 5, qp) == 1
    assert qbinomial(2, 1, qp) == F(3, 2)
    with pytest.raises(ValueError):
        qbinomial(2, 3, qp)


def test_dq_on_monomials(qp):
    assert dq1(x * x, qp) == x * F(3, 2)           # [2]_q x
    assert dq1(BiPoly.const(5), qp).is_zero()
    assert dqm1(x * x, qp) == x * 3                 # (q+1)/q x
    assert dq2(y ** 3, qp) == y * y * F(7, 4)
    assert dqm2(y, qp) == BiPoly.const(1)


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3)], ids=["q=1/2", "q=2/3"])
def test_dq_on_dense_polynomial_matches_per_term_formula(q):
    # every operator maps c x^i y^j to c [e]_p x^(i-1) y^j (or y^(j-1)), where
    # e is the exponent on its axis, p = q forward and p = 1/q backward and
    # [e]_p = 1 + p + ... + p^(e-1)
    qp = QParam(q)
    rng = random.Random(12)
    f = BiPoly({(i, j): F(rng.randint(-20, 20) or 1, rng.randint(1, 9))
                for i in range(13) for j in range(13 - i)})

    def bracket(e, p):
        return sum((p**k for k in range(e)), F(0))

    for op, p, axis in ((dq1, q, 0), (dq2, q, 1), (dqm1, 1 / q, 0), (dqm2, 1 / q, 1)):
        expected = {}
        for (i, j), c in f.coeffs.items():
            e = (i, j)[axis]
            if e:
                expected[(i - 1, j) if axis == 0 else (i, j - 1)] = c * bracket(e, p)
        assert op(f, qp).coeffs == expected


def test_axis_and_direction_symmetries():
    # the y operators are the x operators conjugated by the variable swap;
    # the backward operator is the defining quotient q(f(x) - f(x/q))/((q-1)x)
    rng = random.Random(5)
    for q in (F(1, 2), F(2, 3)):
        qp = QParam(q)
        for _ in range(10):
            f = BiPoly({(rng.randint(0, 5), rng.randint(0, 5)): F(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(6)})
            assert dq2(f, qp) == dq1(f.swap(), qp).swap()
            assert dqm2(f, qp) == dqm1(f.swap(), qp).swap()
            assert f.scale_args(q, 1) - f == x * dq1(f, qp) * (q - 1)
            assert (f - f.scale_args(1 / q, 1)) * q == x * dqm1(f, qp) * (q - 1)


def dq_nm_at(f, x0, y0, qp: QParam, n: int, m: int):
    """Callback form of dq_nm_table: f is evaluated on the forward stencil."""
    q = qp.q
    fvals = [[f(x0 * q**r, y0 * q**s) for s in range(m + 1)] for r in range(n + 1)]
    return dq_nm_table(fvals, x0, y0, qp, n, m)[0][0]


def dqm_nm_table(fvals, x0, y0, qp: QParam, n: int, m: int):
    """Iterated backward differences on samples fvals[r][s] = f(q^-r x0, q^-s y0).

    The backward quotient q(f(x) - f(x/q))/((q-1)x) is the forward quotient
    of base 1/q, so the table t[r][s] = [Dq^-1 axis1]^n [Dq^-1 axis2]^m f at
    (q^-r x0, q^-s y0) comes from the same kernel; t[0][0] is the value at
    (x0, y0).
    """
    return _difference_table(fvals, x0, y0, 1 / qp.q, n, m)


def dqm_nm_at(f, x0, y0, qp: QParam, n: int, m: int):
    """Callback form of dqm_nm_table: f is evaluated on the backward stencil
    (q^-r x0, q^-s y0)."""
    q = qp.q
    fvals = [[f(x0 / q**r, y0 / q**s) for s in range(m + 1)] for r in range(n + 1)]
    return dqm_nm_table(fvals, x0, y0, qp, n, m)[0][0]


def fraction_difference_table(fvals, x0, y0, p, n: int, m: int):
    """Reference for the integer kernel behind dq_nm_table: each pass
    divides the differences by its steps (p - 1) x0 p^r in Fractions."""
    work = [row[:] for row in fvals]
    for _ in range(n):
        steps = [(p - 1) * x0 * p**r for r in range(len(work) - 1)]
        work = [[None if lo is None or hi is None else (hi - lo) / h
                 for lo, hi in zip(work[r], work[r + 1])] for r, h in enumerate(steps)]
    for _ in range(m):
        steps = [(p - 1) * y0 * p**s for s in range(len(work[0]) - 1)]
        work = [[None if lo is None or hi is None else (hi - lo) / h
                 for lo, hi, h in zip(row, row[1:], steps)] for row in work]
    return work


@pytest.mark.parametrize("p", [F(1, 2), F(2, 3), F(3, 2), F(2), F(999, 1000)],
                         ids=["1/2", "2/3", "3/2", "2", "999/1000"])
def test_integer_difference_table_equals_fraction_reference(p):
    # holes as the Rodrigues lattice leaves them (the corner a + b < N) and
    # scattered ones; base points of either sign; zero samples included
    rng = random.Random(f"difference-table-{p}")
    for trial in range(16):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        rows, cols = n + 1 + rng.randint(0, 4), m + 1 + rng.randint(0, 4)
        corner = rng.randint(0, rows + cols - 2)

        def sample(r, s):
            if (r + s < corner) if trial % 2 else rng.random() < 0.15:
                return None
            return F(rng.randint(-99, 99), rng.randint(1, 30))
        fvals = [[sample(r, s) for s in range(cols)] for r in range(rows)]
        x0 = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 11))
        y0 = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 11))
        got = _difference_table(fvals, x0, y0, p, n, m)
        assert got == fraction_difference_table(fvals, x0, y0, p, n, m), (n, m, fvals)
        assert [len(row) for row in got] == [cols - m] * (rows - n)


def test_grid_forms_match_polynomial_operators(qp):
    p = x * x * y + x * y * y * 3 + 7
    for n, m in [(1, 0), (0, 1), (2, 1), (1, 2)]:
        target = p
        for _ in range(n):
            target = dq1(target, qp)
        for _ in range(m):
            target = dq2(target, qp)
        got = dq_nm_at(lambda a, b: p.eval(a, b), F(2, 3), F(5, 7), qp, n, m)
        assert got == target.eval(F(2, 3), F(5, 7))

        back = p
        for _ in range(n):
            back = dqm1(back, qp)
        for _ in range(m):
            back = dqm2(back, qp)
        gotb = dqm_nm_at(lambda a, b: p.eval(a, b), F(2, 3), F(5, 7), qp, n, m)
        assert gotb == back.eval(F(2, 3), F(5, 7))


def test_grid_table_too_small(qp):
    with pytest.raises(ValueError):
        dq_nm_table([[F(1)]], F(1), F(1), qp, 1, 0)


def test_operator_relations_specific(qp):
    rep = verify_operator_relations(qp, x * x * y + 3)
    assert all(rep.values())
    rep = verify_operator_relations(qp, BiPoly.const(1))
    assert all(rep.values())


def test_operator_relations_random(qp):
    rng = random.Random(2024)
    for _ in range(20):
        coeffs = {(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-9, 9), rng.randint(1, 7))
                  for _ in range(4)}
        f = BiPoly(coeffs)
        g = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-5, 5))
                    for _ in range(3)})
        assert all(verify_operator_relations(qp, f, g).values())


def test_backward_forward_duality(qp):
    f = x ** 3 * y + x * y * y - 2
    lhs = dqm1(f, qp)
    rhs = dq1(f, qp) + x * dq1(dqm1(f, qp), qp) * (1 - qp.q)
    assert lhs == rhs


# Jackson integration ---------------------------------------------------------
#
# Generic truncated Jackson q-integrals, a reference independent of the
# moment engine.  Each helper works on the scalars that `of` builds:
# Fraction for exact sums, or a FloatField's `of` at the field's precision.

@dataclass(frozen=True)
class QDomain:
    """Iterated q-integration domain: outer y in (y_lo, y_hi), inner x between
    affine limits alpha + beta*y per endpoint."""

    y_lo: Fraction
    y_hi: Fraction
    x_lo: tuple  # (alpha, beta)
    x_hi: tuple

    def x_limits(self, yv):
        (a0, b0), (a1, b1) = self.x_lo, self.x_hi
        return a0 + b0 * yv, a1 + b1 * yv


def jackson_integral_1d(f, upper, qp, truncation, of):
    """Truncated Jackson integral from 0 to `upper`:
    (1-q) * upper * sum_{j=0..N} q^j f(upper q^j)."""
    q = of(qp.q)
    a = of(upper)
    if a == 0:
        return of(0)
    total = of(0)
    w = of(1)
    for _ in range(truncation + 1):
        v = f(a * w)
        total += w * v
        w *= q
    return (1 - q) * a * total


def jackson_integral_interval(f, lo, hi, qp, truncation, of):
    """Interval convention: int_lo^hi = int_0^hi - int_0^lo (endpoints of
    either sign)."""
    return (jackson_integral_1d(f, hi, qp, truncation, of)
            - jackson_integral_1d(f, lo, qp, truncation, of))


def jackson_integral_double(f, domain, qp, truncation, of):
    """Iterated Jackson integral of f(x, y) over a QDomain: outer y then inner
    x with the inner limits re-evaluated at every outer node."""

    def outer(yv):
        xlo, xhi = domain.x_limits(yv)
        return jackson_integral_interval(lambda xv: f(xv, yv), xlo, xhi, qp, truncation, of)

    return jackson_integral_interval(outer, of(domain.y_lo), of(domain.y_hi), qp, truncation, of)


def test_jackson_constant(qp):
    N = 40
    v = jackson_integral_1d(lambda t: F(1), 1, qp, N, F)
    assert v == 1 - qp.q ** (N + 1)


def test_jackson_linear(qp):
    # int_0^1 t d_q t = 1/(1+q) = 2/3 up to the geometric tail
    N = 80
    v = jackson_integral_1d(lambda t: t, 1, qp, N, F)
    assert abs(v - F(2, 3)) < F(1, 10) ** 20


def test_jackson_odd_symmetric(qp):
    assert jackson_integral_interval(lambda t: t, -1, 1, qp, 30, F) == 0


def test_jackson_telescopes_q_derivative(qp):
    # int_0^a (Dq F) d_q t telescopes exactly to F(a) - F(a q^{N+1})
    Fpoly = x ** 3 + x * 2 + 1
    dF = dq1(Fpoly, qp)
    a = F(3, 4)
    N = 50
    v = jackson_integral_1d(lambda t: dF.eval(t, F(0)), a, qp, N, F)
    assert v == Fpoly.eval(a, F(0)) - Fpoly.eval(a * qp.q ** (N + 1), F(0))
    assert abs(v - (Fpoly.eval(a, F(0)) - Fpoly.eval(F(0), F(0)))) < F(1, 10) ** 12


def test_jackson_runs_at_field_precision(qp):
    # int_0^1 t d_qt truncated at N is (1 - q^{2N+2})/(1 + q); the helpers
    # must reach it to the field's 192 bits under mpmath's default 53
    fld = FloatField(192)
    N = 40
    exact = (1 - qp.q ** (2 * N + 2)) / (1 + qp.q)
    saved = mpmath.mp.prec
    mpmath.mp.prec = 53
    try:
        one_sided = jackson_integral_1d(lambda t: t, 1, qp, N, fld.of)
        interval = jackson_integral_interval(lambda t: t, F(-1, 3), 1, qp, N, fld.of)
        double = jackson_integral_double(lambda a, b: a, QDomain(F(0), F(1), (F(0), F(0)), (F(1), F(0))),
                                         qp, N, fld.of)
    finally:
        mpmath.mp.prec = saved
    for got, want in ((one_sided, exact), (interval, exact * (1 - F(1, 9))),
                      (double, exact * (1 - qp.q ** (N + 1)))):
        assert abs(got - fld.of(want)) / fld.of(want) < fld.of(F(1, 2 ** 180))


def _float_lane_values(qp):
    """Float-lane results whose bits must not depend on mpmath.mp.prec."""
    fld = FloatField(192)
    mt = MomentTable(TEST_PARAMS, max_degree=4, prec=128)
    poly = x * y * F(2, 3) + x * x - F(1, 7)
    return ([qpochhammer_inf(F(1, 2), qp, fld),
             closed_form_weight(TEST_PARAMS, F(2, 9), F(3, 7), fld)]
            + [mt.moment(i, j) for i in range(3) for j in range(3)]
            + [mt.integrate(poly)])


def test_float_lane_ignores_global_precision(qp):
    # every value of a FloatField rounds at the field's precision: mixed
    # Fraction/int/mpf arithmetic, the infinite products and the moment
    # engine, under mpmath's global 53 bits
    reference = _float_lane_values(qp)  # at the default global precision
    saved = mpmath.mp.prec
    mpmath.mp.prec = 53
    try:
        f = FloatField(192)
        third, tenth, want = f.of(F(1, 3)), f.of(F(1, 10)), f.of(F(13, 30))
        for got in (third + tenth, third + F(1, 10), F(1, 10) + third):
            assert close(f, got, want)
        assert close(f, 1 + third, f.of(F(4, 3)))
        assert close(f, qpochhammer_inf(F(1, 2), qp, f), f.of(qpochhammer(F(1, 2), qp, 200)))
        narrow = mpmath.mpf(1) / 3  # an argument from the global context
        assert qpochhammer_inf(narrow, qp, f) == qpochhammer_inf(f.of(narrow), qp, f)
        assert _float_lane_values(qp) == reference
        assert mpmath.mp.prec == 53
        mpmath.mp.prec = 1024
        assert _float_lane_values(qp) == reference
    finally:
        mpmath.mp.prec = saved


def test_jackson_double_rectangle(qp):
    # constant over ([0,1] x [0,1]) with affine-in-y inner limits turned off
    dom = QDomain(F(0), F(1), (F(0), F(0)), (F(1), F(0)))
    N = 60
    v = jackson_integral_double(lambda a, b: F(1), dom, qp, N, F)
    assert abs(v - 1) < F(1, 10) ** 15


def test_jackson_double_affine_inner_limit(qp):
    # int_0^1 int_0^{2y} 1 d_qx d_qy = int_0^1 2y d_qy = 2/(1+q) = 4/3
    dom = QDomain(F(0), F(1), (F(0), F(0)), (F(0), F(2)))
    v = jackson_integral_double(lambda a, b: F(1), dom, qp, 60, F)
    assert abs(v - F(4, 3)) < F(1, 10) ** 14


# terminating series ----------------------------------------------------------

def brute_phi_rs(num, den, qp, z, kmax):
    """Independent term-by-term reference for r-phi-s (r = s + 1)."""
    total = F(0)
    for k in range(kmax + 1):
        t = F(1)
        for a in num:
            t *= qpochhammer(a, qp, k)
        for b in den:
            t = t / qpochhammer(b, qp, k)
        t = t / qpochhammer(qp.q, qp, k)
        total += t * z ** k
    return total


def test_phi_rs_single_term(qp):
    q = qp.q
    assert phi_rs([q ** 0, F(1, 3), F(1, 7)], [F(1, 5), F(1, 11)], qp, q) == 1


def test_phi_rs_two_term_expansion(qp):
    # 3phi2(q^-1, ABq^2, t; Aq, Cq; q, q) = 1 + q(1-1/q)(1-ABq^2)(1-t)/((1-Aq)(1-Cq)(1-q))
    q = qp.q
    A, B, C, t = F(1, 3), F(1, 5), F(-1, 2), F(2, 7)
    got = phi_rs([1 / q, A * B * q ** 2, t], [A * q, C * q], qp, q)
    expect = 1 + q * (1 - 1 / q) * (1 - A * B * q ** 2) * (1 - t) / ((1 - A * q) * (1 - C * q) * (1 - q))
    assert got == expect


def test_phi_rs_matches_brute_force(qp):
    rng = random.Random(5)
    q = qp.q
    for _ in range(10):
        m = rng.randint(0, 4)
        a2 = F(rng.randint(1, 9), rng.randint(10, 19))
        a3 = F(rng.randint(-9, 9), rng.randint(7, 15))
        b1 = F(rng.randint(1, 5), rng.randint(11, 19))
        b2 = F(rng.randint(-7, -1), rng.randint(9, 17))
        got = phi_rs([q ** -m, a2, a3], [b1, b2], qp, q)
        assert got == brute_phi_rs([q ** -m, a2, a3], [b1, b2], qp, q, m)


def test_phi_rs_excess_factor_is_exact(qp):
    # r = s + 2: each term carries ((-1)^k q^C(k,2))^-1, exactly
    q = qp.q
    a, z = F(1, 3), F(2, 7)
    got = phi_rs([q ** -2, a], [], qp, z)
    expect = sum(qpochhammer(q ** -2, qp, k) * qpochhammer(a, qp, k) / qpochhammer(q, qp, k)
                 * z ** k * (-1) ** k / q ** (k * (k - 1) // 2) for k in range(3))
    assert isinstance(got, F) and got == expect


def test_phi_rs_denominator_pole(qp):
    q = qp.q
    with pytest.raises(SeriesError):
        phi_rs([q ** -3, F(1, 3), F(1, 7)], [1 / q, F(1, 5)], qp, q)


def test_zero_over_zero_at_termination_is_rejected(qp):
    # a denominator Pochhammer vanishing at the termination index, together
    # with the numerator, is an error in every sum, not a dropped 0/0 term
    q = qp.q
    z, xv, yv = F(1, 3), F(1, 3), F(1, 5)
    with pytest.raises(SeriesError):
        phi_rs([q ** -2, F(1, 3), F(1, 7)], [q ** -2, F(1, 5)], qp, q)
    with pytest.raises(SeriesError):
        phi_bivariate([], [q ** -2], [q ** 0], [], [q ** -2], [], qp, q, q)
    with pytest.raises(SeriesError):
        gauss_2f1_terminating(-2, 1, -2, z)
    with pytest.raises(SeriesError):
        kampe_de_feriet([], [F(-2)], [F(0)], [], [F(-2)], [], xv, yv)
    with pytest.raises(SeriesError):  # joint denominator at m + n = M + N + 1
        kampe_de_feriet([], [F(-1)], [F(-1)], [F(-2)], [], [], xv, yv)
    # one step later the denominator is harmless: the sums stay finite
    assert phi_rs([q ** -2, F(1, 3)], [q ** -3], qp, q) == \
        brute_phi_rs([q ** -2, F(1, 3)], [q ** -3], qp, q, 2)
    assert gauss_2f1_terminating(-2, 1, -3, z) == 1 + 2 * z / 3 + z ** 2 / 3


def test_phi_rs_nonterminating_rejected(qp):
    with pytest.raises(SeriesError):
        phi_rs([F(1, 3)], [F(1, 5)], qp, qp.q)


def test_nonterminating_series_is_refused_at_once(qp):
    # no numerator parameter has a termination index, so no term is formed
    def seconds():
        start = time.perf_counter()
        with pytest.raises(SeriesError, match="does not terminate"):
            phi_rs([F(1, 3)], [F(1, 5)], qp, qp.q)
        return time.perf_counter() - start

    assert min(seconds() for _ in range(3)) < 0.01


def test_termination_index_is_decided_from_the_parameters(qp):
    # a parameter of exponent k <= 0 ends a series at index -k
    q = qp.q
    assert QTables(q).exponent(q ** -2500) == -2500
    assert Rows().exponent(F(-2500)) == -2500
    assert QTables(q).exponent(F(1, 3)) is None
    assert Rows().exponent(F(-5, 2)) is None
    # a polynomial parameter counts only when it is constant
    assert len(_terms(QTables(q), [BiPoly.const(q ** -3)], [q], "series")) == 4
    assert len(_terms(Rows(), [BiPoly.const(-3)], [1], "series")) == 4
    for tables, a in ((QTables(q), x), (Rows(), y - 3)):
        with pytest.raises(SeriesError, match="does not terminate"):
            _terms(tables, [a], [tables.unit], "series")


def test_long_terminating_series_are_summed_exactly(qp):
    q, z = qp.q, F(1, 3)
    # q-binomial theorem: 1phi0(q^-n; -; q, z) = (z q^-n; q)_n, here at n = 301
    assert phi_bivariate([], [q ** -301], [q ** 0], [], [], [], qp, z, F(1, 5)) == \
        qpochhammer(z * q ** -301, qp, 301)
    # Chu-Vandermonde: 2F1(-n, 1; c; 1) = (c - 1)_n / (c)_n, here at n = 2001
    c = F(1, 3)
    assert gauss_2f1_terminating(-2001, 1, c, 1) == \
        pochhammer_rising(c - 1, 2001) / pochhammer_rising(c, 2001)


def test_phi_bivariate_trivial(qp):
    q = qp.q
    v = phi_bivariate([F(1, 7)], [q ** 0], [q ** 0], [], [F(1, 3)], [F(1, 5)], qp, q, q)
    assert v == 1


def test_phi_bivariate_collapses_to_phi_rs(qp):
    q = qp.q
    n = 3
    a, b, c = F(1, 3), F(1, 5), F(-2, 7)
    # y-direction terminates immediately (q^0 parameter): double sum == single sum
    v2 = phi_bivariate([a], [q ** -n, b], [q ** 0], [], [c], [F(1, 11)], qp, q, q)
    # single-variable reference with the joint parameter folded in: (a;q)_{m}
    total = F(0)
    for m in range(n + 1):
        t = qpochhammer(a, qp, m) * qpochhammer(q ** -n, qp, m) * qpochhammer(b, qp, m)
        t = t / (qpochhammer(c, qp, m) * qpochhammer(q, qp, m))
        total += t * q ** m
    assert v2 == total


def test_phi_bivariate_brute_force(qp):
    q = qp.q
    n, m = 2, 3
    joint = F(1, 7)
    xz, yz = F(2, 3), F(3, 5)
    got = phi_bivariate([joint], [q ** -n], [q ** -m], [], [F(1, 3)], [F(1, 5)], qp,
                        xz, yz, tags=(1, 0, 2))
    total = F(0)
    for mm in range(n + 1):
        for nn in range(m + 1):
            t = qpochhammer(joint, qp, mm + nn) * qpochhammer(q ** -n, qp, mm) \
                * qpochhammer(q ** -m, qp, nn)
            t = t / (qpochhammer(F(1, 3), qp, mm) * qpochhammer(F(1, 5), qp, nn)
                     * qpochhammer(q, qp, mm) * qpochhammer(q, qp, nn))
            t *= xz ** mm * yz ** nn * q ** (1 * (mm * (mm - 1) // 2) + 2 * mm * nn)
            total += t
    assert got == total


# classical terminating series -------------------------------------------------

def test_pochhammer_rising():
    rising = Rows()
    assert rising.row(F(3), 0)[0] == 1
    assert rising.row(F(2), 3)[3] == 24
    assert rising.row(F(-2), 3)[3] == 0


def test_gauss_2f1_terminating():
    # 2F1(-2, 1; 1; z) = (1 - z)^2
    z = F(1, 3)
    assert gauss_2f1_terminating(F(-2), F(1), F(1), z) == (1 - z) ** 2
    with pytest.raises(SeriesError):
        gauss_2f1_terminating(F(1, 2), F(1, 3), F(1), z)


def test_jacobi_poly_degree_one():
    a, b = F(2), F(3)
    xv = F(1, 4)
    assert jacobi_poly(1, a, b, xv) == ((a + b + 2) * xv + a - b) / 2


def test_jacobi_poly_at_one():
    a, b = F(1), F(2)
    for n in range(5):
        expect = pochhammer_rising(a + 1, n) / pochhammer_rising(F(1), n)
        assert jacobi_poly(n, a, b, F(1)) == expect


def test_jacobi_poly_polynomial_argument():
    a, b = F(1), F(1)
    p = jacobi_poly(2, a, b, x)
    xv = F(2, 5)
    assert p.eval(xv, F(0)) == jacobi_poly(2, a, b, xv)


def test_kampe_de_feriet_trivial():
    assert kampe_de_feriet([F(5)], [F(0)], [F(0)], [], [F(2)], [F(3)], F(1, 3), F(1, 5)) == 1


def test_kampe_de_feriet_factorizes_without_joint_params():
    # no joint parameters: F = 1F0-style product of the two directions
    xv, yv = F(1, 3), F(1, 7)
    v = kampe_de_feriet([], [F(-2)], [F(-1)], [], [F(2)], [F(3)], xv, yv)
    fx = gauss_2f1_terminating(F(-2), F(1), F(2), xv * 0 + xv)  # 1F1-style via 2F1 with b=1
    # direct reference
    ref_x = sum(pochhammer_rising(F(-2), r) / (pochhammer_rising(F(2), r) * pochhammer_rising(F(1), r)) * xv ** r
                for r in range(3))
    ref_y = sum(pochhammer_rising(F(-1), s) / (pochhammer_rising(F(3), s) * pochhammer_rising(F(1), s)) * yv ** s
                for s in range(2))
    assert v == ref_x * ref_y
