from fractions import Fraction

import pytest

import qbipoly.rodrigues as rodrigues
from qbipoly.bigqjacobi import TEST_PARAMS, BigQJacobiParams, preset_equation
from qbipoly.bipoly import BiPoly
from qbipoly.equation import EquationCoeffs, apply_operator
from qbipoly.linalg import Mat, interpolate_2d
from qbipoly.pearson import LatticePoleError, base_weight, build_pearson
from qbipoly.qcalc import QParam, dq_nm_table
from qbipoly.rodrigues import (DEFAULT_BASES, RodriguesError, RodriguesSpec,
                               _grid_values, rodrigues_line1_values,
                               rodrigues_orthogonality_check, rodrigues_poly)

F = Fraction
x = BiPoly.x()
y = BiPoly.y()


# slow reference: the bracket expanded into one BiPoly, differenced per node --

def expanded_bracket(E, n, m):
    """Omega = prod_k omega1(q^-k x, y) * prod_s omega2(x, q^-s y), multiplied out."""
    P = build_pearson(E)
    q = E.qp.q
    out = BiPoly.const(1, E.field)
    for k in range(n):
        out = out * P.omega1.scale_args(q**-k, 1)
    for s in range(m):
        out = out * P.omega2.scale_args(1, q**-s)
    return out


def reference_grid_values(E, n, m, base):
    """Each grid node's forward stencil sampled and differenced on its own."""
    qp = E.qp
    q = qp.q
    G = n + m + 1
    xb, yb = base
    rho = base_weight(E, (xb * q ** -(G - 1), yb * q ** -(G - 1)))
    omega = expanded_bracket(E, n, m)
    pref = q ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2)
    nodes_x = [xb * q**-i for i in range(G)]
    nodes_y = [yb * q**-j for j in range(G)]
    values = []
    for i in range(G):
        row = []
        for j in range(G):
            s0, t0 = G - 1 - i, G - 1 - j
            fvals = [[rho.value(s0 + r, t0 + s) * omega.eval(nodes_x[i] * q**r, nodes_y[j] * q**s)
                      for s in range(m + 1)] for r in range(n + 1)]
            rho_here = rho.value(s0, t0)
            if rho_here == 0:
                raise LatticePoleError("rho", s0, (nodes_x[i], nodes_y[j]))
            row.append(pref * dq_nm_table(fvals, nodes_x[i], nodes_y[j], qp, n, m)[0][0] / rho_here)
        values.append(row)
    return nodes_x, nodes_y, values


def reference_poly(E, n, m):
    for base in DEFAULT_BASES:
        try:
            nodes_x, nodes_y, values = reference_grid_values(E, n, m, base)
        except (LatticePoleError, ZeroDivisionError):
            continue
        return interpolate_2d(nodes_x, nodes_y, Mat(values, E.field))
    raise AssertionError("no pole-free base point")


Q23_PARAMS = BigQJacobiParams(F(1, 2), F(2, 3), F(3, 7), F(-1, 3), QParam(F(2, 3)))


@pytest.mark.parametrize("params", [TEST_PARAMS, Q23_PARAMS], ids=["test-params", "q=2/3"])
def test_factored_lattice_equals_expanded_reference(params):
    E = preset_equation(params)
    for d in range(5):
        for n in range(d + 1):
            assert rodrigues_poly(RodriguesSpec(E, n, d - n)) == reference_poly(E, n, d - n), (n, d - n)


def diagonal_pole_base(params):
    # omega1(qx, y) carries the factor (x - c y), so G1 = rho(qx,y)/rho(x,y)
    # has a pole wherever x = c y; a base on that ray puts the anchor and
    # every diagonal lattice point (a = b) on it.  y stays off omega2(x, qy)'s
    # zeros y = a and qy = x, so G1 is the only ratio that fails.
    return (params.c * F(5, 11), F(5, 11))


def test_pole_retry_moves_to_next_base(equation, params, monkeypatch):
    bad = diagonal_pole_base(params)
    with pytest.raises(RodriguesError, match="G1 pole"):
        rodrigues_poly(RodriguesSpec(equation, 1, 1, base=bad))
    tried = []
    original = rodrigues._grid_values

    def spy(E, n, m, base):
        tried.append(base)
        return original(E, n, m, base)

    monkeypatch.setattr(rodrigues, "_grid_values", spy)
    monkeypatch.setattr(rodrigues, "DEFAULT_BASES", (bad, DEFAULT_BASES[1], DEFAULT_BASES[2]))
    got = rodrigues_poly(RodriguesSpec(equation, 1, 1))
    assert tried == [bad, DEFAULT_BASES[1]]
    assert got == rodrigues_poly(RodriguesSpec(equation, 1, 1, base=DEFAULT_BASES[1]))


def test_pole_retry_with_only_bad_bases(equation, params, monkeypatch):
    xb, yb = diagonal_pole_base(params)
    monkeypatch.setattr(rodrigues, "DEFAULT_BASES", ((xb, yb), (xb * 2, yb * 2)))
    with pytest.raises(RodriguesError, match="no pole-free base point among 2"):
        rodrigues_poly(RodriguesSpec(equation, 1, 1))


def test_order_zero_is_the_normalization(equation):
    assert rodrigues_poly(RodriguesSpec(equation, 0, 0)) == BiPoly.const(1)
    assert rodrigues_poly(RodriguesSpec(equation, 0, 0, normalization=F(5, 3))) == BiPoly.const(F(5, 3))


def test_first_order_closed_form(equation):
    # (1/rho) Dq1 [rho omega1] = (phi1 - omega1)/((q-1) x): the one-step
    # Pearson identity gives an independent closed form for the (1, 0) output
    P = build_pearson(equation)
    q = equation.qp.q
    target = (P.phi1 - P.omega1).div_exact(x * (q - 1))
    assert rodrigues_poly(RodriguesSpec(equation, 1, 0)) == target


def test_total_degree_and_nondegenerate_leading_part(equation):
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]:
        p = rodrigues_poly(RodriguesSpec(equation, n, m))
        assert p.total_degree() == n + m
        assert not p.homogeneous_part(n + m).is_zero()


def test_eigen_equation_residual_zero(equation, adm):
    for n, m in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        p = rodrigues_poly(RodriguesSpec(equation, n, m))
        lam = adm.eigenvalue(n + m)
        assert (apply_operator(equation, p) + p * lam).is_zero()


def test_base_point_independence(equation):
    std = rodrigues_poly(RodriguesSpec(equation, 2, 1))
    alt = rodrigues_poly(RodriguesSpec(equation, 2, 1, base=DEFAULT_BASES[4]))
    assert std == alt


def test_monic_option(equation):
    p = rodrigues_poly(RodriguesSpec(equation, 1, 1), monic=True)
    lead = p.homogeneous_part(2).leading_term()
    assert lead[1] == 1


def test_normalization_scales_linearly(equation):
    base = rodrigues_poly(RodriguesSpec(equation, 1, 0))
    scaled = rodrigues_poly(RodriguesSpec(equation, 1, 0, normalization=F(7, 2)))
    assert scaled == base * F(7, 2)


def test_bracket_specialization(equation, params):
    # the omega product equals a^n d^m q^{2n - n(n-1) + 2m - m(m-1)} times
    # x^{2n} y^{2m} (dq/x; q)_n (aq/y; q)_m (x/y; q)_m (cqy/x; q)_n, cleared
    # of inverse powers; checked as polynomials through (2, 2)
    q = params.qp.q
    a, c, d = params.a, params.c, params.d
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        omega = expanded_bracket(equation, n, m)
        prod = BiPoly.const(1)
        for k in range(n):
            prod = prod * BiPoly({(1, 0): F(1), (0, 0): -d * q ** (1 + k)})       # x - d q^{k+1}
            prod = prod * BiPoly({(1, 0): F(1), (0, 1): -c * q ** (1 + k)})       # x - c q^{k+1} y
        for s in range(m):
            prod = prod * BiPoly({(0, 1): F(1), (0, 0): -a * q ** (1 + s)})       # y - a q^{s+1}
            prod = prod * BiPoly({(0, 1): F(1), (1, 0): -(q ** s)})               # y - q^s x
        const = a ** n * d ** m * q ** (2 * n - n * (n - 1) + 2 * m - m * (m - 1))
        assert omega == prod * const


def test_line1_equals_line3_up_to_q_square_power(equation):
    q = equation.qp.q
    base = DEFAULT_BASES[0]
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 2)]:
        _, _, vals3 = _grid_values(equation, n, m, base)
        vals1 = rodrigues_line1_values(equation, n, m, base)
        factor = q ** (n * n + m * m)
        for i in range(len(vals3)):
            for j in range(len(vals3)):
                assert vals1[i][j] == factor * vals3[i][j]


def test_samples_off_grid_match_interpolant(equation):
    # the quotient is a genuine polynomial: values at lattice points beyond
    # the interpolation grid agree with the interpolant
    n, m = 1, 1
    p = rodrigues_poly(RodriguesSpec(equation, n, m))
    base = (DEFAULT_BASES[0][0] * F(1, 4), DEFAULT_BASES[0][1] * F(1, 4))
    nodes_x, nodes_y, values = _grid_values(equation, n, m, base)
    for i in range(len(nodes_x)):
        for j in range(len(nodes_y)):
            assert values[i][j] == p.eval(nodes_x[i], nodes_y[j])


def test_rejects_nonadmissible_equation(equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    with pytest.raises(RodriguesError):
        rodrigues_poly(RodriguesSpec(bad, 1, 0))


def test_orthogonality_against_lower_degrees(equation, moments):
    tol = moments.field.of(F(1, 10 ** 25))
    with moments.field.workprec():
        norm = moments.integrate(BiPoly.const(1))
        rep = rodrigues_orthogonality_check(RodriguesSpec(equation, 1, 0), moments.integrate)
        assert abs(rep[(0, 0)]) / norm < tol
        rep = rodrigues_orthogonality_check(RodriguesSpec(equation, 1, 1), moments.integrate)
        for key, val in rep.items():
            assert abs(val) / norm < tol
        # vacuous case
        assert rodrigues_orthogonality_check(RodriguesSpec(equation, 0, 0), moments.integrate) == {}
