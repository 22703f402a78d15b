import functools
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import qbipoly.rodrigues as rodrigues
from qbipoly.bigqjacobi import TEST_PARAMS, BigQJacobiParams, preset_equation
from qbipoly.bipoly import BiPoly
from qbipoly.equation import EquationCoeffs, NotAdmissibleError, ShapeViolation, apply_operator
from qbipoly.linalg import Mat
from test_bigqjacobi import big_q_jacobi_points, sweep_points
from test_linalg import fraction_interpolate_2d, tensor_vandermonde_interpolate
from qbipoly.io import parse_equation_source
from qbipoly.pearson import (HYPOTHESES, DegenerateEquationError, LatticePoleError, base_weight,
                             build_pearson, require,
                             verify_pearson_identities, weight_table_rows)
from qbipoly.qcalc import QParam, dq_nm_table
from qbipoly.rodrigues import rodrigues_family, rodrigues_poly, rodrigues_polys
from strategies import (CONSTANT_WEIGHT_TEXT, INCOMPATIBLE_PEARSON_TEXT, NONZERO, OMEGA2_X_TEXT,
                        PHI1_ABOVE_OMEGA1_TEXT, PHI1_ZERO_TEXT, Q23_PARAMS, admissible_equations,
                        constant_weight_equations, equation_to_text, pearson_line, replace,
                        scaled_preset)
from test_pearson import derived_box, rho_kl
from test_qcalc import dqm_nm_table, fraction_difference_table

F = Fraction
x = BiPoly.x()
y = BiPoly.y()

#: hand-picked base points for the test-side samplers; at a given point any
#: of them may put a Pearson pole on the lattice
BASES = (
    (F(3, 7), F(5, 11)),
    (F(2, 5), F(3, 7)),
    (F(5, 9), F(4, 7)),
    (F(4, 11), F(6, 13)),
    (F(7, 13), F(3, 11)),
    (F(5, 13), F(7, 9)),
    (F(8, 15), F(5, 7)),
    (F(9, 17), F(4, 13)),
)


# slow reference: the bracket expanded into one BiPoly, differenced per node --

def expanded_bracket(E, n, m):
    """Omega = prod_k omega1(q^-k x, y) * prod_s omega2(x, q^-s y), multiplied out."""
    P = build_pearson(E)
    q = E.qp.q
    out = BiPoly.const(1)
    for k in range(n):
        out = out * P.omega1.scale_args(q**-k, 1)
    for s in range(m):
        out = out * P.omega2.scale_args(1, q**-s)
    return out


def factored_bracket(E, n, m):
    """Omega(x, y) as the product of its factors, evaluated pointwise; the
    product and each factor are memoized by their point, since stencils
    overlap."""
    P = build_pearson(E)
    q = E.qp.q
    omega1 = functools.cache(P.omega1.eval)
    omega2 = functools.cache(P.omega2.eval)

    @functools.cache
    def omega(xv, yv):
        val = F(1)
        for k in range(n):
            val *= omega1(xv * q**-k, yv)
        for s in range(m):
            val *= omega2(xv, yv * q**-s)
        return val
    return omega


def reference_grid_values(E, n, m, base, omega=None):
    """Each node of the whole (n+m+1)^2 tensor grid: its forward stencil
    sampled and differenced on its own; Omega is the expanded bracket
    unless `omega` is given."""
    qp = E.qp
    q = qp.q
    G = n + m + 1
    xb, yb = base
    rho = base_weight(E, (xb * q ** -(G - 1), yb * q ** -(G - 1)))
    if omega is None:
        omega = expanded_bracket(E, n, m).eval
    pref = q ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2)
    nodes_x = [xb * q**-i for i in range(G)]
    nodes_y = [yb * q**-j for j in range(G)]
    values = []
    for i in range(G):
        row = []
        for j in range(G):
            s0, t0 = G - 1 - i, G - 1 - j
            fvals = [[rho.value(s0 + r, t0 + s) * omega(nodes_x[i] * q**r, nodes_y[j] * q**s)
                      for s in range(m + 1)] for r in range(n + 1)]
            rho_here = rho.value(s0, t0)
            if rho_here == 0:
                raise LatticePoleError("rho", s0, (nodes_x[i], nodes_y[j]))
            row.append(pref * dq_nm_table(fvals, nodes_x[i], nodes_y[j], qp, n, m)[0][0] / rho_here)
        values.append(row)
    return nodes_x, nodes_y, values


def reference_poly(E, n, m, omega=None):
    """The tensor-grid route: every node of the square grid sampled, then
    two Vandermonde solves."""
    for base in BASES:
        try:
            nodes_x, nodes_y, values = reference_grid_values(E, n, m, base, omega)
        except (LatticePoleError, ZeroDivisionError):
            continue
        return tensor_vandermonde_interpolate(nodes_x, nodes_y, Mat(values))
    raise AssertionError("no pole-free base point")


# |d q| = 7/4 > 1
WIDE_D_PARAMS = BigQJacobiParams(F(1, 3), F(1, 2), F(2, 5), F(-7, 2), QParam(F(1, 2)))


@pytest.mark.parametrize("params", [TEST_PARAMS, Q23_PARAMS], ids=["test-params", "q=2/3"])
def test_factored_lattice_equals_expanded_reference(params):
    E = preset_equation(params)
    for d in range(5):
        for n in range(d + 1):
            assert rodrigues_poly(E, n, d - n) == reference_poly(E, n, d - n), (n, d - n)


@pytest.mark.parametrize("params", [TEST_PARAMS, Q23_PARAMS, WIDE_D_PARAMS],
                         ids=["test-params", "q=2/3", "wide-d"])
def test_lower_set_equals_tensor_reference(params):
    E = preset_equation(params)
    for d in range(7):
        for n in range(d + 1):
            m = d - n
            ref = reference_poly(E, n, m, factored_bracket(E, n, m))
            assert rodrigues_poly(E, n, m) == ref, (n, m)


# reference pipeline: the lattice route with every step in Fractions --------

def fraction_grid_values(E, n, m, base):
    """u on the lower set i + j <= n + m of the backward grid xb q^-i,
    yb q^-j: rho from the weight's walk, f = rho * Omega as Fraction
    products, and the Fraction difference table."""
    q = E.qp.q
    N = n + m
    G = N + 1
    xb, yb = base
    X, Y = xb * q**-N, yb * q**-N
    W = base_weight(E, (X, Y))
    P = W.pearson
    pref = q ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2)
    fvals = []
    for a in range(G + n):
        row = [None] * max(N - a, 0)
        for b in range(len(row), G + m):
            xv, yv = X * q**a, Y * q**b
            val = W.value(a, b)
            for k in range(n):
                val *= P.omega1.eval(xv * q**-k, yv)
            for s in range(m):
                val *= P.omega2.eval(xv, yv * q**-s)
            row.append(val)
        fvals.append(row)
    table = fraction_difference_table(fvals, X, Y, q, n, m)
    values = [[pref * table[N - i][N - j] / W.value(N - i, N - j) for j in range(G - i)]
              for i in range(G)]
    return [xb * q**-i for i in range(G)], [yb * q**-j for j in range(G)], values


def fraction_pipeline_poly(E, n, m):
    for base in BASES:
        try:
            nodes_x, nodes_y, values = fraction_grid_values(E, n, m, base)
        except (LatticePoleError, ZeroDivisionError):
            continue
        return fraction_interpolate_2d(nodes_x, nodes_y, values)
    raise AssertionError("no pole-free base point")


@pytest.mark.parametrize("params", [Q23_PARAMS, *sweep_points(5)],
                         ids=["q=2/3", *(f"sweep-{k}" for k in range(5))])
def test_recursion_equals_fraction_pipeline(params):
    E = preset_equation(params)
    for n, m in [(4, 4), (8, 0), (3, 2), (2, 5), (0, 0)]:
        assert rodrigues_poly(E, n, m) == fraction_pipeline_poly(E, n, m), (n, m)


def diagonal_pole_base(params):
    # omega1(qx, y) carries the factor (x - c y), so G1 = rho(qx,y)/rho(x,y)
    # has a pole wherever x = c y; a base on that ray puts the anchor and
    # every diagonal lattice point (a = b) on it.  y stays off omega2(x, qy)'s
    # zeros y = a and qy = x, so G1 is the only ratio that fails.
    return (params.c * F(5, 11), F(5, 11))


Q910_PARAMS = BigQJacobiParams(F(1, 3), F(1, 4), F(1, 5), F(-1, 2), QParam(F(9, 10)))


@pytest.mark.parametrize("params", [TEST_PARAMS, Q23_PARAMS, Q910_PARAMS, WIDE_D_PARAMS],
                         ids=["test-params", "q=2/3", "q=9/10", "wide-d"])
def test_family_gives_each_pair_as_computed_on_its_own(params):
    # the family is its pairs, in order, each computed as on its own
    E = preset_equation(params)
    pairs = [(t - m, m) for t in range(6) for m in range(t + 1)]
    family = rodrigues_family(E, 5)
    assert list(family) == pairs
    assert family == {pair: rodrigues_poly(E, *pair) for pair in pairs}


def test_zero_weight_at_a_node_is_a_rho_pole(equation):
    # phi1 carries the factor y - x, so on a base with xb = yb the weight
    # vanishes wherever s > t on the lattice.  No ratio has a pole there, but
    # a lattice sampler divides by rho at the nodes j > i.  The recursion
    # evaluates no weight
    base = (F(3, 7), F(3, 7))
    q = equation.qp.q
    anchor = (base[0] * q**-2, base[1] * q**-2)
    assert first_walk_pole(equation, anchor, 4, 4) is None
    rho = base_weight(equation, anchor).box_pairs(4, 4)
    assert [[num == 0 for num, _ in row] for row in rho] == [[s > t for t in range(4)]
                                                              for s in range(4)]
    with pytest.raises(LatticePoleError, match="rho"):
        reference_grid_values(equation, 1, 1, base)
    assert rodrigues_poly(equation, 1, 1) == fraction_pipeline_poly(equation, 1, 1)


def test_order_zero_is_the_normalization(equation):
    assert rodrigues_poly(equation, 0, 0) == BiPoly.const(1)


def test_first_order_closed_form(equation):
    # (1/rho) Dq1 [rho omega1] = (phi1 - omega1)/((q-1) x): the one-step
    # Pearson identity gives an independent closed form for the (1, 0) output
    P = build_pearson(equation)
    q = equation.qp.q
    target = (P.phi1 - P.omega1).div_exact(x * (q - 1))
    assert rodrigues_poly(equation, 1, 0) == target


def test_recursion_where_phi1_outranks_omega1_in_x():
    # phi1 has an x^2 term and omega1 none; the pure pairs equal the
    # fraction reference and the one-step closed form, and a mixed pair
    # refuses as it did before the one-pass step: no Pearson row past order
    # (0, 0) holds, so a y step's division leaves a remainder
    E = parse_equation_source(PHI1_ABOVE_OMEGA1_TEXT)[0]
    P, q = E.pearson, E.qp.q
    assert P.phi1.degree_x() > P.omega1.degree_x()
    assert rodrigues_poly(E, 1, 0) == (P.phi1 - P.omega1).div_exact(x * (q - 1))
    for pair in [(1, 0), (3, 0), (0, 1), (0, 2)]:
        assert rodrigues_poly(E, *pair) == fraction_pipeline_poly(E, *pair), pair
    with pytest.raises(DegenerateEquationError, match="division leaves a remainder"):
        rodrigues_poly(E, 1, 1)


def test_total_degree_and_nondegenerate_leading_part(equation):
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]:
        p = rodrigues_poly(equation, n, m)
        assert p.total_degree() == n + m
        assert any(p.coeff(n + m - j, j) for j in range(n + m + 1))


def test_eigen_equation_residual_zero(equation, adm):
    for n, m in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        p = rodrigues_poly(equation, n, m)
        lam = adm.eigenvalue(n + m)
        assert (apply_operator(equation, p) + p * lam).is_zero()


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


def rodrigues_line1_values(E: EquationCoeffs, n: int, m: int, base) -> tuple:
    """First-line evaluation: backward differences of rho^{(n,m)} divided by
    rho, on the tensor grid xb q^-i, yb q^-j, i, j <= n + m.

    Shares the far anchor with the forward construction so the two routes
    are comparable; they differ by the constant q^{n^2 + m^2} (the forward
    route carries the q^{n(1-n)/2+m(1-m)/2} prefactor).
    """
    qp = E.qp
    q = qp.q
    G = n + m + 1
    xb, yb = base
    # backward stencils reach n (resp. m) extra backward steps past the grid;
    # S, T are the shifts of the base from the far anchor
    S, T = G - 1 + n, G - 1 + m
    anchor = (xb * q**-S, yb * q**-T)
    rho = base_weight(E, anchor)
    rkl = rho_kl(E, n, m, anchor, base=rho)
    fvals = [[rkl.value(S - r, T - s) for s in range(T + 1)] for r in range(S + 1)]
    table = dqm_nm_table(fvals, xb, yb, qp, n, m)
    return [[table[i][j] / rho.value(S - i, T - j) for j in range(G)] for i in range(G)]


def test_line1_equals_line3_up_to_q_square_power(equation):
    # line 1 is sampled on the whole tensor grid; line 3, the polynomial
    # rodrigues_poly returns, is evaluated at its nodes
    q = equation.qp.q
    xb, yb = BASES[0]
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 2)]:
        p = rodrigues_poly(equation, n, m)
        vals1 = rodrigues_line1_values(equation, n, m, BASES[0])
        factor = q ** (n * n + m * m)
        G = n + m + 1
        for i in range(G):
            for j in range(G):
                assert vals1[i][j] == factor * p.eval(xb * q**-i, yb * q**-j)


def test_samples_off_grid_match_interpolant(equation):
    # the quotient is a genuine polynomial: its samples on the whole tensor
    # grid of a base of its own (the test-side sampler) are the values of
    # the polynomial rodrigues_poly returns
    for n, m in [(1, 1), (2, 1)]:
        p = rodrigues_poly(equation, n, m)
        base = (BASES[0][0] * F(1, 4), BASES[0][1] * F(1, 4))
        nodes_x, nodes_y, full = reference_grid_values(equation, n, m, base,
                                                       factored_bracket(equation, n, m))
        G = n + m + 1
        for i in range(G):
            for j in range(G):
                assert full[i][j] == p.eval(nodes_x[i], nodes_y[j])


def first_walk_pole(E, anchor, s_count, t_count):
    """The pole value() meets first when walked row by row over the box, as
    the tensor-grid sampler walked it; None when the box is pole-free."""
    W = base_weight(E, anchor)
    try:
        for s in range(s_count):
            for t in range(t_count):
                W.value(s, t)
    except LatticePoleError as exc:
        return exc.which, exc.index, exc.point
    return None


@seed(2013)
@settings(max_examples=40, deadline=None, database=None)
@given(big_q_jacobi_points(), st.sampled_from([(2, 1), (1, 2), (3, 1), (2, 2), (0, 4), (4, 0)]))
def test_recursion_equals_fraction_reference_across_the_domain(params, pair):
    E = preset_equation(params)
    assert rodrigues_poly(E, *pair) == fraction_pipeline_poly(E, *pair)


@pytest.mark.parametrize("pair", [(2, 2), (4, 0)], ids=str)
def test_recursion_equals_fraction_reference_at_q_nine_tenths(pair):
    E = preset_equation(Q910_PARAMS)
    assert rodrigues_poly(E, *pair) == fraction_pipeline_poly(E, *pair)


def test_weight_box_equals_value(equation):
    # the pairs are in lowest terms, as the weight CSV writes them
    anchor = BASES[0]
    box = base_weight(equation, anchor).box_pairs(7, 5)
    W = base_weight(equation, anchor)
    values = [[W.value(s, t) for t in range(5)] for s in range(7)]
    assert box == [[(v.numerator, v.denominator) for v in row] for row in values]


def pole_anchor(params, kind):
    """An anchor on the G1 pole ray x = c y; for kind "g2" its column
    s = 0 also reaches omega2(x, qy)'s zero y = a at step 2, a G2 pole
    the walk meets before any G1 pole."""
    q = params.qp.q
    xb, yb = diagonal_pole_base(params)
    if kind == "g1-shifted":
        return xb * q**2, yb * q
    if kind == "g2":
        yb = params.a * q**-2
        return params.c * yb, yb
    return xb, yb


@pytest.mark.parametrize("kind", ["g1", "g1-shifted", "g2"])
def test_weight_box_raises_the_walk_pole(equation, params, kind):
    anchor = pole_anchor(params, kind)
    expected = first_walk_pole(equation, anchor, 6, 6)
    assert expected[0] == kind[:2].upper()
    with pytest.raises(LatticePoleError) as err:
        base_weight(equation, anchor).box_pairs(6, 6)
    assert (err.value.which, err.value.index, err.value.point) == expected


@pytest.mark.parametrize("kind", [None, "g1", "g1-shifted", "g2"])
def test_weight_table_rows_follow_the_walk(equation, params, kind):
    # the CSV weight table is read off one box; it must list value() at every
    # point and fail at the pole the row-by-row walk over the table meets
    anchor = BASES[0] if kind is None else pole_anchor(params, kind)
    expected = first_walk_pole(equation, anchor, 6, 5)
    assert (expected is None) == (kind is None)
    if expected is None:
        W = base_weight(equation, anchor)
        rows = weight_table_rows(W, 5, 4)
        assert [(s, t) for s, t, *_ in rows] == [(s, t) for s in range(6) for t in range(5)]
        for s, t, xv, yv, num, den in rows:
            assert (xv, yv) == tuple(str(v) for v in W.point(s, t))
            assert F(int(num), int(den)) == W.value(s, t)
        return
    with pytest.raises(LatticePoleError) as err:
        weight_table_rows(base_weight(equation, anchor), 5, 4)
    assert (err.value.which, err.value.index, err.value.point) == expected


C_33_70_PARAMS = BigQJacobiParams(F(1, 3), F(1, 4), F(33, 70), F(-1, 2), QParam(F(1, 2)))


def test_family_digest_where_a_hand_picked_base_meets_a_pole():
    # at c = 33/70 the first hand-picked base puts a G1 pole on the N = 6
    # family lattice; the recursion needs no lattice, and gives the family
    # whose digest was recorded from a lattice at another base
    E = preset_equation(C_33_70_PARAMS)
    q = C_33_70_PARAMS.qp.q
    assert first_walk_pole(E, (BASES[0][0] * q**-6, BASES[0][1] * q**-6), 13, 13)[0] == "G1"
    family = rodrigues_family(E, 6)
    text = repr(sorted((nm, sorted(p.nums.items()), p.den) for nm, p in family.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d614b0558d2a649a983dcbb08ddb4e2269263315a87beabb29de4af0fb15ff05"


def test_route_forms_are_pinned_on_the_preset_ladder():
    # every pair n + m <= 8 of the preset at three q, as exact forms (den and
    # sorted numerators); the digest was recorded from the unfused recursion
    # (a scale_args and two products per step, a heap-ordered division)
    text = repr([(q, sorted((nm, p.den, sorted(p.nums.items())) for nm, p in rodrigues_family(
                     preset_equation(replace(TEST_PARAMS, qp=QParam(q))), 8).items()))
                 for q in (F(1, 2), F(2, 3), F(9, 10))])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "275de17f11f2b08101eb175b690260ce7b26b39d0177d98f51fe899b79c4ae55"


def test_route_forms_are_pinned_on_the_high_mixed_pairs():
    # every pair with 9 <= n + m <= 12 and min(n, m) >= 2 of the preset at
    # q = 1/2 and 9/10, as exact forms; the digest was recorded from the
    # recursion that carried Omega's omega2 factors in K and divided by
    # omega2 before every y step
    pairs = [(t - m, m) for t in range(9, 13) for m in range(2, t - 1)]
    text = repr([(q, sorted((nm, p.den, sorted(p.nums.items())) for nm, p in rodrigues_polys(
                     preset_equation(replace(TEST_PARAMS, qp=QParam(q))), pairs).items()))
                 for q in (F(1, 2), F(9, 10))])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e206a6e6074c2e6872a1b19cfd7817ce560b299a0042717135db05e1917a3f6d"


@pytest.mark.parametrize("text, failing, refusal", [
    (INCOMPATIBLE_PEARSON_TEXT, ["key", "ratio_left", "ratio_right"], "incompatible Pearson"),
    (PHI1_ZERO_TEXT, ["ratio_left", "ratio_right"], "phi1 or phi2 vanishes"),
    *((equation_to_text(pearson_line(name, F(1, 7))), ["ratio_left", "ratio_right"],
       "not potentially self-adjoint: ratio_left fails") for name in ("f1", "a1", "b")),
], ids=["incompatible", "phi1-zero", "f1-line", "a1-line", "b-line"])
def test_refusals_come_before_any_polynomial_work(monkeypatch, text, failing, refusal):
    # the rows the route decides are the order-(0, 0) rows of the Pearson
    # report, and a vanishing phi1 or phi2 is refused before any of them
    E, _ = parse_equation_source(text)
    report = verify_pearson_identities(E, 0, 0)
    assert [row for row in ("key", "ratio_left", "ratio_right") if not report[row][0, 0]] == failing

    def boom(*args):
        raise AssertionError("refused before any polynomial work")

    monkeypatch.setattr(rodrigues, "_recursion", boom)
    with pytest.raises(DegenerateEquationError, match=refusal):
        rodrigues_poly(E, 1, 1)


SCALINGS = [(F(3), F(2), F(-3, 5)), (F(-2, 7), F(5, 3), F(7, 2))]

@pytest.mark.parametrize("E, implied",
                         [*((preset_equation(p), True) for p in sweep_points(40)),
                          *((scaled_preset(TEST_PARAMS, *kab), True) for kab in SCALINGS),
                          (parse_equation_source(CONSTANT_WEIGHT_TEXT)[0], False)],
                         ids=[*(f"sweep-{k}" for k in range(40)), "scaled-0", "scaled-1",
                              "constant-weight"])
def test_order_zero_rows_and_the_checked_rows(E, implied):
    # the route decides the order-(0, 0) rows alone.  On scaled presets every
    # row that check reports up to order (2, 2) holds with them; the
    # constant-weight equation shows that the (0, 0) rows do not imply them.
    # require asks for key and ratio_left, which imply ratio_right
    # (test_key_and_ratio_left_imply_ratio_right)
    require(E, "rodrigues")
    assert verify_pearson_identities(E, 2, 2)["ok"] is implied


ROUTE_EQUATIONS = st.one_of(
    admissible_equations(),
    st.builds(pearson_line, st.sampled_from(["f1", "a1", "b"]), NONZERO),
    st.builds(scaled_preset, st.sampled_from([TEST_PARAMS, Q23_PARAMS]),
              NONZERO, NONZERO, NONZERO),
).filter(lambda E: E.admissibility.admissible)


@seed(41)
@settings(max_examples=60, deadline=None, database=None)
@given(ROUTE_EQUATIONS)
def test_route_solves_or_refuses_the_sampled_equations(E):
    # at random, on the lines through the preset with a weight but no
    # symmetry, and on scaled presets (potentially self-adjoint away from
    # the preset point): every polynomial the route returns solves the
    # eigen-equation, and where it serves every row check reports holds.
    # The constant-weight equation above passes the route's rows, divides
    # exactly and gets non-solutions; no source here reaches such an
    # equation
    try:
        family = rodrigues_family(E, 2)
    except DegenerateEquationError:
        return
    lam = E.admissibility.eigenvalue
    for (n, m), poly in family.items():
        assert (apply_operator(E, poly) + poly * lam(n + m)).is_zero(), (n, m)
    assert verify_pearson_identities(E, 2, 2)["ok"]


@seed(7)
@settings(max_examples=10, deadline=None, database=None)
@given(constant_weight_equations())
def test_route_refuses_the_constant_weight_family(E):
    # the weight is constant and every order-(0, 0) row holds, but a mixed
    # pair's division leaves a remainder, so the N = 3 family is refused
    require(E, "rodrigues")
    with pytest.raises(DegenerateEquationError, match="a Rodrigues division leaves a remainder"):
        rodrigues_family(E, 3)


@seed(45)
@settings(max_examples=40, deadline=None, database=None)
@given(constant_weight_equations(x_divides_a12d=True))
def test_route_where_x_divides_omega2_refuses_or_solves(E):
    # phi_m(0,y) = omega1(0,y) needs omega2(0,y) != 0; where x divides
    # omega2 an x step's bracket may leave a remainder, which is refused,
    # so no exponent is negative.  A mixed pair that is served solves the
    # eigen-equation; the pure pairs are this constant-weight family's
    # non-solutions, whose rows fail past order (0, 0), as for
    # CONSTANT_WEIGHT_TEXT in test_order_zero_rows_and_the_checked_rows
    lam = E.admissibility.eigenvalue
    for t in range(4):
        for n, m in ((t - m, m) for m in range(t + 1)):
            try:
                poly = rodrigues_poly(E, n, m)
            except DegenerateEquationError as err:
                assert "a Rodrigues division leaves a remainder" in str(err)
                continue
            assert all(i >= 0 and j >= 0 for i, j in poly.nums), (n, m)
            assert (apply_operator(E, poly) + poly * lam(n + m)).is_zero() or (
                min(n, m) == 0 and not verify_pearson_identities(E, 2, 2)["ok"]), (n, m)


@pytest.mark.parametrize("n, m", [(1, 2), (1, 3)], ids=str)
def test_route_refuses_the_zero_mixed_pairs_where_omega2_is_x(n, m):
    # the pair runs as (m, n) on the swapped data, where the weight's x
    # ratio phi2 omega1(qy,x) / omega1(y,x) is not a polynomial; the route
    # that divided by omega2 before each y step returned the zero polynomial
    E, _ = parse_equation_source(OMEGA2_X_TEXT)
    assert E.pearson.omega2 == x and E.pearson.phi2 == x
    with pytest.raises(DegenerateEquationError, match="a Rodrigues division leaves a remainder"):
        rodrigues_poly(E, n, m)
    assert rodrigues_poly(E, 0, m).is_zero()


ROWS = ("key", "ratio_left", "ratio_right")


@seed(45)
@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(ROUTE_EQUATIONS, constant_weight_equations(),
                 constant_weight_equations(x_divides_a12d=True)),
       st.sampled_from([("weight", ROWS[:1]), ("rodrigues", ROWS[:2])]))
def test_require_names_the_first_failing_row(E, request_rows):
    # require decides the ratio rows first and forms key only where they do
    # not imply it; its verdict is the Pearson report's, at the rows that
    # the request needs: key for the weight, key and ratio_left for the route
    request, rows = request_rows
    try:
        report = verify_pearson_identities(E, 0, 0)
    except DegenerateEquationError:
        return
    if E.pearson.phi1.is_zero() or E.pearson.phi2.is_zero():
        return
    failing = [row for row in rows if not report[row][0, 0]]
    if not failing:
        require(E, request)
        return
    message = "incompatible Pearson" if failing[0] == "key" else f"{failing[0]} fails"
    with pytest.raises(DegenerateEquationError, match=message):
        require(E, request)


def test_require_decides_key_where_a12d_vanishes():
    # with a12d = a12a = 0 both ratio rows hold as 0 = 0 and imply nothing;
    # G1 = 1 + x - x^2 + x y / 2 depends on y and G2 = 1, so key fails.
    # require refuses this equation for its form first: where B1 is affine
    # in x, G1 depends on x alone and G2 on y alone, and key holds
    q = F(1, 2)
    E = EquationCoeffs(QParam(q), BiPoly.const(1), BiPoly.const(1), BiPoly.zero(), BiPoly.zero(),
                       (BiPoly.const(1) - x + y * F(1, 2)) / (q - 1), BiPoly.const(0))
    report = verify_pearson_identities(E, 0, 0)
    assert [row for row in ROWS if not report[row][0, 0]] == ["key"]
    with pytest.raises(DegenerateEquationError, match="incompatible Pearson"):
        HYPOTHESES["weight"](E)
    with pytest.raises(ShapeViolation, match="B1 must not depend on y"):
        require(E, "weight")


@seed(7)
@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(ROUTE_EQUATIONS, constant_weight_equations()))
def test_key_and_ratio_left_imply_ratio_right(E):
    # why the self_adjoint hypothesis asks for ratio_left alone, given key
    try:
        report = verify_pearson_identities(E, 2, 2)
    except DegenerateEquationError:
        return
    for kl, held in report["ratio_right"].items():
        assert held or not (report["key"][kl] and report["ratio_left"][kl]), kl


def formed_keys(E, k_max: int, l_max: int) -> dict:
    """{(k, l): key} of every order up to the bounds, each from its two
    degree-8 products, whatever the ratio rows read."""
    q, out = E.qp.q, {}
    for kl, D in derived_box(E, k_max, l_max).items():
        P = build_pearson(D)
        w1, w2 = P.omega1.scale_args(q, 1), P.omega2.scale_args(1, q)
        n_l, d_l = P.phi1 * P.phi2.scale_args(q, 1), w1 * w2.scale_args(q, 1)
        n_r, d_r = P.phi1.scale_args(1, q) * P.phi2, w1.scale_args(1, q) * w2
        out[kl] = n_l * d_r == n_r * d_l
    return out


@seed(50)
@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(ROUTE_EQUATIONS, constant_weight_equations()))
def test_report_key_is_the_formed_key(E):
    # check forms key only where a ratio row fails or a12d vanishes; at
    # every order its report reads what the products give
    try:
        report = verify_pearson_identities(E, 2, 2)
    except DegenerateEquationError:
        return
    assert report["key"] == formed_keys(E, 2, 2)


def test_report_forms_key_where_one_ratio_row_holds():
    # G2 = 1 and G1 = y, with a12a = q^2 a12d(qx,qy) y: ratio_left holds,
    # ratio_right would need q y = y and fails, and so does key; neither ratio
    # row alone implies key.  x divides a12d and c11 has no constant term,
    # so that B1 and B2 are polynomials
    q = F(1, 2)
    c11, c22, a12d, a12a = x * x, y * y, x, x * y * q**3
    omega1, omega2 = y * c11 - x * a12d * q, x * c22 - y * a12d * q
    b1 = BiPoly.div_exact(y * omega1.scale_args(q, 1) - y * c11 + x * a12a, x * y * (q - 1))
    b2 = BiPoly.div_exact(omega2.scale_args(1, q) - x * c22 + y * a12a, x * y * (q - 1))
    E = EquationCoeffs(QParam(q), c11, c22, a12a, a12d, b1, b2)
    report = verify_pearson_identities(E, 2, 2)
    assert [kl for kl, held in report["ratio_left"].items() if held] == [(0, 0), (1, 0), (2, 0)]
    assert not any(report["ratio_right"].values())
    assert report["key"] == formed_keys(E, 2, 2)
    assert not any(report["key"].values())


def test_rejects_nonadmissible_equation(equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    with pytest.raises(NotAdmissibleError):
        rodrigues_poly(bad, 1, 0)


@pytest.mark.parametrize("n, m", [(-1, 0), (0, -1)])
def test_rejects_negative_degrees(equation, n, m):
    with pytest.raises(ValueError, match="nonnegative"):
        rodrigues_poly(equation, n, m)


def rodrigues_orthogonality_check(E, n: int, m: int, functional) -> dict:
    """Weighted moments of the Rodrigues polynomial against all monomials of
    lower total degree; `functional` maps BiPoly -> scalar (float lane)."""
    poly = rodrigues_poly(E, n, m)
    out = {}
    for d in range(n + m):
        for i in range(d + 1):
            mono = BiPoly({(d - i, i): 1})
            out[(d - i, i)] = functional(poly * mono)
    return out


def test_orthogonality_against_lower_degrees(equation, moments):
    tol = F(1, 10 ** 25)
    norm = moments.integrate(BiPoly.const(1))
    rep = rodrigues_orthogonality_check(equation, 1, 0, moments.integrate)
    assert abs(rep[(0, 0)]) / norm < tol
    rep = rodrigues_orthogonality_check(equation, 1, 1, moments.integrate)
    for key, val in rep.items():
        assert abs(val) / norm < tol
    # vacuous case
    assert rodrigues_orthogonality_check(equation, 0, 0, moments.integrate) == {}


def test_rodrigues_calls_share_the_equations_pearson_data(monkeypatch):
    """The Pearson data is built once per equation object: Rodrigues
    polynomials of one equation share it, and base_weight hands it on; an
    equal but distinct object builds its own."""
    import qbipoly.pearson as pearson

    calls = []
    build = pearson.build_pearson
    monkeypatch.setattr(pearson, "build_pearson", lambda E: calls.append(E) or build(E))
    E = preset_equation(TEST_PARAMS)
    for n, m in ((1, 0), (0, 1), (2, 1)):
        rodrigues_poly(E, n, m)
    assert len(calls) == 1 and calls[0] is E
    assert base_weight(E, (F(1, 3), F(1, 5))).pearson is E.pearson
    other = preset_equation(TEST_PARAMS)
    assert other.pearson is not E.pearson and other.pearson.omega1 == E.pearson.omega1
    assert len(calls) == 2
