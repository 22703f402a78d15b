import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import qbipoly.equation as equation_module
import qbipoly.pearson as pearson_module
from qbipoly.bigqjacobi import BigQJacobiParams, preset_equation
from qbipoly.bipoly import BiPoly
from qbipoly.equation import EquationCoeffs, derived_coeffs
from qbipoly.pearson import (DegenerateEquationError, LatticePoleError,
                             WeightEvaluator, base_weight, build_pearson,
                             verify_pearson_identities)
from qbipoly.qcalc import QParam
from qbipoly.scalars import FloatField
from strategies import admissible_equations, constant_weight_equations, replace
from test_bigqjacobi import closed_form_weight
from test_bipoly import RationalFn, dq_ratfn

F = Fraction
x = BiPoly.x()
y = BiPoly.y()

#: pole-free anchor for the fixed test parameters (q = 1/2): no Pearson
#: numerator or denominator zero crosses the lattice paths for s, t <= 14
ANCHOR = (F(3, 7), F(5, 11))


def pearson_ratios(P, q) -> tuple:
    """(G1, G2) = (phi1(x,y)/omega1(qx,y), phi2(x,y)/omega2(x,qy)) as
    RationalFns: the reference form of the ratios whose four polynomials
    PearsonData holds."""
    return (RationalFn(P.phi1, P.omega1.scale_args(q, 1)),
            RationalFn(P.phi2, P.omega2.scale_args(1, q)))


def test_pearson_factorizations(equation, params):
    P = build_pearson(equation)
    q, a, c, d = params.qp.q, params.a, params.c, params.d
    one = BiPoly.const(1)
    # omega1 at shifted first argument factors through the lattice boundary x = d
    assert P.omega1.scale_args(q, 1) == (one * d - x) * (y * c - x) * (a * q ** 4)
    assert P.omega2.scale_args(1, q) == (one * a - y) * (x - y * q) * (d * q ** 3)
    b = params.b
    assert P.phi1 == (y - x) * (one * d - x * b) * (a * c * q ** 4)
    assert P.phi2 == (one - y) * (x - y * c * q) * (a * d * q ** 3)


def test_g_ratio_is_pointwise_quotient(equation):
    P = build_pearson(equation)
    xv, yv = F(2, 9), F(4, 7)
    q = equation.qp.q
    g1, _ = pearson_ratios(P, q)
    assert g1.eval(xv, yv) == P.phi1.eval(xv, yv) / P.omega1.eval(q * xv, yv)


def test_constant_ratio_degenerate_case(qp):
    # b1 = b2 = 0 and a12a(x, y) = q^2 a12d(qx, qy) force G1 = G2 = 1:
    # the weight is constant on the lattice
    z = BiPoly.zero()
    a12d = BiPoly.const(1)
    a12a = BiPoly.const(qp.q ** 2)
    E = EquationCoeffs(qp, z, z, a12a, a12d, z, z)
    for g in pearson_ratios(build_pearson(E), qp.q):
        assert g.ratfn_equal(RationalFn.from_poly(BiPoly.const(1)))


def test_degenerate_omega_rejected(qp):
    z = BiPoly.zero()
    with pytest.raises(DegenerateEquationError):
        build_pearson(EquationCoeffs(qp, z, z, z, z, z, z))


def test_pearson_identities_pass(equation):
    rep = verify_pearson_identities(equation, 3, 3)
    assert rep["ok"]
    assert all(rep["coupling"].values())
    # base coupling is a special case of the ratio identity and must pass too
    assert rep["coupling"][(0, 0)]


def test_ratio_identity_fails_on_perturbed_equation(equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 7), equation.b1, equation.b2)
    rep = verify_pearson_identities(bad, 0, 0)
    assert not rep["ratio_left"][(0, 0)]


def test_cross_ratio_identity_direct_form(equation):
    P = build_pearson(equation)
    q = equation.qp.q
    g1, g2 = pearson_ratios(P, q)
    lhs = g1 * g2.scale_args(q, 1) * equation.a12d.scale_args(q, q) * q ** 2
    assert lhs.ratfn_equal(RationalFn.from_poly(equation.a12a))


# the report against its rational-function form ----------------------------------

ROWS = ("ratio_left", "ratio_right", "key", "coupling")


def derived_box(E: EquationCoeffs, k_max: int, l_max: int) -> dict:
    """{(k, l): derived_coeffs(E, k, l)} for k <= k_max, l <= l_max."""
    return {(k, l): derived_coeffs(E, k, l) for k in range(k_max + 1) for l in range(l_max + 1)}


def rational_pearson_identities(E: EquationCoeffs, k_max: int, l_max: int) -> dict:
    """Reference for verify_pearson_identities: each identity formed from
    RationalFn products and compared by cross multiplication.  The ratio
    identities read G1 G2(qx,y) q^2 a12d(qx,qy) = a12a and G1(x,qy) G2
    q^2 a12d(qx,qy) = a12a, and the key identity keeps its difference
    form g2 y Dq2 g1 = g1 x Dq1 g2."""
    qp, q = E.qp, E.qp.q
    report = {row: {} for row in ROWS}
    derived = derived_box(E, k_max + 1, l_max + 1)
    pearson = {kl: build_pearson(D) for kl, D in derived.items()}
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            P, D = pearson[k, l], derived[k, l]
            g1, g2 = pearson_ratios(P, q)
            a12a = RationalFn.from_poly(D.a12a)
            a12d_qq = D.a12d.scale_args(q, q)
            lhs_l = g1 * g2.scale_args(q, 1) * a12d_qq * q**2
            lhs_r = g1.scale_args(1, q) * g2 * a12d_qq * q**2
            report["ratio_left"][(k, l)] = lhs_l.ratfn_equal(a12a)
            report["ratio_right"][(k, l)] = lhs_r.ratfn_equal(a12a)
            key_lhs = g2 * y * dq_ratfn(g1, qp, 2)
            key_rhs = g1 * x * dq_ratfn(g2, qp, 1)
            report["key"][(k, l)] = key_lhs.ratfn_equal(key_rhs)
            w1_up = pearson[k, l + 1].omega1.scale_args(q, 1)
            w2_kl = P.omega2.scale_args(q, q)
            w2_up = pearson[k + 1, l].omega2.scale_args(1, q)
            w1_kl = P.omega1.scale_args(q, q)
            report["coupling"][(k, l)] = (w1_up * w2_kl) == (w2_up * w1_kl)
    report["ok"] = all(v for row in ROWS for v in report[row].values())
    return report


def _in_order(report: dict) -> list:
    """The report's keys and values, each row's orders in report order."""
    return [(name, list(v.items()) if isinstance(v, dict) else v) for name, v in report.items()]


def _seeded_preset(q, seed):
    """The preset equation at a seeded point: 0 < a, b, c < 1 and d < 0,
    each k/den with den in {3, 5, ..., 13}."""
    rng = random.Random(seed)
    a, b, c = (F(rng.randrange(1, den), den) for den in rng.sample((3, 5, 7, 9, 11, 13), 3))
    d = -F(rng.randrange(1, 20), rng.choice((3, 5, 7, 9, 11, 13)))
    return preset_equation(BigQJacobiParams(a, b, c, d, QParam(q)))


@pytest.mark.parametrize("bounds", [(0, 0), (2, 2), (3, 1)], ids=str)
@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(9, 10)], ids=str)
def test_report_matches_rational_form_at_seeded_points(q, bounds):
    for i in range(3):
        E = _seeded_preset(q, f"pearson-parity-{q}-{i}")
        rep = verify_pearson_identities(E, *bounds)
        assert rep["ok"]
        assert _in_order(rep) == _in_order(rational_pearson_identities(E, *bounds))


def test_report_matches_rational_form_on_perturbed_equations(equation):
    # between them the perturbations make every row read False somewhere;
    # the xy parts alone give ratios of one variable each, so key and
    # coupling hold while both ratio rows fail
    def xy_part(p):
        return BiPoly({(1, 1): p.coeff(1, 1)})

    E = equation
    perturbed = {
        "a12d + xy/7": replace(E, a12d=E.a12d + x * y * F(1, 7)),
        "a12d + 3x^2/4": replace(E, a12d=E.a12d + x * x * F(3, 4)),
        "c11 + y/2": replace(E, c11=E.c11 + y * F(1, 2)),
        "a12a = 0": replace(E, a12a=BiPoly.zero()),
        "xy parts of a12a and a12d": replace(E, a12a=xy_part(E.a12a), a12d=xy_part(E.a12d)),
    }
    failed = set()
    for name, bad in perturbed.items():
        rep = verify_pearson_identities(bad, 2, 1)
        assert _in_order(rep) == _in_order(rational_pearson_identities(bad, 2, 1)), name
        failed |= {row for row in ROWS if not all(rep[row].values())}
    assert failed == set(ROWS)
    rep = verify_pearson_identities(perturbed["xy parts of a12a and a12d"], 2, 1)
    assert [all(rep[row].values()) for row in ROWS] == [False, False, True, True]


def test_report_forms_no_rational_function_arithmetic(equation, monkeypatch):
    # src has no rational-function type (tests/test_api.py), and the report
    # divides no polynomial by another: every row is a product identity
    def refuse(*args):
        raise AssertionError("polynomial division in the Pearson report")

    monkeypatch.setattr(BiPoly, "div_exact", refuse)
    assert verify_pearson_identities(equation, 2, 2)["ok"]


def test_check_forms_each_k_only_product_once(monkeypatch, capsys):
    # phi1(q^k x, y) a12d(qx,qy) and phi1(q^k x, qy) a12d(qx,qy) vary with k
    # alone: formed once per k, with q^(2-k-l) carried as a scalar, `check`
    # at q = 9/10 makes 78 products (90 when each order formed its own)
    from qbipoly.cli import main

    calls = []
    real = pearson_module.product
    monkeypatch.setattr(pearson_module, "product", lambda a, b: calls.append(1) or real(a, b))
    assert main(["check", "--preset", "big-q-jacobi", "--param", "q=9/10"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(calls) <= 78


# every order's data from the order-(0,0) data ----------------------------------

def test_report_takes_no_propagation_step(equation, monkeypatch):
    # every order's Pearson data are closed-form shifts of the order-(0, 0)
    # data, so the (2, 2) report propagates no coefficient
    steps = []
    real = equation_module._xstep
    monkeypatch.setattr(equation_module, "_xstep",
                        lambda qp, state: steps.append(1) or real(qp, state))
    report = verify_pearson_identities(equation, 2, 2)
    assert steps == []
    monkeypatch.undo()
    assert report["ok"]
    assert _in_order(report) == _in_order(rational_pearson_identities(equation, 2, 2))


def test_report_builds_pearson_data_once_at_order_zero(equation, monkeypatch):
    # the (2, 2) report reads the orders k <= 3, l <= 3 but the corner, and
    # builds Pearson data once: E.pearson, at order (0, 0)
    E = replace(equation)
    built = []
    real = pearson_module.build_pearson
    monkeypatch.setattr(pearson_module, "build_pearson", lambda D: built.append(D) or real(D))
    report = verify_pearson_identities(E, 2, 2)
    monkeypatch.undo()
    assert built == [E]
    assert _in_order(report) == _in_order(rational_pearson_identities(equation, 2, 2))


def closed_form_order(E, k: int, l: int) -> tuple:
    """(phi1, phi2, omega1, omega2, a12a, a12d) of order (k, l) by the
    closed forms in the ``pearson`` module docstring, from E's coefficients
    alone, with g_n = sum_(s<n) q^-s."""
    q, a12d = E.qp.q, E.a12d
    phi1, phi2 = (y * E.c11 - x * E.a12a + x * y * E.b1 * (q - 1),
                  x * E.c22 - y * E.a12a + x * y * E.b2 * (q - 1))
    g = [sum(q**-s for s in range(n)) for n in range(max(k, l) + 1)]
    omega1 = (y * E.c11 + x * (a12d - a12d.scale_args(1, q)) * g[l] - x * a12d * q ** (1 - l)) / q**k
    omega2 = (x * E.c22 + y * (a12d - a12d.scale_args(q, 1)) * g[k] - y * a12d * q ** (1 - k)) / q**l
    return (phi1.scale_args(q**k, 1) / q**k, phi2.scale_args(1, q**l) / q**l, omega1, omega2,
            E.a12a.scale_args(q**k, q**l), a12d / q ** (k + l))


_TERMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=4)
#: six coefficients of at most four terms each, of degree at most 2 in
#: each variable: no shape, admissibility or nondegeneracy asked for
UNCONSTRAINED = st.builds(lambda q, *terms: EquationCoeffs(QParam(q), *map(BiPoly, terms)),
                          st.sampled_from([F(1, 2), F(2, 3), F(9, 10)]), *[_TERMS] * 6)


@seed(51)
@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(admissible_equations(), constant_weight_equations(), UNCONSTRAINED))
def test_closed_forms_are_the_propagated_orders(E):
    # for any coefficients, every order's Pearson data, a12a and a12d are
    # the closed forms of the order-(0, 0) data; the report built on them
    # reads what the rational-function form of each identity gives
    q = E.qp.q
    closed = {}
    for (k, l), D in derived_box(E, 3, 3).items():
        closed[k, l] = phi1, phi2, omega1, omega2, a12a, a12d = closed_form_order(E, k, l)
        assert (a12a, a12d) == (D.a12a, D.a12d), (k, l)
        try:
            assert build_pearson(D) == pearson_module.PearsonData(phi1, phi2, omega1, omega2), (k, l)
        except DegenerateEquationError:
            assert omega1.is_zero() or omega2.is_zero(), (k, l)
    try:
        reference = rational_pearson_identities(E, 3, 3)
    except DegenerateEquationError:
        with pytest.raises(DegenerateEquationError):
            verify_pearson_identities(E, 3, 3)
        return
    assert _in_order(verify_pearson_identities(E, 3, 3)) == _in_order(reference)
    # the factors that the report's rows read, with the scalars split off
    xs, ys = pearson_module._along(E, 3, 0), pearson_module._along(E, 3, 1)
    for (k, l), (phi1, phi2, omega1, omega2, _, _) in closed.items():
        p1, p2, w1, w2 = phi1 * q**k, phi2 * q**l, omega1 * q**k, omega2 * q**l
        assert xs[k] == (p1, p1.scale_args(1, q), w2.scale_args(1, q), w2.scale_args(q, q))
        assert ys[l] == (p2, p2.scale_args(q, 1), w1.scale_args(q, 1), w1.scale_args(q, q))


def _random_shaped_equation(q, seed):
    """A seeded equation of the paper's shape: c11 quadratic in x, c22 in y,
    a12a and a12d bilinear, b1 affine in x, b2 in y; small rational
    coefficients, omega1 and omega2 not identically zero."""
    rng = random.Random(seed)

    def poly(monos):
        return BiPoly({m: F(rng.randint(-6, 6), rng.randint(1, 5)) for m in monos})

    while True:
        E = EquationCoeffs(QParam(q), poly([(0, 0), (1, 0), (2, 0)]), poly([(0, 0), (0, 1), (0, 2)]),
                           poly([(0, 0), (1, 0), (0, 1), (1, 1)]),
                           poly([(0, 0), (1, 0), (0, 1), (1, 1)]),
                           poly([(0, 0), (1, 0)]), poly([(0, 0), (0, 1)]))
        try:
            build_pearson(E)
        except DegenerateEquationError:
            continue
        return E


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(9, 10)], ids=str)
def test_omega_steps_divide_by_q(q):
    # one x step divides omega1 by q and one y step divides omega2 by q, so
    # the corner's omega pair is its neighbours' over q: the report never
    # reads the corner, and a degenerate corner has a degenerate neighbour
    equations = [_seeded_preset(q, f"corner-{q}-{i}") for i in range(3)]
    equations += [_random_shaped_equation(q, f"corner-random-{q}-{i}") for i in range(10)]
    for E in equations:
        derived = derived_box(E, 3, 3)
        P = {kl: build_pearson(D) for kl, D in derived.items()}
        for k in range(3):
            for l in range(4):
                assert P[k + 1, l].omega1 == P[k, l].omega1 / q
                assert P[l, k + 1].omega2 == P[l, k].omega2 / q


def test_degenerate_order_past_the_bounds_is_refused():
    # omega2 of order (1, 0) is omega2 + (q - 1) y (a12d - x Dq1 a12d) of
    # order (0, 0); with a12d = x^2 and c22 = q^2 x y it vanishes at (1, 0),
    # one past the bound, but not at (0, 0).  Across the swap the same holds
    # for omega1 at (0, 1)
    q = F(1, 2)
    z, one = BiPoly.zero(), BiPoly.const(1)
    E = EquationCoeffs(QParam(q), one, x * y * q**2, z, x * x, z, z)
    swapped = EquationCoeffs(E.qp, E.c22.swap(), E.c11.swap(), z, E.a12d.swap(), z, z)
    for bad in (E, swapped):
        build_pearson(bad)
        with pytest.raises(DegenerateEquationError,
                           match="^omega vanishes identically; no Pearson system$"):
            verify_pearson_identities(bad, 0, 0)


# lattice weight ----------------------------------------------------------------

def value_xfirst(W: WeightEvaluator, s: int, t: int):
    """W.value(s, t) walked x first (G1 along y0, then G2 at the final x
    level); equality with value() is the lattice form of the mixed-ratio
    identity."""
    q = W.qp.q
    x0, y0 = W.anchor
    val = 1
    for j in range(s):
        val *= W._g("G1", x0 * q**j, y0, j)
    for i in range(t):
        val *= W._g("G2", x0 * q**s, y0 * q**i, i)
    return val


def test_anchor_normalization(equation):
    W = base_weight(equation, ANCHOR)
    assert W.value(0, 0) == 1


def test_single_step_is_g1(equation):
    W = base_weight(equation, ANCHOR)
    g1, _ = pearson_ratios(build_pearson(equation), equation.qp.q)
    assert W.value(1, 0) == g1.eval(*ANCHOR)


def test_path_independence(equation):
    W = base_weight(equation, ANCHOR)
    for s in range(13):
        for t in range(13 - s):
            assert W.value(s, t) == value_xfirst(W, s, t)


def test_pearson_ratios_on_lattice(equation):
    W = base_weight(equation, ANCHOR)
    g1, g2 = pearson_ratios(build_pearson(equation), equation.qp.q)
    for s in range(5):
        for t in range(5):
            xv, yv = W.point(s, t)
            assert W.value(s + 1, t) == g1.eval(xv, yv) * W.value(s, t)
            assert W.value(s, t + 1) == g2.eval(xv, yv) * W.value(s, t)


def test_pole_reported_with_index(equation, params):
    dq = params.d * params.qp.q
    W = base_weight(equation, (dq, dq))
    # walking x first crosses the omega2 zero x = q y on the equal-scale lattice
    with pytest.raises(LatticePoleError) as err:
        value_xfirst(W, 1, 1)
    assert err.value.which == "G2"
    assert err.value.index == 0
    # the y-first canonical path stays finite
    assert W.value(1, 1) != 0


# derivative weights -------------------------------------------------------------

def omega_product_at(E: EquationCoeffs, k: int, l: int, xv, yv):
    """prod_{i=1..k} omega1(q^i x, q^l y) * prod_{s=1..l} omega2(q^k x, q^s y)."""
    P = build_pearson(E)
    q = E.qp.q
    val = F(1)
    for i in range(1, k + 1):
        val *= P.omega1.eval(xv * q**i, yv * q**l)
    for s in range(1, l + 1):
        val *= P.omega2.eval(xv * q**k, yv * q**s)
    return val


class DerivativeWeight:
    """The derivative weight rho^{(k,l)} on the lattice of its anchor: the
    weight of the (k,l) derived coefficients, times a scale fixed by the
    product identity

        rho^{(k,l)}(x,y) = rho(q^k x, q^l y)
                           * prod_{i=1..k} omega1(q^i x, q^l y)
                           * prod_{s=1..l} omega2(q^k x, q^s y)

    at the anchor, so that the identity holds at every lattice point (not
    only up to a constant)."""

    def __init__(self, E: EquationCoeffs, k: int, l: int, anchor, base: WeightEvaluator):
        self.weight = base_weight(derived_coeffs(E, k, l), anchor)
        self.scale = base.value(k, l) * omega_product_at(E, k, l, *anchor)

    def value(self, s: int, t: int):
        return self.scale * self.weight.value(s, t)

    def point(self, s: int, t: int):
        return self.weight.point(s, t)


def rho_kl(E: EquationCoeffs, k: int, l: int, anchor, base: WeightEvaluator | None = None):
    """The derivative weight rho^{(k,l)}, relative to base (the weight of E
    at the same anchor, built when None)."""
    anchor = tuple(anchor)
    if base is None:
        base = base_weight(E, anchor)
    return DerivativeWeight(E, k, l, anchor, base)


def test_rho_kl_base_case(equation):
    R = rho_kl(equation, 0, 0, ANCHOR)
    W = base_weight(equation, ANCHOR)
    for s in range(4):
        for t in range(4):
            assert R.value(s, t) == W.value(s, t)


def test_rho_kl_product_identity(equation):
    W = base_weight(equation, ANCHOR)
    for k, l in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        R = rho_kl(equation, k, l, ANCHOR)
        for s in range(4):
            for t in range(4):
                xv, yv = R.point(s, t)
                rhs = W.value(s + k, t + l) * omega_product_at(equation, k, l, xv, yv)
                assert R.value(s, t) == rhs


def test_rho_kl_order_independence(equation):
    # relative normalization consistent whichever axis is derived first:
    # ratios of the (1,1) weight along both axes match its Pearson data
    R = rho_kl(equation, 1, 1, ANCHOR)
    g1, g2 = pearson_ratios(build_pearson(derived_coeffs(equation, 1, 1)), equation.qp.q)
    for s in range(4):
        for t in range(4):
            xv, yv = R.point(s, t)
            assert R.value(s + 1, t) == g1.eval(xv, yv) * R.value(s, t)
            assert R.value(s, t + 1) == g2.eval(xv, yv) * R.value(s, t)


def test_rho_10_ratio_is_omega1(equation):
    # first derivative weight over the base weight at a lattice point:
    # rho^{(1,0)}(x, y) / rho(q x, y) = omega1(q x, y)
    W = base_weight(equation, ANCHOR)
    R = rho_kl(equation, 1, 0, ANCHOR)
    P = build_pearson(equation)
    q = equation.qp.q
    for s in range(3):
        for t in range(3):
            xv, yv = W.point(s, t)
            assert R.value(s, t) == W.value(s + 1, t) * P.omega1.eval(q * xv, yv)


# closed-form weight (float lane) -------------------------------------------------

def test_closed_form_ratio_matches_g1(params, equation):
    fld = FloatField(192)
    P = build_pearson(equation)
    q = params.qp.q
    pt = (F(2, 9), F(3, 7))
    w_here = closed_form_weight(params, pt[0], pt[1], fld)
    w_shift = closed_form_weight(params, q * pt[0], pt[1], fld)
    target = fld.of(pearson_ratios(P, q)[0].eval(*pt))
    assert abs(w_shift / w_here - target) < fld.of(F(1, 10 ** 30))


def test_closed_form_ratio_matches_g2(params, equation):
    fld = FloatField(192)
    P = build_pearson(equation)
    q = params.qp.q
    pt = (F(1, 7), F(3, 7))
    w_here = closed_form_weight(params, pt[0], pt[1], fld)
    w_shift = closed_form_weight(params, pt[0], q * pt[1], fld)
    target = fld.of(pearson_ratios(P, q)[1].eval(*pt))
    assert abs(w_shift / w_here - target) < fld.of(F(1, 10 ** 30))


def test_closed_form_ratio_on_diagonal(params, equation):
    # at (aq, aq) the mixed ratio degenerates consistently: G1 vanishes there
    # while (x/y; q)_inf makes the unshifted weight diverge, so the step ratio
    # tends to zero; the shifted value stays finite
    fld = FloatField(96)
    P = build_pearson(equation)
    q, a = params.qp.q, params.a
    assert pearson_ratios(P, q)[0].eval(a * q, a * q) == 0
    w_shift = closed_form_weight(params, q * a * q, a * q, fld)
    assert w_shift != 0
    with pytest.raises(ZeroDivisionError):
        closed_form_weight(params, a * q, a * q, fld)


def test_closed_form_vanishing_factor(params):
    fld = FloatField(96)
    # x = d makes the (x/d; q)_inf numerator factor vanish exactly
    v = closed_form_weight(params, params.d, F(1, 3), fld)
    assert v == 0


def test_variants_differ_by_constant(params):
    fld = FloatField(192)
    expect = fld.of(-params.d / params.c)  # = 5/2 at the test parameters
    assert expect == fld.of(F(5, 2))
    for pt in ((F(1, 9), F(2, 7)), (F(-1, 8), F(1, 5)), (F(2, 11), F(3, 7))):
        w = closed_form_weight(params, pt[0], pt[1], fld, variant="W")
        rho = closed_form_weight(params, pt[0], pt[1], fld, variant="rho")
        assert abs(rho / w - expect) < fld.of(F(1, 10 ** 40))
