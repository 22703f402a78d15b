import random
from fractions import Fraction

import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from qbipoly.bipoly import BiPoly, RationalFn
from qbipoly.linalg import Mat, PolyVec
from qbipoly.scalars import FloatField

x = BiPoly.x()
y = BiPoly.y()


def rand_poly(rng, max_deg=3, max_terms=5):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_deg)
        j = rng.randint(0, max_deg - i)
        coeffs[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return BiPoly(coeffs)


coeff_st = st.fractions(min_value=-10, max_value=10, max_denominator=9)
poly_st = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff_st, min_size=0, max_size=6
).map(BiPoly)


def test_difference_of_squares():
    assert (x + y) * (x - y) == x * x - y * y


def test_scaling_substitution():
    p = x * y
    assert p.scale_args(Fraction(1, 2), 1) == x * y * Fraction(1, 2)


def test_evaluation():
    p = x * x * y
    assert p.eval(2, 3) == 12


def test_eval_grid_equals_eval():
    rng = random.Random(5)
    q = Fraction(2, 3)
    for _ in range(30):
        p = rand_poly(rng, max_deg=rng.randint(0, 6), max_terms=12)
        if rng.random() < 0.5:
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 5))]
            ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 5))]
        else:  # a geometric lattice, as the Rodrigues sampler uses
            X, Y = Fraction(rng.randint(1, 9), 11), -Fraction(rng.randint(1, 9), 13)
            xs = [X * q**a for a in range(6)]
            ys = [Y * q**b for b in range(5)]
        assert p.eval_grid(xs, ys) == [[p.eval(a, b) for b in ys] for a in xs]
    assert BiPoly.zero().eval_grid([1, 2], [3]) == [[0], [0]]
    assert (x * y + 1).eval_grid([0, 2], [Fraction(1, 2)]) == [[1], [2]]


def test_zero_polynomial_has_empty_support():
    assert (x - x).coeffs == {}
    assert BiPoly.zero().total_degree() == -1


def test_no_stored_zero_coefficients():
    p = BiPoly({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.coeffs


@settings(max_examples=40, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p * (r + s) == p * r + p * s
    assert (p * r) * s == p * (r * s)
    assert p * r == r * p


def test_power_and_division():
    p = (x + 1) ** 3
    assert p.coeff(2, 0) == 3
    assert (p / Fraction(3)).coeff(2, 0) == 1


def test_div_exact():
    p = (x + 1) * (y - x) * (y - x)
    q1 = p.div_exact(y - x)
    assert q1 == (x + 1) * (y - x)
    with pytest.raises(ValueError):
        (x * x + 1).div_exact(x + 1)


def test_classical_derivatives():
    p = x * x * y + y
    assert p.diff_x() == x * y * 2
    assert p.diff_y() == x * x + 1


#: non-rational scalars: a global-context mpf, a FloatField value, a float
NOT_RATIONAL = [mpmath.mpf(1) / 3, FloatField(96).of(Fraction(1, 3)), 0.5]


@pytest.mark.parametrize("v", NOT_RATIONAL, ids=["mpf", "field-mpf", "float"])
def test_non_rational_scalars_rejected(v):
    p = x * y + 1
    for build in (lambda: BiPoly({(1, 0): v}), lambda: BiPoly.const(v),
                  lambda: p * v, lambda: v * p, lambda: p + v, lambda: p - v,
                  lambda: p / v, lambda: p.scale_args(v, 1),
                  lambda: p.eval(v, 1), lambda: p.eval(1, v),
                  lambda: RationalFn(x, v), lambda: RationalFn(x, y) * v, lambda: RationalFn(x, y) + v,
                  lambda: RationalFn(x, y).eval(v, 1),
                  lambda: Mat([[1, v]]), lambda: Mat([[1]]).scaled(v),
                  lambda: PolyVec([x, v]), lambda: PolyVec([x, y]).scaled(v)):
        with pytest.raises(TypeError):
            build()
    for compare in (lambda: p == v, lambda: p != v, lambda: v == p, lambda: v != p,
                    lambda: BiPoly.const(1) == v):
        with pytest.raises(TypeError):
            compare()
    # exact inputs are accepted and stay exact; other objects compare unequal
    assert p.eval(2, Fraction(1, 2)) == 2 and isinstance(p.eval(2, 3), Fraction)
    assert BiPoly.const(1) == 1 and BiPoly.const(1) != 2 and BiPoly.const(1) == Fraction(1)
    assert p != None and p != "1" and p != object() and not p == "1"  # noqa: E711
    assert Mat([[1, "1/2"]]).rows == [[1, Fraction(1, 2)]]


def test_leading_term_grlex():
    p = x * y + y * y * y + x
    assert p.leading_term() == ((0, 3), Fraction(1))
    assert (x * y + x * x).leading_term()[0] == (2, 0)


# rational functions ---------------------------------------------------------

def test_ratfn_common_factor():
    z = x + 1
    f = RationalFn(x, y)
    g = RationalFn(x * z, y * z)
    assert f.ratfn_equal(g)


def test_ratfn_unequal():
    assert not RationalFn(x, y).ratfn_equal(RationalFn(y, x))


def test_ratfn_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(x, BiPoly.zero())


def test_ratfn_eval_and_arith():
    f = RationalFn(x + y, x - y)
    assert f.eval(Fraction(3), Fraction(1)) == 2
    g = f * (x - y)
    assert g.ratfn_equal(RationalFn.from_poly(x + y))
    h = f - f
    assert h.num.is_zero()


def test_ratfn_difference_quotients(qp):
    from qbipoly.qcalc import dq_ratfn

    f = RationalFn.from_poly(x * x)
    d = dq_ratfn(f, qp, 1)
    assert d.ratfn_equal(RationalFn.from_poly(x * Fraction(3, 2)))
    g = RationalFn(BiPoly.const(1), y)
    dg = dq_ratfn(g, qp, 2)
    # Dq (1/y) = (1/(qy) - 1/y)/((q-1)y) = -1/(q y^2)
    assert dg.ratfn_equal(RationalFn(BiPoly.const(-2), y * y))
