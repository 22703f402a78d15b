import math
import random
from fractions import Fraction

import pytest
import mpmath
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qbipoly.bipoly import BiPoly, pearson_step
from qbipoly.linalg import Mat
from qbipoly.qcalc import QParam, dq1, dq2, dqm1, dqm2
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


def grid_values(p: BiPoly, xs, ys) -> list:
    """``eval_grid_pairs`` as Fractions, each of its denominators positive."""
    pairs = p.eval_grid_pairs(xs, ys)
    assert all(d > 0 for row in pairs for _, d in row)
    return [[Fraction(n, d) for n, d in row] for row in pairs]


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
        assert grid_values(p, xs, ys) == [[p.eval(a, b) for b in ys] for a in xs]
    assert grid_values(BiPoly.zero(), [1, 2], [3]) == [[0], [0]]
    assert grid_values(x * y + 1, [0, 2], [Fraction(1, 2)]) == [[1], [2]]


def test_zero_polynomial_has_empty_support():
    assert (x - x).coeffs == {}
    assert BiPoly.zero().total_degree() == -1


def test_no_stored_zero_coefficients():
    p = BiPoly({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.coeffs


@pytest.mark.parametrize("exponent", [1.5, 1.0, Fraction(3, 2), "1"], ids=repr)
def test_exponent_that_is_not_an_int_is_refused(exponent):
    # an exponent is taken through operator.index: never truncated to an
    # int, and a str names the exponent, not a failed comparison
    for key in ((exponent, 0), (0, exponent)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            BiPoly({key: 1})


@seed(75)
@settings(max_examples=40, deadline=None, database=None)
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
    # the dividend has no x^1 row; the division makes one and must walk it
    assert (x * x - 1).div_exact(x + 1) == x - 1
    with pytest.raises(ValueError):
        (x * x + 1).div_exact(x + 1)
    rng = random.Random(11)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).div_exact(b) == a
        if b.total_degree() == 0:
            assert (a * b + 1).div_exact(b) == a + 1 / b.coeff(0, 0)
        else:
            with pytest.raises(ValueError, match="nonzero remainder"):
                (a * b + 1).div_exact(b)
    a = x * x * Fraction(3, 4) - x * y + Fraction(5, 7)
    for b in (x * 6 + y * 4 - 10,             # not primitive: content 2
              -(x * 3) + y * y,               # negative leading coefficient
              x * Fraction(2, 9) - Fraction(1, 3),  # a denominator
              BiPoly.const(Fraction(-5, 3))):  # constant
        assert (a * b).div_exact(b) == a
    assert BiPoly.zero().div_exact(x - y) == BiPoly.zero()
    with pytest.raises(ZeroDivisionError):
        a.div_exact(BiPoly.zero())


@pytest.mark.parametrize("dividend, divisor, witness", [
    (x * y + 1, x + y, (2, -2)),              # -y^2 + 1 is left in a row below x^1
    (x * x * 5, x * y + 1, (1, -1)),          # x^2 sits in a column below y^1
    (x * y * y * 2, x * y * 2 + x * 3,        # -3xy, made in the current row, is odd
     (1, Fraction(-3, 2))),
    (x * x, x + 1, (-1, 0)),                  # 1 is left in rows that x^2 lacks
], ids=["row-below-lead", "column-below-lead", "remainder-made-in-the-row",
        "remainder-in-rows-the-dividend-lacks"])
def test_div_exact_refuses_each_remainder(dividend, divisor, witness):
    # the divisor vanishes at the witness and the dividend does not, so
    # the divisor divides neither the dividend nor the dividend shifted by
    # one of its multiples
    assert divisor.eval(*witness) == 0 and dividend.eval(*witness) != 0
    with pytest.raises(ValueError, match="nonzero remainder"):
        dividend.div_exact(divisor)
    with pytest.raises(ValueError, match="nonzero remainder"):
        (dividend + divisor * (x - y * 3)).div_exact(divisor)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(9, 10), Fraction(-3, 2)], ids=str)
def test_pearson_step_equals_the_ring_operations(q):
    # phi and omega differ by x R, so x divides the bracket; either one may
    # have the higher x-degree, and K = 0 and a constant K are among the draws
    rng = random.Random(f"pearson-step-{q}")
    for _ in range(30):
        phi, K = rand_poly(rng), rand_poly(rng) * rng.randint(0, 1)
        omega = phi + x * rand_poly(rng)
        if rng.randint(0, 1):
            phi, omega = omega, phi
        if omega.is_zero():
            continue
        c = q ** rng.randint(-3, 1)
        bracket = phi * K.scale_args(q, 1) - omega.scale_args(c, 1) * K
        assert pearson_step(phi, omega, c, K, q) == bracket.div_exact(x * (q - 1))


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), Fraction(4)], ids=str)
def test_pearson_step_where_phi_outranks_omega_in_x(c):
    # phi's x^2 term has no omega term beside it (a Pearson pair that an
    # admissible equation yields)
    q = Fraction(1, 2)
    phi, omega = y - x * Fraction(1, 4) - x * x * Fraction(1, 4) + x * y, y - x * Fraction(1, 2)
    for K in [BiPoly.const(3), x * x * y - y + 2, BiPoly.zero()]:
        bracket = phi * K.scale_args(q, 1) - omega.scale_args(c, 1) * K
        assert pearson_step(phi, omega, c, K, q) == bracket.div_exact(x * (q - 1))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(9, 10)], ids=str)
def test_pearson_step_refuses_a_bracket_that_x_does_not_divide(q):
    # at x = 0 the bracket is (phi - omega)(0,y) K(0,y): with phi(0,y) !=
    # omega(0,y), x divides it exactly where K(0,y) vanishes, and the step
    # never returns a term of x-degree -1
    rng = random.Random(f"pearson-step-guard-{q}")
    for _ in range(30):
        phi, omega, K = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if rng.randint(0, 1):
            K = K * x
        if omega.is_zero():
            continue
        c = q ** rng.randint(-3, 1)
        bracket = phi * K.scale_args(q, 1) - omega.scale_args(c, 1) * K
        if (phi - omega).scale_args(0, 1).is_zero() or K.scale_args(0, 1).is_zero():
            assert pearson_step(phi, omega, c, K, q) == bracket.div_exact(x * (q - 1))
        else:
            with pytest.raises(ValueError, match="x does not divide"):
                pearson_step(phi, omega, c, K, q)


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
                  lambda: Mat([[1, v]]), lambda: Mat([[1]]).scaled(v)):
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
    assert Mat([[1, "1/2"]]).rows == ((1, Fraction(1, 2)),)


# rational functions ---------------------------------------------------------

class RationalFn:
    """Quotient num/den of BiPolys, compared by cross multiplication; no gcd
    normalization is ever attempted.  The reference form of the q-Pearson
    ratios G1 and G2 in tests/test_pearson.py, which src keeps as their four
    polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly):
        if not (isinstance(num, BiPoly) and isinstance(den, BiPoly)):
            raise TypeError("RationalFn takes a BiPoly numerator and denominator")
        if den.is_zero():
            raise ZeroDivisionError("RationalFn with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: BiPoly):
        return cls(p, BiPoly.const(1))

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return RationalFn(self.num * other.num, self.den * other.den)
        return RationalFn(self.num * other, self.den)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.from_poly(BiPoly._coerce(other))
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def scale_args(self, alpha=1, beta=1) -> "RationalFn":
        return RationalFn(self.num.scale_args(alpha, beta), self.den.scale_args(alpha, beta))

    def eval(self, xv, yv):
        dv = self.den.eval(xv, yv)
        if not dv:
            raise ZeroDivisionError(f"RationalFn denominator vanishes at ({xv},{yv})")
        return self.num.eval(xv, yv) / dv

    def ratfn_equal(self, other: "RationalFn") -> bool:
        """True iff self == other as rational functions."""
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


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


def dq_ratfn(r: RationalFn, qp, axis: int) -> RationalFn:
    """Exact forward difference quotient of a RationalFn along x (axis 1)
    or y (axis 2); the reference form of the q-Pearson key identity in
    tests/test_pearson.py."""
    q = qp.q
    diff = (r.scale_args(q, 1) if axis == 1 else r.scale_args(1, q)) - r
    step = BiPoly({(2 - axis, axis - 1): q - 1})
    return RationalFn(diff.num, diff.den * step)


def test_ratfn_difference_quotients(qp):
    f = RationalFn.from_poly(x * x)
    d = dq_ratfn(f, qp, 1)
    assert d.ratfn_equal(RationalFn.from_poly(x * Fraction(3, 2)))
    g = RationalFn(BiPoly.const(1), y)
    dg = dq_ratfn(g, qp, 2)
    # Dq (1/y) = (1/(qy) - 1/y)/((q-1)y) = -1/(q y^2)
    assert dg.ratfn_equal(RationalFn(BiPoly.const(-2), y * y))


# the integer representation against a Fraction-dict reference -----------------

class FractionPoly:
    """Reference: a map (i, j) -> nonzero Fraction, every operation
    coefficient by coefficient in Fraction arithmetic."""

    def __init__(self, coeffs):
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if c}

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return FractionPoly(out)

    def __neg__(self):
        return FractionPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FractionPoly):
            out = {}
            for (i1, j1), c1 in self.coeffs.items():
                for (i2, j2), c2 in other.coeffs.items():
                    m = (i1 + i2, j1 + j2)
                    out[m] = out[m] + c1 * c2 if m in out else c1 * c2
            return FractionPoly(out)
        return FractionPoly({m: v * other for m, v in self.coeffs.items()})

    def __truediv__(self, c):
        return FractionPoly({m: v / c for m, v in self.coeffs.items()})

    def scale_args(self, alpha, beta):
        return FractionPoly({(i, j): c * alpha**i * beta**j for (i, j), c in self.coeffs.items()})

    def swap(self):
        return FractionPoly({(j, i): c for (i, j), c in self.coeffs.items()})

    def diff_x(self):
        return FractionPoly({(i - 1, j): c * i for (i, j), c in self.coeffs.items() if i})

    def diff_y(self):
        return FractionPoly({(i, j - 1): c * j for (i, j), c in self.coeffs.items() if j})

    def eval(self, xv, yv):
        return sum((c * xv**i * yv**j for (i, j), c in self.coeffs.items()), Fraction(0))

    def difference(self, p, axis):
        """x_axis^e -> [e]_p x_axis^(e-1), [e]_p = (p^e - 1) / (p - 1)."""
        out = {}
        for (i, j), c in self.coeffs.items():
            e = (i, j)[axis - 1]
            if e:
                out[(i - 1, j) if axis == 1 else (i, j - 1)] = c * (p**e - 1) / (p - 1)
        return FractionPoly(out)


def ref(p: BiPoly) -> FractionPoly:
    return FractionPoly(dict(p.coeffs))


def assert_canonical(p: BiPoly):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


#: denominators with shared and distinct prime factors, and one large one
DENS = [1, 2, 3, 4, 6, 9, 10, 12, 25, 49, 360, 2**61 - 1]


def rand_frac(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-10**6, 10**6) or 1, rng.choice(DENS))


def rand_wide_poly(rng):
    if rng.random() < 0.05:
        return BiPoly.zero()
    d = rng.randint(0, 5)
    coeffs = {}
    for _ in range(rng.randint(1, 10)):
        i = rng.randint(0, d)
        coeffs[(i, rng.randint(0, d - i))] = rand_frac(rng)
    return BiPoly(coeffs)


def test_ring_operations_match_fraction_reference():
    rng = random.Random(13)
    for _ in range(300):
        p, r = rand_wide_poly(rng), rand_wide_poly(rng)
        c = rand_frac(rng) or Fraction(3, 7)
        alpha, beta = rand_frac(rng, zero_share=0.2), rand_frac(rng, zero_share=0.2)
        P, R = ref(p), ref(r)
        results = [
            (p + r, P + R), (p - r, P - R), (-p, -P), (p * r, P * R), (p * p, P * P),
            (p * c, P * c), (c * p, P * c), (p / c, P / c), (p + c, P + FractionPoly({(0, 0): c})),
            (p.scale_args(alpha, beta), P.scale_args(alpha, beta)),
            (p.scale_args(alpha, 1), P.scale_args(alpha, 1)),
            (p.scale_args(1, beta), P.scale_args(1, beta)), (p.scale_args(-2, 1), P.scale_args(-2, 1)),
            (p.scale_args(1, Fraction(1)), P),
            (p.swap(), P.swap()), (p.diff_x(), P.diff_x()), (p.diff_y(), P.diff_y()),
        ]
        for got, want in results:
            assert_canonical(got)
            assert ref(got) == want
        xs = [rand_frac(rng, zero_share=0.2) for _ in range(3)]
        ys = [rand_frac(rng, zero_share=0.2) for _ in range(2)]
        grid = [[P.eval(a, b) for b in ys] for a in xs]
        assert grid_values(p, xs, ys) == grid
        assert [[p.eval(a, b) for b in ys] for a in xs] == grid
        assert all(type(v) is Fraction for row in grid for v in row)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 5), Fraction(3, 7),
                               Fraction(2, 3), Fraction(3, 4)], ids=str)
def test_difference_operators_match_fraction_reference(q):
    # |u - v| > 1 for q = u/v (2/5, 3/7) exposes a slip in the
    # denominator of [e]_p = (u^e - v^e) / ((u - v) v^(e-1))
    rng = random.Random(17)
    qp = QParam(q)
    for _ in range(60):
        p = rand_wide_poly(rng)
        P = ref(p)
        for op, base, axis in ((dq1, q, 1), (dq2, q, 2), (dqm1, 1 / q, 1), (dqm2, 1 / q, 2)):
            got = op(p, qp)
            assert_canonical(got)
            assert ref(got) == P.difference(base, axis)


def test_equal_polynomials_built_by_different_routes_are_equal_and_hash_equal():
    half, third = Fraction(1, 2), Fraction(1, 3)
    routes = [
        [(x + 1) ** 2, x * x + x * 2 + 1, BiPoly({(2, 0): 1, (1, 0): 2, (0, 0): 1}),
         ((x * 2 + 2) ** 2) / 4, (x * half + half) * (x * 2 + 2) + (x + 1) * 0 + 0],
        [x * half, x / 2, BiPoly({(1, 0): Fraction(3, 6)}), (x * third) * Fraction(3, 2),
         (x * y + x * half - x * y), x.scale_args(half, 7)],
        [BiPoly.zero(), x - x, (x * third - x / 3) * y, BiPoly({(1, 1): 0}), x.diff_y()],
    ]
    for polys in routes:
        for p in polys:
            assert_canonical(p)
            assert p == polys[0] and hash(p) == hash(polys[0])
    assert BiPoly.zero().nums == {} and BiPoly.zero().den == 1


def test_coeffs_is_a_read_only_fraction_view():
    p = x * Fraction(2, 3) + y * Fraction(5, 6) + 1
    view = p.coeffs
    assert view == {(1, 0): Fraction(2, 3), (0, 1): Fraction(5, 6), (0, 0): Fraction(1)}
    assert all(type(c) is Fraction for c in view.values())
    assert len(view) == 3 and (1, 0) in view and (1, 1) not in view
    assert p.nums == {(1, 0): 4, (0, 1): 5, (0, 0): 6} and p.den == 6
    with pytest.raises(TypeError):
        view[(0, 0)] = Fraction(2)
    with pytest.raises(TypeError):
        del view[(0, 0)]
    for name in ("pop", "update", "setdefault", "clear"):
        assert not hasattr(view, name)
    with pytest.raises(AttributeError):
        p.coeffs = {}
    assert p == x * Fraction(2, 3) + y * Fraction(5, 6) + 1
