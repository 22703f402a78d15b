"""Structured equations that reach deep code, shared by the test modules:
the hypothesis strategies (admissible equations, the constant-weight
family), the scaled presets and the lines through the preset, the equation
files of the Pearson refusals, and the helpers that copy a record and write
an equation file."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from qbipoly.bigqjacobi import TEST_PARAMS, BigQJacobiParams, preset_equation
from qbipoly.bipoly import BiPoly
from qbipoly.equation import EquationCoeffs
from qbipoly.io import _POLY_KEYS, frac_str
from qbipoly.qcalc import QParam

F = Fraction
x = BiPoly.x()
y = BiPoly.y()

Q23_PARAMS = BigQJacobiParams(F(1, 2), F(2, 3), F(3, 7), F(-1, 3), QParam(F(2, 3)))
NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool)


def replace(record, **changes):
    """A copy of a qbipoly record with the named fields changed, built by
    its constructor from the fields its ``__match_args__`` lists."""
    return type(record)(**{**{name: getattr(record, name) for name in record.__match_args__},
                           **changes})


def poly_terms_str(p: BiPoly) -> str:
    """p in the 'i,j:coeff' term syntax that parse_poly_terms reads."""
    return " ".join(f"{i},{j}:{frac_str(c)}" for (i, j), c in sorted(p.coeffs.items()))


def equation_to_text(E: EquationCoeffs) -> str:
    """E in the key = value equation file format."""
    lines = [f"q = {frac_str(E.qp.q)}"]
    for key in _POLY_KEYS:
        lines.append(f"{key} = {poly_terms_str(getattr(E, key))}")
    return "\n".join(lines) + "\n"


@st.composite
def admissible_equations(draw):
    """Equations with every coefficient drawn at random and the four
    admissibility conditions imposed: a2 = a1, f2 = f1, a3d = a1 and
    a3a = a1 q + f1 (q - 1)."""
    q = draw(st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda t: 0 < t < 1))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    a1, f1, *r = (draw(coeff) for _ in range(14))
    E = EquationCoeffs(
        QParam(q),
        BiPoly({(2, 0): q * a1, (1, 0): q * r[0], (0, 0): q * r[1]}),
        BiPoly({(0, 2): q * a1, (0, 1): q * r[2], (0, 0): q * r[3]}),
        BiPoly({(1, 1): a1 * q + f1 * (q - 1), (1, 0): r[4], (0, 1): r[5], (0, 0): r[6]}),
        BiPoly({(1, 1): a1, (1, 0): r[7], (0, 1): r[8], (0, 0): r[9]}),
        BiPoly({(1, 0): f1, (0, 0): r[10]}),
        BiPoly({(0, 1): f1, (0, 0): r[11]}))
    assume(E.admissibility.admissible)
    return E


def scaled_preset(params, kappa, alpha, beta) -> EquationCoeffs:
    """kappa times the preset at params in the variables (alpha x, beta y):
    u solves it with eigenvalue kappa lambda iff u(x/alpha, y/beta) solves
    the preset with lambda, since Dq1 of u(alpha x, y) is alpha (Dq1 u)(alpha x, y)."""
    E = preset_equation(params)
    return EquationCoeffs(E.qp, E.c11.scale_args(alpha, 1) * (kappa / alpha**2),
                          E.c22.scale_args(1, beta) * (kappa / beta**2),
                          E.a12a.scale_args(alpha, beta) * (kappa / (alpha * beta)),
                          E.a12d.scale_args(alpha, beta) * (kappa / (alpha * beta)),
                          E.b1.scale_args(alpha, 1) * (kappa / alpha),
                          E.b2.scale_args(1, beta) * (kappa / beta))


#: admissible, with a constant weight: phi1 = omega1(qx,y), phi2 =
#: omega2(x,qy) (G1 = G2 = 1) and a12a = q^2 a12d(qx,qy).  Every order-(0,0)
#: row holds, and ratio_left and ratio_right fail at every other order up
#: to (2, 2); the route's (1, 0) polynomial is the constant -1/2
CONSTANT_WEIGHT_TEXT = """\
q = 1/2
c11 = 2,0:4
c22 = 0,2:4
a12a = 0,0:1/4 1,1:1/2
a12d = 0,0:1 1,1:8
b1 = 1,0:7
b2 = 0,1:7
"""


@st.composite
def constant_weight_equations(draw, x_divides_a12d=False):
    """Admissible equations of the family CONSTANT_WEIGHT_TEXT lies on:
    G1 = G2 = 1 fixes b1 and b2, a12a = q^2 a12d(qx,qy), and admissibility
    ties the quadratic terms of c11, c22 and a12d to a1, so eight
    coefficients are free; here each is nonzero, except that
    x_divides_a12d zeroes a12d(0, y), so that x divides omega2."""
    q = draw(st.sampled_from([F(1, 2), F(2, 3), F(9, 10)]))
    a1, c0, c1, g0, g1, d00, d10, d01 = (draw(NONZERO) for _ in range(8))
    if x_divides_a12d:
        d00 = d01 = 0
    a12d = BiPoly({(0, 0): d00, (1, 0): d10, (0, 1): d01, (1, 1): a1})
    f1 = a1 * q * (1 + q + q * q)
    E = EquationCoeffs(QParam(q), BiPoly({(0, 0): c0, (1, 0): c1, (2, 0): q * a1}),
                       BiPoly({(0, 0): g0, (0, 1): g1, (0, 2): q * a1}),
                       a12d.scale_args(q, q) * q**2, a12d,
                       BiPoly({(0, 0): c1 + q * q * d01, (1, 0): f1}),
                       BiPoly({(0, 0): g1 + q * q * d10, (0, 1): f1}))
    assume(E.admissibility.admissible)
    return E


#: constant weight with omega2 = x (a12d(0, y) = 0 and C22 - q y a12d/x
#: constant): phi2 = omega2 = x
OMEGA2_X_TEXT = """\
q = 1/2
c11 = 0,0:-29/9 1,0:1 2,0:-29/18
c22 = 0,0:1 0,1:1/2 0,2:-29/18
a12a = 1,0:1/8 1,1:-29/144
a12d = 1,0:1 1,1:-29/9
b1 = 0,0:1 1,0:-203/72
b2 = 0,0:3/4 0,1:-203/72
"""


#: the preset's coefficients at a = 0: admissible, but omega vanishes
#: identically, so there is no Pearson system
DEGENERATE_PEARSON_TEXT = """\
q = 1/2
c11 = 1,0:1/8 2,0:1/2
c22 = 0,1:1/8 0,2:1/2
a12a =
a12d = 0,1:1/4 1,1:1
b1 = 0,0:1/4 1,0:1
b2 = 0,0:1/4 0,1:1
"""

#: admissible, but G1 G2(qx,y) != G2 G1(x,qy), so rho on a lattice depends
#: on the path: the preset's coefficients with 1/5 for the constant of b1.
#: From the anchor (3/7, 5/11), rho one step along each axis is -3153/4030
#: walking y first and 4623/520 walking x first
INCOMPATIBLE_PEARSON_TEXT = """\
q = 1/2
c11 = 0,0:-1/480 1,0:7/60 2,0:1/2
c22 = 0,0:-1/48 0,1:1/24 0,2:1/2
a12a = 0,0:-1/480 0,1:1/480 1,0:-1/960 1,1:1/960
a12d = 0,0:-1/24 0,1:1/4 1,0:-1/6 1,1:1
b1 = 0,0:1/5 1,0:479/480
b2 = 0,0:7/160 0,1:479/480
"""

#: admissible and compatible, but phi1 vanishes identically: c1 = d3a = b3a
#: = 0 and c3a = q b1 + (q-1) g1 (here a1 = b1 = 1, f1 = 2, g1 = 3)
PHI1_ZERO_TEXT = """\
q = 1/2
c11 = 1,0:1/2 2,0:1/2
c22 = 0,0:1/10 0,1:1/6 0,2:1/2
a12a = 0,1:-1 1,1:-1/2
a12d = 0,0:-1/2 0,1:1/3 1,0:-1/4 1,1:1
b1 = 0,0:3 1,0:2
b2 = 0,0:1/7 0,1:2
"""

#: admissible, with a constant weight (G1 = G2 = 1, a12a = q^2 a12d(qx,qy)):
#: every order-(0,0) row holds, but a mixed pair's division leaves a remainder
CONSTANT_WEIGHT_FAMILY_TEXT = """\
q = 1/2
c11 = 0,0:2 1,0:7/4 2,0:-36/49
c22 = 0,0:1/5 0,1:41/10 0,2:-36/49
a12a = 0,0:9/4 0,1:1/8 1,0:-1/20 1,1:-9/98
a12d = 0,0:9 0,1:1 1,0:-2/5 1,1:-72/49
b1 = 0,0:2 1,0:-9/7
b2 = 0,0:4 0,1:-9/7
"""

#: admissible, with every order-(0,0) Pearson row holding: phi1 = y - x/4
#: - x^2/4 + xy has a higher x-degree than omega1 = y - x/2 (G1 = 1 + x,
#: G2 = 1), so the x steps of the Rodrigues recursion meet phi1's x^2 term
#: with no omega1 term beside it
PHI1_ABOVE_OMEGA1_TEXT = """\
q = 1/2
c11 = 0,0:1 1,0:1/2
c22 = 0,0:1
a12a = 0,0:1/4 0,1:1/8 1,0:1/4 1,1:1/8
a12d = 0,0:1 0,1:1
b1 = 0,0:-5/4 1,0:-1/4
b2 = 0,0:-1/2 0,1:-1/4
"""


def pearson_line(name: str, t) -> EquationCoeffs:
    """The preset at TEST_PARAMS moved by t along one of three lines that
    keep its form, its admissibility conditions and its key row: f1 moved
    by t ("f1"), a1 moved by t ("a1"), or b1 and b2 moved by t with b3a by
    t/2 and c3d by t ("b"); on the first two, the coefficients that
    admissibility ties to f1 or a1 move with them.  At t = 1/7 on each,
    key and coupling hold and ratio_left and ratio_right fail at all nine
    orders up to (2, 2): an admissible equation with a weight for which the
    operator is not symmetric."""
    E, q = preset_equation(TEST_PARAMS), TEST_PARAMS.qp.q
    if name == "f1":
        return replace(E, b1=E.b1 + x * t, b2=E.b2 + y * t,
                       a12a=E.a12a + x * y * (t * (q - 1)))
    if name == "a1":
        return replace(E, c11=E.c11 + x * x * (q * t), c22=E.c22 + y * y * (q * t),
                       a12a=E.a12a + x * y * (q * t), a12d=E.a12d + x * y * t)
    return replace(E, c11=E.c11 + x * (q * t), c22=E.c22 + y * (q * t),
                   a12a=E.a12a + x * (t / 2), a12d=E.a12d + y * t)
