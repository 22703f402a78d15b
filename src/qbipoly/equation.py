"""The canonical hypergeometric-type partial q-difference equation.

Coefficient convention: the two pure second-order coefficients are stored
with the sqrt(q) factor absorbed,

    C11(x) = q (a1 x^2 + b1 x + c1),     C22(y) = q (a2 y^2 + b2 y + c2),

so every stored quantity is rational in q and the full operator reads

    D f = C11 Dq1 Dq^-1_1 f + C22 Dq2 Dq^-1_2 f
        + A12a Dq1 Dq2 f + A12d Dq^-1_1 Dq^-1_2 f + B1 Dq1 f + B2 Dq2 f.

Same-axis compositions apply the backward operator first.

``add_image`` is the one pass of ``apply_operator`` and the operator blocks:
each part steps a monomial once or twice; all six add over one denominator.
"""

import math
from fractions import Fraction
from functools import cached_property

from .bipoly import BiPoly, from_form, lift_pairs, reduced
from .qcalc import QParam, dq1, power_exponent, qnum, step_weights
from .scalars import FrozenRecord, Record

_BILINEAR = {(0, 0), (1, 0), (0, 1), (1, 1)}

#: (coefficient, steps in the order applied); a step (axis, backward) lowers
#: the exponent of x (0) or y (1) by one with base q (0) or 1/q (1)
_PARTS = (("c11", ((0, 1), (0, 0))), ("c22", ((1, 1), (1, 0))), ("a12a", ((1, 0), (0, 0))),
          ("a12d", ((1, 1), (0, 1))), ("b1", ((0, 0),)), ("b2", ((1, 0),)))


class ShapeViolation(ValueError):
    pass


class NotAdmissibleError(ValueError):
    pass


class EquationCoeffs(FrozenRecord):
    qp: QParam
    c11: BiPoly
    c22: BiPoly
    a12a: BiPoly
    a12d: BiPoly
    b1: BiPoly
    b2: BiPoly

    @cached_property
    def form(self) -> dict:
        """{shape check of the hypergeometric form, in the order `check`
        reports them: its extractor's scalars, or the message of the
        ShapeViolation it raised}, computed once."""
        out = {}
        for name, extract in (("c11_quadratic_in_x", self.sigma1), ("c22_quadratic_in_y", self.sigma2),
                              ("a12a_bilinear", self.cross_a), ("a12d_bilinear", self.cross_d),
                              ("b1_affine_in_x", self.tau1), ("b2_affine_in_y", self.tau2)):
            try:
                out[name] = extract()
            except ShapeViolation as exc:
                out[name] = str(exc)
        return out

    @cached_property
    def admissibility(self) -> "Admissibility":
        """admissibility(self), computed once."""
        return admissibility(self)

    @cached_property
    def pearson(self) -> "PearsonData":
        """pearson.build_pearson(self), computed once."""
        from .pearson import build_pearson
        return build_pearson(self)

    @cached_property
    def order_zero_rows(self) -> dict:
        """pearson.order_zero_rows(self), computed once."""
        from .pearson import order_zero_rows
        return order_zero_rows(self)

    # -- named scalar extractors (sigma/tau coefficients) -------------------

    @staticmethod
    def _univariate(p: BiPoly, axis: int, max_deg: int, name: str, over=1) -> tuple:
        """Coefficients of p / over in the axis variable (1 = x, 2 = y),
        highest degree first, one Fraction each; p must not depend on the
        other variable."""
        for m in p.nums:
            if m[2 - axis]:
                raise ShapeViolation(f"{name} must not depend on {'yx'[axis - 1]}")
            if m[axis - 1] > max_deg:
                raise ShapeViolation(f"{name} has degree above {max_deg}")
        return tuple(Fraction(p.nums.get((d, 0) if axis == 1 else (0, d), 0) * over.denominator,
                              p.den * over.numerator) for d in range(max_deg, -1, -1))

    @staticmethod
    def _bilinear(p: BiPoly, name: str) -> tuple:
        for m in p.nums:
            if m not in _BILINEAR:
                raise ShapeViolation(f"{name} carries a non-bilinear monomial {m}")
        return p.coeff(1, 1), p.coeff(1, 0), p.coeff(0, 1), p.coeff(0, 0)

    def sigma1(self):
        """(a1, b1, c1) with C11 = q (a1 x^2 + b1 x + c1)."""
        return self._univariate(self.c11, 1, 2, "C11", self.qp.q)

    def sigma2(self):
        return self._univariate(self.c22, 2, 2, "C22", self.qp.q)

    def cross_a(self):
        """(a3a, b3a, c3a, d3a) from A12a = a3a xy + b3a x + c3a y + d3a."""
        return self._bilinear(self.a12a, "A12a")

    def cross_d(self):
        return self._bilinear(self.a12d, "A12d")

    def tau1(self):
        """(f1, g1) with B1 = f1 x + g1."""
        return self._univariate(self.b1, 1, 1, "B1")

    def tau2(self):
        return self._univariate(self.b2, 2, 1, "B2")


class DerivedCoeffs(EquationCoeffs):
    """Coefficients of the equation satisfied by the order-(k, l) generalized
    difference of a solution, with its shifted spectral value mu."""

    mu: Fraction


def form_scalars(E: EquationCoeffs) -> tuple:
    """The six scalar tuples of ``EquationCoeffs.form`` in its order, or
    ShapeViolation naming the first violation that `check` lists: the one
    decision of the hypergeometric form."""
    if violations := [v for v in E.form.values() if isinstance(v, str)]:
        raise ShapeViolation(violations[0])
    return tuple(E.form.values())


def check_hypergeometric_form(E: EquationCoeffs) -> dict:
    """Degree/shape report of ``EquationCoeffs.form``; every entry True
    means the equation is of the propagating (hypergeometric) class."""
    report = {name: not isinstance(v, str) for name, v in E.form.items()}
    if violations := [v for v in E.form.values() if isinstance(v, str)]:
        report["violations"] = violations
    report["ok"] = not violations
    return report


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def operator_parts(E, top: int) -> tuple:
    """(parts, D) for monomials of total degree <= top (>= 1): per part of
    ``_PARTS``, its steps with their ``qcalc.step_weights`` tables (over
    v^(top-1) forward, u^(top-1) backward, q = u/v), its coefficient's
    numerators and D over its denominator, D the lcm of the six."""
    tables = [(step_weights(p, top), p.denominator ** (top - 1)) for p in (E.qp.q, 1 / E.qp.q)]
    coeffs = [getattr(E, name) for name, _ in _PARTS]
    lifts, D = lift_pairs([(1, c.den * math.prod(tables[b][1] for _, b in steps))
                           for c, (_, steps) in zip(coeffs, _PARTS)])
    return [(tuple((axis, tables[b][0]) for axis, b in steps), c.nums, lift)
            for c, (_, steps), lift in zip(coeffs, _PARTS, lifts)], D


def add_image(out: dict, m: tuple, n: int, parts) -> None:
    """Add n times the image of the monomial m, over the D of
    ``operator_parts``, into out (keyed by exponent pair)."""
    for steps, coeff, lift in parts:
        e = list(m)
        v = n * lift
        for axis, w in steps:
            v *= w[e[axis]]  # weight 0 at e = 0 ends the term
            e[axis] -= 1
        if v:
            for (c0, c1), k in coeff.items():
                key = (e[0] + c0, e[1] + c1)
                out[key] = out.get(key, 0) + v * k


def apply_operator(E, f: BiPoly) -> BiPoly:
    """Apply the second-order partial q-difference operator of E (an
    EquationCoeffs or DerivedCoeffs) to a polynomial; exact: the images of
    its monomials (``add_image``) add over one denominator."""
    top = f.total_degree()
    if top < 1:
        return BiPoly.zero()
    parts, D = operator_parts(E, top)
    out = {}
    for m, n in f.nums.items():
        add_image(out, m, n, parts)
    return from_form(*reduced(out, D * f.den))


# ---------------------------------------------------------------------------
# admissibility and eigenvalues
# ---------------------------------------------------------------------------

class Admissibility(Record):
    failures: list
    f1: Fraction
    a1: Fraction
    qp: QParam

    @property
    def admissible(self) -> bool:
        return not self.failures

    def eigenvalue(self, n: int) -> Fraction:
        """lambda_n = -[n]_q (f1 - a1 q [1-n]_q)."""
        return -qnum(n, self.qp) * (self.f1 - self.a1 * self.qp.q * qnum(1 - n, self.qp))


def admissibility(E: EquationCoeffs) -> Admissibility:
    """Check the admissibility conditions on the scalars of the form
    (``form_scalars``, whose ShapeViolation it raises) and build the
    eigenvalue sequence.

    The universally quantified spectral condition f1 - a1 q [1-m] != 0 is
    decided exactly for every m >= 0: with a1 = 0 it fails only when
    f1 = 0 (at every m, reported at m = 0); otherwise it fails only when
    1 + (q-1) f1/(a1 q) is an exact power q^{1-m}, which
    ``qcalc.power_exponent`` decides once, whatever the size of m.

    The same condition makes the eigenvalues pairwise distinct, so they
    need no scan of their own: exactly,

        lambda_n - lambda_m = ([m] - [n]) (f1 - a1 q [1-n-m]),

    and [m] != [n] for m != n, so lambda_n = lambda_m only where the
    spectral condition fails at index n + m.
    """
    (a1, _, _), (a2, _, _), (a3a, *_), (a3d, *_), (f1, _), (f2, _) = form_scalars(E)
    q = E.qp.q
    failures = [f"{name} ({got} vs {want})" for name, got, want in (
        ("f2 != f1", f2, f1), ("a2 != a1", a2, a1),
        ("a3a != a1*q + f1*(q-1)", a3a, a1 * q + f1 * (q - 1)), ("a3d != a1", a3d, a1))
        if got != want]
    # the condition fails at m = 1 - k; with a1 = 0 and f1 = 0 at every m, named at m = 0
    k = (None if f1 else 1) if a1 == 0 else power_exponent(1 + (q - 1) * f1 / (a1 * q), q)
    if k is not None and k <= 1:
        failures.append(f"spectral condition fails at m={1 - k}")
    return Admissibility(failures, f1, a1, E.qp)


# ---------------------------------------------------------------------------
# coefficient propagation to generalized differences
# ---------------------------------------------------------------------------

def _xstep(qp: QParam, state):
    """One Dq1 step of the propagation: the coefficients and spectral value
    of order (k, l) -> (k + 1, l)."""
    c11, c22, a12a, a12d, b1, b2, mu = state
    q = qp.q
    d_a12d = dq1(a12d, qp)
    return (c11 / q,
            c22 + BiPoly.y() * d_a12d * (1 - q),
            a12a.scale_args(q, 1),
            a12d / q,
            b1.scale_args(q, 1) + dq1(c11, qp) / q,
            b2 + dq1(a12a, qp) + d_a12d,
            mu + dq1(b1, qp).coeff(0, 0))


def _swap(state):
    """The propagation state with x and y exchanged; a Dq2 step is the Dq1
    step conjugated by this swap."""
    c11, c22, a12a, a12d, b1, b2, mu = state
    return (c22.swap(), c11.swap(), a12a.swap(), a12d.swap(), b2.swap(), b1.swap(), mu)


def derived_coeffs(E: EquationCoeffs, k: int, l: int, lam: Fraction | None = None) -> DerivedCoeffs:
    """Coefficients of the equation for the order-(k, l) generalized
    difference, by one chain of k + l steps: k Dq1 steps (`_xstep`), then l
    Dq2 steps (`_xstep` conjugated by `_swap`), with mu shifted by lam
    (exact, since each step adds to mu and reads nothing of it).  Nothing
    in src calls it: the Pearson report reads every order in closed form,
    and the tests' closed forms are an independent route to these."""
    if k < 0 or l < 0:
        raise ValueError("orders must be nonnegative")
    state = (E.c11, E.c22, E.a12a, E.a12d, E.b1, E.b2, Fraction(0))
    for _ in range(k):
        state = _xstep(E.qp, state)
    state = _swap(state)
    for _ in range(l):
        state = _xstep(E.qp, state)
    c11, c22, a12a, a12d, b1, b2, mu = _swap(state)
    return DerivedCoeffs(E.qp, c11, c22, a12a, a12d, b1, b2, mu + (lam or 0))
