"""q-Pearson data, Pearson-equivalent rational identities, and lattice
evaluation of the orthogonality weight.

With the sqrt(q)-absorbed coefficient convention the Pearson polynomials are

    omega1(x,y) = y C11(x) - q x A12d(x,y)      phi1 = y C11 - x A12a + (q-1) x y B1
    omega2(x,y) = x C22(y) - q y A12d(x,y)      phi2 = x C22 - y A12a + (q-1) x y B2

and G1 = phi1(x,y)/omega1(qx,y), G2 = phi2(x,y)/omega2(x,qy) are the one-step
weight ratios rho(qx,y)/rho(x,y) and rho(x,qy)/rho(x,y); PearsonData keeps
only the four polynomials, and its readers evaluate omega at the shift.

For any coefficients, order (k, l) of the derived equations has shifted
data: with g_n = sum_(s<n) q^-s,

    phi1_kl = q^-k phi1(q^k x, y),  a12a_kl = a12a(q^k x, q^l y),  a12d_kl = q^(-k-l) a12d,
    omega1_kl = q^-k W1_l,  W1_l = y C11 + g_l x (a12d - a12d(x,qy)) - q^(1-l) x a12d,

and phi2_kl, omega2_kl = q^-l W2_k likewise across the swap.  The scalar
factors split off the report's rows, so order (k, l) reads phi1(q^k x, y)
and W2_k, which vary with k alone, and their swapped pair, with l alone;
each row a b = c d is decided with the denominators crossed.

General-equation weights are defined per q-commensurate lattice component,
relative to one anchor with rho(anchor) = 1.  Such a weight exists only
where the key row of ``order_zero_rows`` holds (G1 and G2 commute as shifts);
elsewhere a product of ratios depends on the path it walks.  The Rodrigues
route reads the Pearson polynomials alone; the lattice weight serves the
weight table.

The paper's hypotheses are decided here, each by one function of
``HYPOTHESES``, and ``NEEDS`` says which of them each request needs:
``require`` raises the refusal of the first that fails.
"""

import functools
import itertools
import math

from .bipoly import BiPoly, lowest_pair, product
from .equation import EquationCoeffs, NotAdmissibleError, form_scalars
from .qcalc import QParam
from .scalars import FrozenRecord, Record


class DegenerateEquationError(ValueError):
    """No usable Pearson system, weight or symmetry: the refusal of the
    pearson, weight and self_adjoint hypotheses."""


class LatticePoleError(ArithmeticError):
    def __init__(self, which: str, index: int, point):
        where = ", ".join(str(v) for v in point)
        super().__init__(f"{which} pole at product index {index}, lattice point ({where})")
        self.which = which
        self.index = index
        self.point = point


_NO_SYSTEM = "omega vanishes identically; no Pearson system"


class PearsonData(FrozenRecord):
    phi1: BiPoly
    phi2: BiPoly
    omega1: BiPoly
    omega2: BiPoly


def build_pearson(E) -> PearsonData:
    """The Pearson polynomials of an EquationCoeffs or DerivedCoeffs; exact."""
    x, y, q = BiPoly.x(), BiPoly.y(), E.qp.q
    omega1 = y * E.c11 - x * E.a12d * q
    omega2 = x * E.c22 - y * E.a12d * q
    if omega1.is_zero() or omega2.is_zero():
        raise DegenerateEquationError(_NO_SYSTEM)
    phi1 = y * E.c11 - x * E.a12a + x * y * E.b1 * (q - 1)
    phi2 = x * E.c22 - y * E.a12a + x * y * E.b2 * (q - 1)
    return PearsonData(phi1, phi2, omega1, omega2)


def _along(E, n: int, axis: int) -> list:
    """For k <= n, the factors of order (k, l) that vary with k: Phi1_k =
    phi1(q^k x, y), Phi1_k(x,qy), W2_k(x,qy) and W2_k(qx,qy), with W2_0 =
    omega2 and W2_(k+1) = W2_k + q^-k y (q a12d - a12d(qx,y)); axis 1 gives
    those in l across the swap.  A vanishing W is a degenerate system."""
    P, q = E.pearson, E.qp.q
    phi, omega, a12d = (P.phi2.swap(), P.omega1.swap(), E.a12d.swap()) if axis else (P.phi1, P.omega2, E.a12d)
    wy, out = omega.scale_args(1, q), []
    if n:
        step = (BiPoly.y() * (a12d * q - a12d.scale_args(q, 1))).scale_args(1, q)
    for k in range(n + 1):
        if k:
            wy = wy + step * q ** (1 - k)
        if wy.is_zero():
            raise DegenerateEquationError(_NO_SYSTEM)
        row = (phi.scale_args(q**k, 1), phi.scale_args(q**k, q), wy, wy.scale_args(q, 1))
        out.append(tuple(p.swap() for p in row) if axis else row)
    return out


def _form(*factors) -> tuple:
    """(unreduced numerators, den) of a product of BiPolys and such pairs."""
    pairs = [(f.nums, f.den) if isinstance(f, BiPoly) else f for f in factors]
    return functools.reduce(product, [n for n, _ in pairs]), math.prod(d for _, d in pairs)


def _same(left: tuple, right: tuple, scale=1) -> bool:
    """scale prod(left) == prod(right) for tuples of ``_form`` factors, on
    their unreduced products with the denominators crossed."""
    (ln, ld), (rn, rd) = _form(*left), _form(*right)
    ls, rs = rd * scale.numerator, ld * scale.denominator
    return {m: n * ls for m, n in ln.items() if n} == {m: n * rs for m, n in rn.items() if n}


def _order_rows(xk: tuple, yl: tuple, a12a: BiPoly, pa: tuple, scale) -> dict:
    """{row: held} of one order's key, ratio_left and ratio_right, from its
    ``_along`` rows, a12a, the k-only ``_form``s pa of Phi1 A and Phi1(x,qy)
    A, A = a12d(qx,qy), and scale = q^(2-k-l), a = scale A.  With the
    scalars split off, G1 G2(qx,y) = N_L/D_L and G1(x,qy) G2 = N_R/D_R:

        N_L = Phi1 Phi2(qx,y),  D_L = W1(qx,y) W2(qx,qy),
        N_R = Phi1(x,qy) Phi2,  D_R = W1(qx,qy) W2(x,qy).

    key is N_L D_R = N_R D_L, ratio_left N_L a = a12a D_L, ratio_right the
    same with N_R and D_R.  With a12d nonzero the ratio rows imply key, as
    (N_L D_R - N_R D_L) a = D_R (N_L a - a12a D_L) - D_L (N_R a - a12a D_R),
    so key is formed only where one fails or Phi1 A vanishes."""
    (p1, p1y, w2y, w2xy), (p2, p2x, w1x, w1xy) = xk, yl
    held = {"ratio_left": _same((pa[0], p2x), (a12a, w1x, w2xy), scale),
            "ratio_right": _same((pa[1], p2), (a12a, w1xy, w2y), scale)}
    return {**held, "key": all(held.values()) and bool(pa[0][0])
            or _same((p1, p2x, w1xy, w2y), (p1y, p2, w1x, w2xy))}


def order_zero_rows(E: EquationCoeffs) -> dict:
    """E's order-(0,0) ``_order_rows``."""
    q = E.qp.q
    (xk,), (yl,) = _along(E, 0, 0), _along(E, 0, 1)
    a = E.a12d.scale_args(q, q)
    return _order_rows(xk, yl, E.a12a, (_form(xk[0], a), _form(xk[1], a)), q**2)


def _admissible(E: EquationCoeffs) -> None:
    """The four conditions on the form's scalars and the spectral condition
    (``equation.admissibility``)."""
    if failures := E.admissibility.failures:
        raise NotAdmissibleError(f"equation not admissible: {failures}")


def _weight(E: EquationCoeffs) -> None:
    """phi1 and phi2 nonzero, and the key row: a lattice weight rho exists."""
    if E.pearson.phi1.is_zero() or E.pearson.phi2.is_zero():
        raise DegenerateEquationError("phi1 or phi2 vanishes identically; no Rodrigues weight")
    if not E.order_zero_rows["key"]:
        raise DegenerateEquationError("incompatible Pearson system: G1 G2(qx,y) != G2 G1(x,qy)")


def _self_adjoint(E: EquationCoeffs) -> None:
    """The ratio_left row, which with key implies ratio_right: in the terms
    of ``_order_rows`` at order (0,0), N_L (N_R a - a12a D_R) =
    N_R (N_L a - a12a D_L) + a12a (N_R D_L - N_L D_R), and N_L is nonzero
    where phi1 and phi2 are."""
    if not E.order_zero_rows["ratio_left"]:
        raise DegenerateEquationError("equation not potentially self-adjoint: ratio_left fails")


#: the paper's hypotheses in the order every request decides them: the
#: hypergeometric form, admissibility (the spectral condition), a Pearson
#: system (both omegas nonzero), a lattice weight, and potential
#: self-adjointness at order (0,0)
HYPOTHESES = {"form": form_scalars, "admissible": _admissible, "pearson": lambda E: E.pearson,
              "weight": _weight, "self_adjoint": _self_adjoint}

#: the hypotheses each request needs: the monic oracle (and so `generate
#: --family monic` and every preset suite), the Rodrigues route, and the
#: weight table of `generate --family weight`
NEEDS = {"monic": ("form", "admissible"),
         "rodrigues": ("form", "admissible", "pearson", "weight", "self_adjoint"),
         "weight": ("form", "pearson", "weight")}


def require(E: EquationCoeffs, request: str) -> None:
    """Refuse E for `request` with the refusal of the first hypothesis, in
    ``HYPOTHESES``' order, that the request ``NEEDS`` and E fails."""
    for name, decide in HYPOTHESES.items():
        if name in NEEDS[request]:
            decide(E)


def verify_pearson_identities(E: EquationCoeffs, k_max: int, l_max: int) -> dict:
    """Exact report: ``_order_rows`` of every order (k, l) up to the
    bounds, read from the closed forms of the module docstring (nothing
    propagated, scalar factors split off, rows decided with the denominators
    crossed), and coupling, omega1_(k,l+1)(qx,y) omega2_kl(qx,qy) =
    omega2_(k+1,l)(x,qy) omega1_kl(qx,qy).  A vanishing W at any order read
    (to k_max + 1 and l_max + 1) is refused."""
    q = E.qp.q
    report = {"ratio_left": {}, "ratio_right": {}, "key": {}, "coupling": {}}
    xs, ys = _along(E, k_max + 1, 0), _along(E, l_max + 1, 1)
    a = E.a12d.scale_args(q, q)
    pas = [(_form(p1, a), _form(p1y, a)) for p1, p1y, *_ in xs[:-1]]
    for (k, xk), (l, yl) in itertools.product(enumerate(xs[:-1]), enumerate(ys[:-1])):
        rows = _order_rows(xk, yl, E.a12a.scale_args(q**k, q**l), pas[k], q ** (2 - k - l))
        for row, held in rows.items():
            report[row][k, l] = held
        report["coupling"][k, l] = _same((ys[l + 1][2], xk[3]), (xs[k + 1][2], yl[3]))
    report["ok"] = all(v for rows in report.values() for v in rows.values())
    return report


class WeightEvaluator(Record):
    """Exact lattice weight: rho(q^s x0, q^t y0) as a finite product of ratio
    values relative to rho(x0, y0) = 1.

    The canonical path steps y first (t applications of G2 at x0), then x at
    the final y level.  Poles along a path raise LatticePoleError with the
    offending index.
    """

    pearson: PearsonData
    anchor: tuple
    qp: QParam

    def __post_init__(self):
        self._cache = {}

    def _g(self, which: str, xv, yv, index: int):
        P, q = self.pearson, self.qp.q
        num, den = ((P.phi1.eval(xv, yv), P.omega1.eval(q * xv, yv)) if which == "G1"
                    else (P.phi2.eval(xv, yv), P.omega2.eval(xv, q * yv)))
        if not den:
            raise LatticePoleError(which, index, (xv, yv))
        return num / den

    def value(self, s: int, t: int):
        """rho at (q^s x0, q^t y0), s, t >= 0; exact."""
        if s < 0 or t < 0:
            raise ValueError("lattice exponents must be nonnegative")
        key = (s, t)
        if key in self._cache:
            return self._cache[key]
        q = self.qp.q
        x0, y0 = self.anchor
        if s == 0 and t == 0:
            val = 1
        elif s == 0:
            val = self.value(0, t - 1) * self._g("G2", x0, y0 * q ** (t - 1), t - 1)
        else:
            val = self.value(s - 1, t) * self._g("G1", x0 * q ** (s - 1), y0 * q**t, s - 1)
        self._cache[key] = val
        return val

    def box_pairs(self, s_count: int, t_count: int) -> list:
        """rho[s][t] = value(s, t) on x_s = q^s x0, y_t = q^t y0, s < s_count,
        t < t_count, as ``lowest_pair`` of a neighbour times a ratio, each
        Pearson polynomial evaluated once (``eval_grid_pairs``).  A pole
        raises the error value() meets first when walked row by row over the
        box: G2 up the column s = 0, then G1 along each x row."""
        q, P = self.qp.q, self.pearson
        xs = [self.anchor[0] * q**s for s in range(s_count)]
        ys = [self.anchor[1] * q**t for t in range(t_count)]
        w1 = P.omega1.eval_grid_pairs(xs[1:], ys)  # w1[s][t] = omega1(x_(s+1), y_t)
        w2 = P.omega2.eval_grid_pairs(xs[:1], ys[1:])  # w2[0][t] = omega2(x_0, y_(t+1))
        for which, grid in (("G2", w2), ("G1", w1)):
            for s, t in ((s, t) for s, row in enumerate(grid)
                         for t, w in enumerate(row) if not w[0]):
                raise LatticePoleError(which, s if which == "G1" else t, (xs[s], ys[t]))
        p2, = P.phi2.eval_grid_pairs(xs[:1], ys[:-1])
        rows = [[(1, 1)]]
        for (pn, pd), (wn, wd) in zip(p2, w2[0]):
            rows[0].append(lowest_pair(rows[0][-1][0] * pn * wd, rows[0][-1][1] * pd * wn))
        for prow, wrow in zip(P.phi1.eval_grid_pairs(xs[:-1], ys), w1):
            rows.append([lowest_pair(rn * pn * wd, rd * pd * wn)
                         for (rn, rd), (pn, pd), (wn, wd) in zip(rows[-1], prow, wrow)])
        return rows

    def point(self, s: int, t: int):
        q = self.qp.q
        return (self.anchor[0] * q**s, self.anchor[1] * q**t)


def base_weight(E: EquationCoeffs, anchor) -> WeightEvaluator:
    return WeightEvaluator(E.pearson, tuple(anchor), E.qp)


def weight_table_rows(W: WeightEvaluator, s_max: int, t_max: int) -> list:
    """CSV-ready rows (s, t, x, y, numerator, denominator) of exact lattice
    weight values, the lowest-terms pairs of ``box_pairs``; rows are ordered
    by (s, t).  Each coordinate is formed once: point(k, k) = (x_k, y_k)."""
    xs, ys = zip(*(map(str, W.point(k, k)) for k in range(max(s_max, t_max) + 1)))
    return [(s, t, xs[s], ys[t], str(num), str(den))
            for s, row in enumerate(W.box_pairs(s_max + 1, t_max + 1))
            for t, (num, den) in enumerate(row)]
