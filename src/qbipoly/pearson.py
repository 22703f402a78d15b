"""q-Pearson data, Pearson-equivalent rational identities, and lattice
evaluation of the orthogonality weight.

With the sqrt(q)-absorbed coefficient convention the Pearson polynomials are

    omega1(x,y) = y C11(x) - q x A12d(x,y)      phi1 = y C11 - x A12a + (q-1) x y B1
    omega2(x,y) = x C22(y) - q y A12d(x,y)      phi2 = x C22 - y A12a + (q-1) x y B2

and G1 = phi1(x,y)/omega1(qx,y), G2 = phi2(x,y)/omega2(x,qy) are the one-step
weight ratios rho(qx,y)/rho(x,y) and rho(x,qy)/rho(x,y); PearsonData keeps
only the four polynomials, and its readers evaluate omega at the shift.

General-equation weights are defined per q-commensurate lattice component,
relative to one anchor with rho(anchor) = 1.  Such a weight exists only
where the key row of ``pearson_rows`` holds (G1 and G2 commute as shifts);
elsewhere a product of ratios depends on the path it walks.  The Rodrigues
route reads the Pearson polynomials alone; the lattice weight serves the
weight table.  The derivative-weight evaluator rho^{(k,l)}, with the product
identity that fixes its normalization, is a reference in
tests/test_pearson.py.

The paper's hypotheses are decided here, each by one function of
``HYPOTHESES``, and ``NEEDS`` says which of them each request needs:
``require`` raises the refusal of the first that fails.
"""

import itertools

from .bipoly import BiPoly, lowest_pair
from .equation import EquationCoeffs, NotAdmissibleError, form_scalars, propagated_orders
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


class PearsonData(FrozenRecord):
    phi1: BiPoly
    phi2: BiPoly
    omega1: BiPoly
    omega2: BiPoly


def _omegas(E) -> tuple:
    """(omega1, omega2) of E, exact; either vanishing is a degenerate equation."""
    x, y, q = BiPoly.x(), BiPoly.y(), E.qp.q
    omega1 = y * E.c11 - x * E.a12d * q
    omega2 = x * E.c22 - y * E.a12d * q
    if omega1.is_zero() or omega2.is_zero():
        raise DegenerateEquationError("omega vanishes identically; no Pearson system")
    return omega1, omega2


def build_pearson(E) -> PearsonData:
    """The Pearson polynomials of an EquationCoeffs or DerivedCoeffs; exact."""
    omega1, omega2 = _omegas(E)
    x, y, q = BiPoly.x(), BiPoly.y(), E.qp.q
    phi1 = y * E.c11 - x * E.a12a + x * y * E.b1 * (q - 1)
    phi2 = x * E.c22 - y * E.a12a + x * y * E.b2 * (q - 1)
    return PearsonData(phi1, phi2, omega1, omega2)


def pearson_rows(E, w1: BiPoly, w2: BiPoly, w1_qq: BiPoly, w2_qq: BiPoly) -> dict:
    """The key, ratio_left and ratio_right rows of an EquationCoeffs or
    DerivedCoeffs, from the four shift products of its Pearson data:

        G1 G2(qx,y) = N_L/D_L,  N_L = phi1 phi2(qx,y),  D_L = omega1(qx,y) omega2(qx,qy),
        G1(x,qy) G2 = N_R/D_R,  N_R = phi1(x,qy) phi2,  D_R = omega1(qx,qy) omega2(x,qy),

    given its omegas' shifts w1 = omega1(qx,y), w2 = omega2(x,qy), w1_qq =
    omega1(qx,qy) and w2_qq = omega2(qx,qy).  Each row is a polynomial
    identity with its denominators cleared: key is N_L D_R = N_R D_L, the
    shift commutation G2 G1(x,qy) = G1 G2(qx,y) that g2 y Dq2 g1 = g1 x Dq1
    g2 becomes with q - 1, x and y cancelled; ratio_left is N_L q^2
    a12d(qx,qy) = a12a D_L, and ratio_right the same with N_R and D_R.
    build_pearson refuses a vanishing omega, so no cancelled factor is zero
    and each row's callable decides its rational-function identity exactly."""
    P, q = E.pearson, E.qp.q
    n_l, d_l = P.phi1 * P.phi2.scale_args(q, 1), w1 * w2_qq
    n_r, d_r = P.phi1.scale_args(1, q) * P.phi2, w1_qq * w2
    a12d_qq = E.a12d.scale_args(q, q) * q**2
    return {"key": lambda: n_l * d_r == n_r * d_l,
            "ratio_left": lambda: n_l * a12d_qq == E.a12a * d_l,
            "ratio_right": lambda: n_r * a12d_qq == E.a12a * d_r}


def _decide_rows(E, decide: dict) -> dict:
    """{row: held} of the ``pearson_rows`` callables `decide` of E.  The
    ratio rows are decided first: with a12d nonzero they imply key, since
    (N_L D_R - N_R D_L) A = D_R (N_L A - a12a D_L) - D_L (N_R A - a12a D_R)
    for A = q^2 a12d(qx,qy), so key's products are formed only where a
    ratio row fails or a12d vanishes."""
    held = {row: decide[row]() for row in ("ratio_left", "ratio_right")}
    return {**held, "key": all(held.values()) and not E.a12d.is_zero() or decide["key"]()}


def order_zero_rows(E: EquationCoeffs) -> dict:
    """{row: held} of E's order-(0,0) ``pearson_rows`` (`_decide_rows`)."""
    P, q = E.pearson, E.qp.q
    w1, w2 = P.omega1.scale_args(q, 1), P.omega2.scale_args(1, q)
    return _decide_rows(E, pearson_rows(E, w1, w2, w1.scale_args(1, q), w2.scale_args(q, 1)))


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
    of ``pearson_rows``, with a = q^2 a12d(qx,qy), N_L (N_R a - a12a D_R) =
    N_R (N_L a - a12a D_L) + a12a (N_R D_L - N_L D_R), and N_L is nonzero
    where phi1 and phi2 are."""
    if not E.order_zero_rows["ratio_left"]:
        raise DegenerateEquationError("equation not potentially self-adjoint: ratio_left fails")


#: the paper's hypotheses in the order every request decides them, each with
#: the one function that decides it and raises its refusal: the
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
    """Exact verification report: the ``pearson_rows`` of every order (k,l)
    up to the bounds, each order's key decided as in ``order_zero_rows``,
    and coupling, which links omega's of neighbouring orders.

    The propagation stops before the corner (k_max + 1, l_max + 1), which
    no row reads.  Every other order is checked for degeneracy: an x step
    divides omega1 by q and a y step omega2, so the corner's omegas are those
    of (k_max, l_max + 1) and (k_max + 1, l_max) over q, refused there.
    """
    q = E.qp.q
    report = {"ratio_left": {}, "ratio_right": {}, "key": {}, "coupling": {}}
    derived = dict(itertools.islice(propagated_orders(E, k_max + 1, l_max + 1),
                                    (k_max + 2) * (l_max + 2) - 1))
    # coupling alone reads the orders k = k_max + 1 or l = l_max + 1: no phi
    omegas = {kl: (D.pearson.omega1, D.pearson.omega2) if kl[0] <= k_max and kl[1] <= l_max
              else _omegas(D) for kl, D in derived.items()}
    w1 = {kl: w[0].scale_args(q, 1) for kl, w in omegas.items() if kl[0] <= k_max}
    w2 = {kl: w[1].scale_args(1, q) for kl, w in omegas.items() if kl[1] <= l_max}
    for k, l in itertools.product(range(k_max + 1), range(l_max + 1)):
        w1_qq, w2_qq = w1[k, l].scale_args(1, q), w2[k, l].scale_args(q, 1)
        D = derived[k, l]
        decide = pearson_rows(D, w1[k, l], w2[k, l], w1_qq, w2_qq)
        for row, held in _decide_rows(D, decide).items():
            report[row][k, l] = held
        report["coupling"][k, l] = w1[k, l + 1] * w2_qq == w2[k + 1, l] * w1_qq
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
