"""The bivariate big q-Jacobi preset: equation coefficients, the explicit
non-monic family, explicit recurrence matrices, the monic hypergeometric
representation, the orthogonality weight with its Jackson moment engine, and
the q -> 1 classical targets (Appell-type monic family, Jacobi-product
family, classical Rodrigues, classical operator)."""

from fractions import Fraction

from .bipoly import BiPoly, combine, exact_form, from_form, lift_pairs, reduced
from .equation import EquationCoeffs
from .jackson import _ladder
from .linalg import Mat
from .monic import generate_monic_oracle
from .qcalc import (QParam, QTables, Rows, _terms, gauss_2f1_terminating,
                    kampe_de_feriet, power_exponent, qnum)
from .rodrigues import rodrigues_polys
from .scalars import FrozenRecord


class BigQJacobiParams(FrozenRecord):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    qp: QParam

    def __post_init__(self):
        q = self.qp.q
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not 0 < v * q < 1:
                raise ValueError(f"need 0 < {name}q < 1, got {name}={v}, q={q}")
        if not self.d < 0:
            raise ValueError(f"need d < 0, got d={self.d}")


#: The point of `--preset big-q-jacobi` without `--param`.
TEST_PARAMS = BigQJacobiParams(
    Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(-1, 2), QParam(Fraction(1, 2))
)


def preset_equation(p: BigQJacobiParams) -> EquationCoeffs:
    """Equation coefficients of the bivariate big q-Jacobi family (sqrt(q)
    absorbed into the pure second-order coefficients), each expanded from
    its factored form:

        C11 = q (dq - x)(acq^2 - x),  C22 = q (aq - y)(dq - y),
        A12a = k (d - bx)(1 - y),  A12d = (dq - x)(aq - y),
        B1 = r (q s1 + e x),  B2 = r (s2 + e y),

    k = acq^4, e = abcq^3 - 1, r = q/(q - 1), s1 = d - acdq^2 + acq - abcq^2
    and s2 = dq + aq(1 - dq) - abcq^3."""
    q = p.qp.q
    a, b, c, d = p.a, p.b, p.c, p.d
    q2, ac = q * q, a * c
    abcq2, k, r = ac * b * q2, ac * q2 * q2, q / (q - 1)
    e, dk, bk = abcq2 * q - 1, d * k, b * k
    s1 = d - ac * d * q2 + ac * q - abcq2
    s2 = d * q + a * q * (1 - d * q) - abcq2 * q
    return EquationCoeffs(
        p.qp,
        BiPoly({(0, 0): dk, (1, 0): -(d + ac * q) * q2, (2, 0): q}),
        BiPoly({(0, 0): a * d * q2 * q, (0, 1): -(a + d) * q2, (0, 2): q}),
        BiPoly({(0, 0): dk, (0, 1): -dk, (1, 0): -bk, (1, 1): bk}),
        BiPoly({(0, 0): a * d * q2, (0, 1): -d * q, (1, 0): -a * q, (1, 1): 1}),
        BiPoly({(0, 0): r * q * s1, (1, 0): r * e}),
        BiPoly({(0, 0): r * s2, (0, 1): r * e}))


def lambda_explicit(p: BigQJacobiParams, n: int) -> Fraction:
    """The explicit eigenvalue product q^{2-n} [n]_q (1 - abc q^{n+2})/(q-1)."""
    q = p.qp.q
    return q ** (2 - n) * qnum(n, p.qp) * (1 - p.a * p.b * p.c * q ** (n + 2)) / (q - 1)


# ---------------------------------------------------------------------------
# the explicit non-monic solution
# ---------------------------------------------------------------------------

def _fold(coefs, lower, upper) -> BiPoly:
    """sum_r coefs[r] prod(lower[:r]) prod(upper[r:K]), r = 0..K = len(coefs)
    - 1 (the lists may run longer), by the step acc -> acc upper[r-1] +
    coefs[r] prod(lower[:r])."""
    acc, head = BiPoly.zero(), BiPoly.const(1)
    for r, coef in enumerate(coefs):
        if r:
            acc, head = acc * upper[r - 1], head * lower[r - 1]
        acc = acc + head * coef
    return acc


def nonmonic_polys(p: BigQJacobiParams, pairs) -> dict:
    """{(n, k): the explicit product solution P_{n,k}(x, y)}, a product of
    big q-Jacobi polynomials P_m(t; alpha, beta, gamma) = 3phi2(q^-m, alpha
    beta q^(m+1), t; alpha q, gamma q; q, q) on the parameters of
    `MomentTable`'s two weights, the outer one's shifted by k:

        P_(n,k) = P_(n-k)(y; a, bc q^(2k+1), d q^k) y^k (dq/y; q)_k P_k(x/y; c, b, d/y).

    Each is one exact series:

        3phi2(q^{k-n}, abc q^{n+k+2}, y; aq, d q^{k+1}; q, q)
          * sum_r c_r prod_{i<r} (y - x q^i) prod_{r<=i<k} (y - d q^{1+i}),

    c_r = (q^{-k}, bc q^{k+1}; q)_r q^r / (cq, q; q)_r: the 3phi2 in x/y with
    the bridge y^k (dq/y; q)_k folded into each term.  One
    `QTables` serves the call: the 3phi2 is one `combine` of its scalar
    coefficients over the shared rows (y; q)_j (as `hypergeometric_polys`
    sums its series), and the fold factors y - x q^i and y - d q^(1+i) are
    formed once, up to the largest k."""
    if not all(0 <= k <= n for n, k in pairs):
        raise ValueError("need 0 <= k <= n")
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d
    x, y = BiPoly.x(), BiPoly.y()
    tab = QTables(q)
    pw = tab.pow
    top = max((k for _, k in pairs), default=0)
    lower = [y - x * pw(i) for i in range(top)]
    upper = [y - d * pw(1 + i) for i in range(top)]
    out = {}
    for n, k in pairs:
        ys = _terms(tab, (pw(k - n), a * b * c * pw(n + k + 2)), (a * q, d * pw(k + 1), q),
                    "series", v=q)
        ypoch = tab.row(y, len(ys) - 1)
        nums, den = exact_form(enumerate(ys))
        first = from_form(*combine(((f, ypoch[j].nums, ypoch[j].den) for j, f in nums.items()),
                                   den))
        coefs = _terms(tab, (pw(-k), b * c * pw(k + 1)), (c * q, q), "series", last=k, v=q)
        out[n, k] = first * _fold(coefs, lower, upper)
    return out


def nonmonic_poly(p: BigQJacobiParams, n: int, k: int) -> BiPoly:
    """The explicit product solution P_{n,k}: `nonmonic_polys` of one pair."""
    return nonmonic_polys(p, [(n, k)])[n, k]


# ---------------------------------------------------------------------------
# explicit three-term recurrence matrices (closed-form entries)
# ---------------------------------------------------------------------------

def explicit_BC(p: BigQJacobiParams, n: int) -> dict:
    """The closed-form entries of B_{n,1}, B_{n,2} ((n+1)x(n+1)) and C_{n,1}, C_{n,2}
    ((n+1)xn) on their band i - j in {-1, 0, 1, 2} (1-based), each an integer numerator over
    an integer denominator, one reduction per row.  With q = u/v, a = a0/a1, ..., d = d0/d1,
    abc = m0/m1 and z(x0, x1, e) = x0 u^e - x1 v^e, a B entry is over W = d1 Z1 Z3 (a B2
    diagonal one over (u - v) u^(i-1) W) and a C entry over d1^2 Z0 Z1^2 Z2, Z_k = z(m0, m1,
    2n+k) the numerator of abc q^(2n+k) - 1.  Formed once per n: L1 = d h - abc (q+1) q^(n+1)
    and L2 = h - d (q+1) q^n (h = abc q^(2n+2) + 1), K = -(d q^n - 1)(abc q^(n+1) - d) of
    every C entry and the coefficients K1, K2, K3 of B2[i,i] in q^i, 1 and q^-i; lo(e) and
    tops(e) are (q^e - 1)(a q^e - 1) and (q^e - 1)(b q^e - 1).  The C denominator vanishes
    where abc q^2 = 1 at n = 1, a ZeroDivisionError."""
    if n < 1:
        raise ValueError("explicit matrices start at n = 1")
    u, v = p.qp.q.numerator, p.qp.q.denominator
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = ((t.numerator, t.denominator) for t in (p.a, p.b, p.c, p.d))
    U, V = [u**k for k in range(3 * n + 6)], [v**k for k in range(3 * n + 6)]
    z = lambda x0, x1, e: x0 * U[e] - x1 * V[e]
    lo, tops = (lambda e: z(1, 1, e) * z(a0, a1, e)), (lambda e: z(1, 1, e) * z(b0, b1, e))
    m0, m1, ac0, ac1, s = a0 * b0 * c0, a1 * b1 * c1, a0 * c0, a1 * c1, u + v
    Z0, Z1, Z2, Z3 = (z(m0, m1, 2 * n + k) for k in range(4))
    H1, W, WC = z(m0, -m1, 2 * n + 1), d1 * Z1 * Z3, d1 * d1 * Z0 * Z1 * Z1 * Z2
    L1 = d0 * z(m0, -m1, 2 * n + 2) - d1 * m0 * s * U[n + 1] * V[n]  # over d1 m1 v^(2n+2)
    L2 = d1 * z(m0, -m1, 2 * n + 2) - d0 * m1 * s * U[n] * V[n + 1]
    if not WC:
        raise ZeroDivisionError(f"abc q^{2 * n} = 1: the C denominator vanishes")
    Y1, Pu = z(d0, d1, n), v * z(d0, d1, n + 1) * Z1
    K, Pv = -Y1 * z(d1 * m0, d0 * m1, n + 1), Y1 * Z3
    K1, K2, K3, kb = u * Pu - v * Pv, Pv - Pu, v * Pu - u * Pv, K * a0 * b1
    G0, G1, G2, kc = (a0 + a1) * H1 * U[n], s * a1 * m0 * U[3 * n + 2], s * a0 * m1 * U[n], kb * c0 * c1
    out = [], [], [], []
    for i in range(1, n + 2):
        r, t, lw, tp = i - 1, n + 1 - i, lo(i - 1), tops(n + 1 - i)  # the 0-based row, n + 1 - i
        rb1 = {r: b1 * L1 * V[t] * (ac0 * U[n + 1 + i] + ac1 * U[t + 1] * V[2 * i - 1])
               + ac0 * (b0 + b1) * L2 * U[n + 2] * V[n]}
        rb2 = {r: b1 * c1 * V[t] * (a0 * K1 * U[2 * i - 1] + (a0 + a1) * K2 * U[i] * V[i]
                                    + a1 * K3 * V[2 * i - 1]) + (u - v) * V[i - 1] * W}
        rc1, rc2 = {}, {}
        if i > 1:                    # i = j + 1
            rb1[r - 1] = -b1 * c1 * L1 * lw * U[t + 1] * V[t + 1]
            rc1[r - 1] = kc * lw * U[2 * n + 3 - i] * V[2 * n + 1 - i] * (
                (b0 + b1) * H1 - b0 * b1 * s * V[t] * (ac0 * U[n - 1 + i] + ac1 * U[t] * V[2 * i - 2]))
            rc2[r - 1] = kb * c1 * U[n + 1] * V[n] * lw * z(b0 * c0, b1 * c1, 2 * n + 2 - i) \
                * z(m0, m1, 2 * n + 2 - i)
        if i > 2:                    # i = j + 2
            rc1[r - 2] = K * m0 * (b1 * c1) ** 2 * U[n + 3 + 2 * t] * V[n + 2 + 2 * t] * lw * lo(i - 2)
        if i <= n:                   # i = j - 1, and the C diagonal
            rb2[r + 1] = -ac0 * L2 * (u - v) * U[2 * i] * V[i - 1] * tp
            rc1[r] = kb * c0 * U[n + 2] * V[n - 1] * tp * z(ac0, ac1, i + n) * z(m0, m1, i + n)
            rc2[r] = kc * V[n + i - 1] * tp * (G0 * U[i + 1] - G1 * V[i - 1] - G2 * U[2 * i] * V[n + t])
        if i < n:
            rc2[r + 1] = K * m1 * ac0 ** 2 * U[n + 2 + 2 * i] * V[n + 2 * i - 1] * tp * tops(t - 1)
        for forms, row, den in zip(out, (rb1, rb2, rc1, rc2), (W, (u - v) * U[i - 1] * W, WC, WC)):
            forms.append(reduced(row, den))
    return {name: Mat._of(forms, n + (name[0] == "B")) for name, forms in zip(("B1", "B2", "C1", "C2"), out)}


# ---------------------------------------------------------------------------
# monic hypergeometric representation
# ---------------------------------------------------------------------------

def hypergeometric_polys(p: BigQJacobiParams, pairs) -> dict:
    """{(n, m): the monic solution with leading monomial x^n y^m}: its
    prefactor times the bivariate Phi series

        Phi(abc q^{n+m+2} : q^-n, bx/d ; q^-m, y | - : bq, abc q^{m+2}/d ; aq, d q^{n+1} | q, q),

    summed with the polynomial parameters bx/d and y.  One `QTables` serves
    the call, so the factors and rows the pairs share (the five prefactor
    Pochhammers, the series denominators, (bx/d; q)_i and (y; q)_j) are
    formed once; a pair's polynomial is one `combine` of the products
    (bx/d; q)_i (y; q)_j it needs.  Monicity is not re-checked: the
    consistency suite and the tests compare the results with the oracle's.
    """
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d
    abc, aq, bq, db = a * b * c, a * q, b * q, d / b
    tab = QTables(q)
    pw, row = tab.pow, tab.row
    xpoch = row(BiPoly.x() * (b / d), max(n for n, _ in pairs))
    ypoch = row(BiPoly.y(), max(m for _, m in pairs))
    products = {(i, j): xpoch[i] * ypoch[j] for i, j in
                {(i, j) for n, m in pairs for i in range(n + 1) for j in range(m + 1)}}
    out = {}
    for n, m in pairs:
        zx, zy, zj = abc * pw(m + 2) / d, d * pw(n + 1), abc * pw(n + m + 2)
        xs = _terms(tab, [pw(-n)], (bq, zx, q), "x direction", last=n, v=q)
        ys = _terms(tab, [pw(-m)], (aq, zy, q), "y direction", last=m, v=q)
        joint = row(zj, n + m)
        pref = (db**n * row(aq, m)[m] * row(bq, n)[n] * row(zy, m)[m] * row(zx, n)[n]
                / joint[n + m])
        xs = [pref * xi for xi in xs]
        nums, den = exact_form(((i, j), joint[i + j] * xi * yj)
                               for i, xi in enumerate(xs) for j, yj in enumerate(ys))
        out[n, m] = from_form(*combine(((k, products[ij].nums, products[ij].den)
                                        for ij, k in nums.items()), den))
    return out


def monic_hypergeometric(p: BigQJacobiParams, n: int, m: int) -> BiPoly:
    """The monic solution with leading monomial x^n y^m:
    `hypergeometric_polys` of one pair."""
    return hypergeometric_polys(p, [(n, m)])[n, m]


def hypergeometric_family(p: BigQJacobiParams, N: int) -> dict:
    """`hypergeometric_polys` of every pair n + m <= N."""
    return hypergeometric_polys(p, [(t - m, m) for t in range(N + 1) for m in range(t + 1)])


# ---------------------------------------------------------------------------
# weight function, orthogonality domain, Jackson moments
# ---------------------------------------------------------------------------

def check_weight_params(p: BigQJacobiParams) -> None:
    """Refuse c = q^k (k >= 0): (x/(cy); q)_inf then vanishes on the
    weight's lattice, so the orthogonality weight is not defined there.
    Decided exactly by ``qcalc.power_exponent``."""
    c, q = p.c, p.qp.q
    if (k := power_exponent(c, q)) is not None and k >= 0:
        raise ValueError(f"the orthogonality weight needs c != q^k (k >= 0), "
                         f"got c={p.c}, q={q}")


def _jacobi_ratios(q: Fraction, D: int, e: Fraction, ups, down: Fraction) -> tuple:
    """(rows, den): the exact moment ratios s = 0..D of a univariate big
    q-Jacobi weight (alpha, beta, gamma) in t, the integral of t^s over that
    of 1, row s its integer coefficients in y over den.  The weight's (t;
    q)_k integrates to its mass times W_k = (alpha q, gamma q; q)_k / (alpha
    beta q^2; q)_k (Koekoek, Lesky & Swarttouw, 2010, 14.5.2, at alpha q^k),
    given as (e y, *ups; q)_k / (down; q)_k: alpha q = e y may carry y.  By
    t (t; q)_k = q^-k ((t; q)_k - (t; q)_(k+1)), t^s = sum_k C_sk (t; q)_k
    (row s integers over u^(s(s+1)/2), q = u/v), so ratio s is sum_k C_sk
    W_k; W_k = P_k(y) / dens[k], each factor 1 - z q^l as (z1 v^l - z0 u^l)
    / (z1 v^l), z = z0/z1, so dens[k] divides dens[D]."""
    u, v, e0, e1 = q.numerator, q.denominator, e.numerator, e.denominator
    C, P, dens = [[1]], [[1]], [1]
    for l in range(D):
        U, V = u**l, v**l
        C.append([C[-1][0] * U * u]
                 + [(v * n - u * m) * v ** (j - 1) * u ** (l + 1 - j)
                    for j, (n, m) in enumerate(zip(C[-1][1:] + [0], C[-1]), 1)])
        num, den = down.denominator * V, (down.denominator * V - down.numerator * U) * e1 * V
        for z in ups:
            num, den = num * (z.denominator * V - z.numerator * U), den * z.denominator * V
        # times 1 - e q^l y: P_k has degree k in y, or 0 where e = 0
        c0, c1 = num * e1 * V, -num * e0 * U
        P.append([n * c0 + m * c1 for n, m in zip(P[-1] + [0] * bool(e0), [0] + P[-1])])
        dens.append(dens[-1] * den)
    top, last = u ** (D * (D + 1) // 2), dens[D]
    lifts, rows = [last // d for d in dens], []
    for s, row in enumerate(C):
        lift, acc = top // u ** (s * (s + 1) // 2), [0] * len(P[s])
        for c, Pk, lk in zip(row, P, lifts):
            f = c * lift * lk
            for m, n in enumerate(Pk):
                acc[m] += f * n
        rows.append(acc)
    return rows, top * last


class MomentTable:
    """The Jackson moments M_ij = L(x^i y^j) of the orthogonality functional
    on the triangle i + j <= max_degree: M_00 times exact rational ratios,
    with nothing truncated.

    The double q-integral runs y over (dq -> aq) and x over (dq -> c q y).
    At fixed y the weight's x part, (x/(cy), x/d; q)_inf / (x/y, bx/d;
    q)_inf, is the big q-Jacobi weight in x/y with parameters (c, b, d/y),
    and its Jackson integral over (dq -> cqy) has a closed form: the
    orthogonality relation at m = n = 0 (Koekoek, Lesky & Swarttouw, 2010,
    14.5.2).  Times the y part of the weight, the factors (dq/y; q)_inf,
    (d/(cy); q)_inf and (cqy/d; q)_inf cancel, so the inner integral of x^i
    is G(y) Q_i(y), with no inner lattice, where

        G(y) = cq (1 - q) (q, bcq^2; q)_inf / (cq, bq; q)_inf
               * (y/a, y/d; q)_inf / (y, bcqy/d; q)_inf.

    On y = d q^{1+t} the written weight sits at 0/0 (the numerator's (dq/y;
    q)_inf and the denominator's (x/y; q)_inf vanish at x = d q^{1+r}, r <=
    t); G Q_i is its continuous limit there, dropping the single vanishing
    factor from both.

    Both integrals are moments of univariate big q-Jacobi weights, whose
    exact ratios one kernel gives (`_jacobi_ratios`): in z = bx/d the inner
    weight has parameters (bcy/d, d/y, b), and Q_i(y) = sum_m R_im y^m is
    (d/b)^i times its ratio i; G's y part has (a, bcq, d), and nu_s, the
    y-integral of y^s G over that of G, is its ratio s (the Andrews-Askey
    integral; Gasper & Rahman, 2004, section 2.10).  So M_ij / M_00 = sum_m
    R_im nu_(j+m), and M_00 is G's constant (the inner mass) times the outer
    mass aq (1 - q) (q, aq/d, d/a, abcq^3; q)_inf / (aq, bcq^2, dq,
    abcq^2/d; q)_inf, with (bcq^2; q)_inf cancelling:

        M_00 = acq^2 (1 - q)^2 (q, q, aq/d, d/a, abcq^3; q)_inf
               / (cq, bq, aq, dq, abcq^2/d; q)_inf.

    The table holds the ratios as integers over one denominator and M_00 as
    one `_ladder` at prec bits; `moment`, `integrate` and `gram` (each pair's
    `integrate`, none formed) return the rounded M_00 times an exact ratio.

    Error.  Every value is M_00 times the exact functional's value over
    M_00, and M_00 is within 2^-prec of itself, relative (`_ladder`).  M_00
    > 0 cancels from every gated comparison (a norm's sign, a pair's G_ij^2
    < tol^2 G_ii G_jj, and det H_1 against tol (|h00 h11| + |h01 h10|)), so
    every verdict is the exact functional's, and a pair that the functional
    separates is exactly 0; a printed value is rounded once more, when
    printed (`scalars.float_str`).

    Positivity.  On the parameter domain (0 < aq, bq, cq < 1, d < 0, c !=
    q^k) every node weight is positive or zero and some is positive, so
    `weight_positive` is the constant True; the tests check it against
    exact node signs.  A node weight is 1/y times factors (z q^j;
    q)_inf^(+-1), j >= 0: (x/(cy), x/d, y/a, y/d, dq/y) over (x/y, bx/d, y,
    cqy/d, d/(cy)).  On y = a q^{1+t}, at x = cqy q^r and at x = d q^{1+r}
    alike, each z is <= 0 or in (0, 1), so every factor is positive, and so
    is y.  On y = d q^{1+t} the weight vanishes (dq/y = q^-t) except on x =
    d q^{1+r}, r <= t, where every factor is positive but two ratios, each
    taken less its one vanishing factor.  Let T be the least integer >= 0
    with q^T <= c; as c < 1/q, q^m > c exactly for the integers m < T.  So
    (q^(r-t)/c; q)_inf / (q^(r-t); q)_inf (x/(cy) over x/y) has t - r + T
    negative factors over t - r, sign (-1)^T, and (q^-t/(cq); q)_inf /
    (q^-t; q)_inf (d/(cy) over dq/y, a divisor of the weight) has t + 1 + T
    over t, sign (-1)^(T+1); with 1/y < 0 the weight is positive.  At c =
    q^k (k >= 0), refused by `check_weight_params`, the first ratio vanishes
    on y < 0 and no weight is negative either.  So M_00 > 0, and each z of
    its ladder is <= 0 or in (0, 1), as `_ladder` requires.
    """

    #: every node weight is positive or zero on the parameter domain
    #: (Positivity above)
    weight_positive = True

    def __init__(self, p: BigQJacobiParams, max_degree: int, prec: int):
        check_weight_params(p)
        if prec < 64:
            raise ValueError("float precision must be at least 64 bits")
        if max_degree < 0:
            raise ValueError(f"max_degree must be at least 0, got {max_degree}")
        self.params, self.max_degree, self.prec = p, max_degree, prec
        D, q, a, b, c, d = max_degree, p.qp.q, p.a, p.b, p.c, p.d
        # the inner weight in z = bx/d, (bcy/d, d/y, b), times (d/b)^i; the outer, (a, bcq, d)
        rows, den = _jacobi_ratios(q, D, b * c * q / d, [b * q], b * c * q * q)
        db = d / b
        R = [reduced({m: n * db.numerator**i for m, n in enumerate(row)}, den * db.denominator**i)
             for i, row in enumerate(rows)]
        rows, den = _jacobi_ratios(q, D, 0, [a * q, d * q], a * b * c * q**3)
        nu, nu_den = reduced({s: row[0] for s, row in enumerate(rows)}, den)
        lifts, lcm = lift_pairs([(1, den) for _, den in R])
        # M_ij / M_00 = _fixed[i, j] / (lcm nu_den)
        self._fixed = {(i, j): lift * sum(n * nu.get(j + m, 0) for m, n in nums.items())
                       for i, ((nums, _), lift) in enumerate(zip(R, lifts))
                       for j in range(D + 1 - i)}
        m, e = _ladder([q, q, a * q / d, d / a, a * b * c * q**3],
                       [c * q, b * q, a * q, d * q, a * b * c * q * q / d], q, prec)
        unit = a * c * (q * (1 - q)) ** 2 * m * Fraction(2) ** e / (lcm * nu_den)
        self._num, self._den = unit.numerator, unit.denominator

    def moment(self, i: int, j: int):
        return Fraction(self._fixed[i, j] * self._num, self._den)

    def _dot(self, nums: dict, si: int = 0, sj: int = 0) -> int:
        """sum_m nums[m] F(m + (si, sj)), exact."""
        try:
            return sum(n * self._fixed[i + si, j + sj] for (i, j), n in nums.items())
        except KeyError as err:
            i, j = err.args[0]
            raise ValueError(f"the moment table covers x^i y^j for i + j <= {self.max_degree}; "
                             f"x^{i} y^{j} is outside it") from None

    def integrate(self, poly: BiPoly):
        """The moment functional of an exact polynomial: its integer
        numerators times the exact ratios, times M_00 over its denominator."""
        return Fraction(self._dot(poly.nums) * self._num, poly.den * self._den)

    def gram(self, polys) -> list:
        """G[a][b] = G[b][a] = integrate(polys[a] * polys[b]), no product
        formed: w_a(s) = sum_m n_a(m) F(m + s) contracts each polynomial
        once, and a pair is one dot product over den_a den_b."""
        shifts = {s for poly in polys for s in poly.nums}
        ws = [{s: self._dot(poly.nums, *s) for s in shifts} for poly in polys]
        G = [[None] * len(polys) for _ in polys]
        for a, (pa, w) in enumerate(zip(polys, ws)):
            for b, pb in enumerate(polys[a:], a):
                X = sum(n * w[s] for s, n in pb.nums.items())
                G[a][b] = G[b][a] = Fraction(X * self._num, pa.den * pb.den * self._den)
        return G


# ---------------------------------------------------------------------------
# classical (q -> 1) targets
# ---------------------------------------------------------------------------

class ClassicalParams(FrozenRecord):
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) <= -1:
                raise ValueError(f"{name} must exceed -1")


def appell_monic(cp: ClassicalParams, n: int, m: int) -> BiPoly:
    """Monic bivariate Jacobi (Appell-type) polynomial via the Kampe de
    Feriet double sum; exact rational coefficients."""
    al, be, ga = Fraction(cp.alpha), Fraction(cp.beta), Fraction(cp.gamma)
    s = al + be + ga + m + n + 2
    x, y, one = BiPoly.x(), BiPoly.y(), BiPoly.const(1)
    half = Fraction(1, 2)
    series = kampe_de_feriet([s], [Fraction(-n)], [Fraction(-m)], [], [be + 1], [al + 1],
                             (x + one) * half, (one - y) * half)
    rising = Rows()
    lead = (Fraction(-1) ** n * Fraction(2) ** (n + m) * rising.row(al + 1, m)[m]
            * rising.row(be + 1, n)[n] / rising.row(s, n + m)[n + m])
    return series * lead


def jnm(cp: ClassicalParams, n: int, m: int) -> BiPoly:
    """The q -> 1 limit of the explicit non-monic family: a product of a
    (y+1)-folded 2F1 in (y-x)/(y+1) and a terminating 2F1 in y."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    al, be, ga = Fraction(cp.alpha), Fraction(cp.beta), Fraction(cp.gamma)
    x, y, one = BiPoly.x(), BiPoly.y(), BiPoly.const(1)
    half = Fraction(1, 2)

    # the 2F1(-m, beta+gamma+m+1; gamma+1) coefficients, term r folded with
    # (y-x)^r (y+1)^(m-r): the non-monic fold at q = 1, d = -1
    coefs = _terms(Rows(), (Fraction(-m), be + ga + m + 1), (ga + 1, Fraction(1)),
                   "series", last=m)
    first = _fold(coefs, [y - x] * m, [y + one] * m)
    second = gauss_2f1_terminating(Fraction(m - n), al + be + ga + m + n + 2, al + 1,
                                   (one - y) * half)
    return first * second


def classical_rodrigues_fraction(cp: ClassicalParams, n: int, m: int) -> tuple:
    """(d^{n+m}/dx^n dy^m of (x+1)^{beta+n} (1-y)^{alpha+m} (y-x)^{gamma+n+m},
    the classical weight (1-y)^alpha (x+1)^beta (y-x)^gamma): the classical
    Rodrigues polynomial is their quotient when the weight divides."""
    x, y, one = BiPoly.x(), BiPoly.y(), BiPoly.const(1)
    bracket = ((x + one) ** (cp.beta + n)) * ((one - y) ** (cp.alpha + m)) \
        * ((y - x) ** (cp.gamma + n + m))
    for _ in range(n):
        bracket = bracket.diff_x()
    for _ in range(m):
        bracket = bracket.diff_y()
    return bracket, ((one - y) ** cp.alpha) * ((x + one) ** cp.beta) * ((y - x) ** cp.gamma)


def classical_rodrigues(cp: ClassicalParams, n: int, m: int) -> BiPoly:
    """The classical Rodrigues polynomial; a nonzero remainder raises ValueError."""
    return BiPoly.div_exact(*classical_rodrigues_fraction(cp, n, m))


def classical_pde_residual(cp: ClassicalParams, u: BiPoly, total_degree: int) -> BiPoly:
    """Residual of u under the q -> 1 limit operator, (x^2-1) u_xx + (y^2-1) u_yy
    + 2 (x+1)(y-1) u_xy + (s x + alpha-beta+gamma+1) u_x + (s y + alpha-beta-gamma-1) u_y
    - n (alpha+beta+gamma+n+2) u, s = alpha+beta+gamma+3, n = total degree: its integer
    stencil (x^i y^j to six monomials) over u's numerators, reduced once."""
    al, be, ga, n = cp.alpha, cp.beta, cp.gamma, total_degree
    s, ex, ey, lam, out = al + be + ga + 3, al - be + ga + 1, al - be - ga - 1, n * (al + be + ga + n + 2), {}
    for (i, j), c in u.nums.items():
        for key, w in (((i, j), (i + j) * (i + j - 1 + s) - lam), ((i - 2, j), -i * (i - 1)),
                       ((i, j - 2), -j * (j - 1)), ((i - 1, j), i * (2 * j + ex)),
                       ((i, j - 1), j * (ey - 2 * i)), ((i - 1, j - 1), -2 * i * j)):
            out[key] = out.get(key, 0) + w * c  # a key off the lattice only ever gets 0
    return from_form(*reduced(out, u.den))


# ---------------------------------------------------------------------------
# q -> 1 convergence study
# ---------------------------------------------------------------------------

def limit_params(cp: ClassicalParams, eps: Fraction) -> BigQJacobiParams:
    """a = q^alpha, b = q^beta, c = q^gamma, d = -q at q = 1 - eps."""
    q = 1 - Fraction(eps)
    qp = QParam(q)
    return BigQJacobiParams(q**cp.alpha, q**cp.beta, q**cp.gamma, -q, qp)


def limit_check(cp: ClassicalParams, eps_list, nm_list, points) -> list:
    """Convergence table rows for the monic and Rodrigues pairs at
    q = 1 - eps; everything on the q side is exact.

    Each row: {kind, n, m, point, eps, error (Fraction)}.  The Rodrigues
    pair is aligned by the ratio of its (n, m) coefficients; the monic pair
    needs none.
    """
    targets = [((n, m), appell_monic(cp, n, m), classical_rodrigues(cp, n, m))
               for n, m in nm_list]
    return limit_rows(cp, eps_list, targets, points)


def limit_rows(cp: ClassicalParams, eps_list, targets, points) -> list:
    """`limit_check` against given classical targets ((n, m), monic target,
    classical Rodrigues target): per eps one oracle, up to the largest
    total degree, and the Rodrigues pairs from one ``rodrigues_polys`` call."""
    top = max((n + m for (n, m), _, _ in targets), default=0)
    lanes = []
    for eps in eps_list:
        eps = Fraction(eps)
        E = preset_equation(limit_params(cp, eps))
        lanes.append((eps, generate_monic_oracle(E, top),
                      rodrigues_polys(E, [nm for nm, _, _ in targets]) if targets else {}))
    rows = []
    for (n, m), target, rod_target in targets:
        for eps, fam, rods in lanes:
            ptil = rods[n, m]
            cstar = ptil.coeff(n, m) / rod_target.coeff(n, m)
            for kind, got, want, c in (("monic", fam.entry(n + m, m), target, 1),
                                       ("rodrigues", ptil, rod_target, cstar)):
                rows.extend({"kind": kind, "n": n, "m": m, "point": pt, "eps": eps,
                             "error": abs(got.eval(*pt) - c * want.eval(*pt))} for pt in points)
    return rows


def error_ratios(rows) -> list:
    """Pair consecutive eps entries per (kind, n, m, point): ratio column."""
    keyed = {}
    for row in rows:
        keyed.setdefault((row["kind"], row["n"], row["m"], row["point"]), []).append(row)
    out = []
    for key, group in sorted(keyed.items(), key=lambda kv: str(kv[0])):
        group = sorted(group, key=lambda r: -r["eps"])
        for prev, cur in zip(group, group[1:]):
            ratio = None if prev["error"] == 0 else cur["error"] / prev["error"]
            out.append({"kind": key[0], "n": key[1], "m": key[2], "point": key[3],
                        "eps_from": prev["eps"], "eps_to": cur["eps"], "ratio": ratio})
    return out
