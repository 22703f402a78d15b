"""The bivariate big q-Jacobi preset: equation coefficients, the explicit
non-monic family, explicit recurrence matrices, the monic hypergeometric
representation, the orthogonality weight with its Jackson moment engine, and
the q -> 1 classical targets (Appell-type monic family, Jacobi-product
family, classical Rodrigues, classical operator)."""

from fractions import Fraction

from .bipoly import BiPoly, combine, exact_form, from_form
from .equation import EquationCoeffs
from .jackson import (_Piece, _geometric, _ladder, _power_sums, _powers,
                      _products, _quotient, _sign, _slope)
from .linalg import Mat
from .monic import generate_monic_oracle
from .qcalc import (QParam, QTables, Rows, _terms, gauss_2f1_terminating,
                    kampe_de_feriet, phi_rs, power_exponent, qnum)
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
    """{(n, k): the explicit product solution P_{n,k}(x, y)}, each one exact
    series:

        3phi2(q^{k-n}, abc q^{n+k+2}, y; aq, d q^{k+1}; q, q)
          * sum_r c_r prod_{i<r} (y - x q^i) prod_{r<=i<k} (y - d q^{1+i}),

    c_r = (q^{-k}, bc q^{k+1}; q)_r q^r / (cq, q; q)_r: the 3phi2 in x/y with
    the bridge prod_{j<k} (y - d q^{1+j}) folded into each term.  One
    `QTables` serves the c_r series of every pair, and the fold factors
    y - x q^i and y - d q^(1+i) are formed once, up to the largest k."""
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
        first = phi_rs([pw(k - n), a * b * c * pw(n + k + 2), y], [a * q, d * pw(k + 1)], p.qp, q)
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
    """The closed-form entries of B_{n,1}, B_{n,2} ((n+1)x(n+1)) and
    C_{n,1}, C_{n,2} ((n+1)xn) on their band i - j in {-1, 0, 1, 2} (1-based).

    Formed once per n: both denominators, (d q^n - 1)(abc q^(n+1) - d) of
    every C entry, the long brackets L1 = d h - abc (q+1) q^(n+1) and L2 =
    h - d (q+1) q^n (h = abc q^(2n+2) + 1), and each (q; q) ratio as its two
    factors.  Each B diagonal is gathered by powers of q^i: t1 + t2 is

        B1[i,i] den_b = L1 (ac q^(n+1+i) + q^(n+2-i)) + ac (b+1) q^(n+2) L2,

    and q^-i ([i] (a q^i - 1) u + [i-1] (q - a q^i) v + q), with u = q (d
    q^(n+1) - 1) / (abc q^(2n+3) - 1) and v that at n - 1, is B2[i,i] =
    alpha q^i + beta + gamma q^-i.  Powers are read from one `QTables`."""
    if n < 1:
        raise ValueError("explicit matrices start at n = 1")
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d
    pw = QTables(q).pow
    ac, bc, q1 = a * c, b * c, q + 1
    abc, aq1, bq1, bn, bn1 = ac * b, a * q1, b * q1, b * pw(n), b * pw(n + 1)
    z0, z1, z2, z3 = (abc * pw(2 * n + k) for k in range(4))     # abc q^(2n+k)
    den_b = (z1 - 1) * (z3 - 1)
    den_c = (z0 - 1) * (z1 - 1) ** 2 * (z2 - 1)
    h = z2 + 1
    l1 = (d * h - abc * q1 * pw(n + 1)) / den_b
    l2 = (h - d * q1 * pw(n)) / den_b
    r1, kb2 = ac * (b + 1) * pw(n + 2) * l2, -ac * l2
    u, v = q * (d * pw(n + 1) - 1) / (z3 - 1), q * (d * pw(n) - 1) / (z1 - 1)
    alpha, beta, gamma = (a * (u - v / q) / (q - 1), (a + 1) * (v - u) / (q - 1),
                          (u - q * v) / (q - 1) + q)
    kc = -(d * pw(n) - 1) * (abc * pw(n + 1) - d) / den_c
    kc1, kc2, kc3, kc4 = kc * ac * pw(n + 2), kc * ac, kc * a * pw(n + 1), kc * abc
    kc5, e1, g1, g2 = kc1 * ac, (b + 1) * (z1 + 1), (a + 1) * (z1 + 1), q1 * z2

    B1 = [[0] * (n + 1) for _ in range(n + 1)]
    B2 = [[0] * (n + 1) for _ in range(n + 1)]
    C1 = [[0] * n for _ in range(n + 1)]
    C2 = [[0] * n for _ in range(n + 1)]
    for i in range(1, n + 2):
        r, s = i - 1, n + 1 - i      # the 0-based row; the exponent n + 1 - i
        aqi = a * pw(i)
        B1[r][r] = l1 * (ac * pw(n + 1 + i) + pw(s + 1)) + r1
        B2[r][r] = alpha * pw(i) + beta + gamma * pw(-i)
        if i > 1:                    # i = j + 1
            low = (pw(i - 1) - 1) * (a * pw(i - 1) - 1)
            B1[r][r - 1] = -(l1 * low * pw(s + 1))
            C1[r][r - 1] = (kc2 * low * pw(2 * n + 3 - i)
                            * (e1 - bq1 * pw(n - 1 - i) * (ac * pw(2 * i) + pw(2))))
            C2[r][r - 1] = (kc3 * low * (bc * pw(2 * n + 2 - i) - 1)
                            * (abc * pw(2 * n + 2 - i) - 1))
        if i > 2:                    # i = j + 2
            C1[r][r - 2] = (kc4 * (aqi - q) * (aqi - pw(2)) * pw(3 * n + 2 - 2 * i)
                            * (1 - pw(i - 2)) * (1 - pw(i - 1)))
        if i <= n:                   # i = j - 1, and the C diagonal
            top = pw(s) - 1
            tops = top * (b * pw(s) - 1)
            B2[r][r + 1] = kb2 * pw(i + 1) * tops
            C1[r][r] = kc1 * tops * (ac * pw(i + n) - 1) * (abc * pw(i + n) - 1)
            C2[r][r] = (kc2 * pw(n - i) * top * (bn1 - pw(i))
                        * (g1 * pw(i + 1) - g2 - aq1 * pw(2 * i)))
        if i < n:
            C2[r][r + 1] = kc5 * (pw(i) - bn) * (pw(i) - bn1) * (1 - pw(s - 1)) * (1 - pw(s))

    return {"B1": Mat(B1), "B2": Mat(B2), "C1": Mat(C1), "C2": Mat(C2)}


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


def _node_factors(p: BigQJacobiParams, N: int, wp: int) -> tuple:
    """The weight's node factors at truncation N as integer pairs, each
    within 2^(2 - wp) relative (`_ladder` values within 2^-wp, one
    truncation to wp bits): (A_cq, B_cq, A_d, B_d, B_neg, yfacs), in the
    layout of `MomentTable`.  A, B and B_neg are `_ladder` ratios; the
    outer factors yfac reuse B_d and B_neg with one exact rational each,
    since (z q^(k-1); q)_inf = (1 - z q^(k-1)) (z q^k; q)_inf."""
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d

    def ladder(ups, downs, lo, hi):
        return _ladder(ups, downs, q, lo, hi, wp)

    # the comments name the weight factors of each ratio, at x = cqy q^r
    # (x > 0), x = d q^{1+r} (x < 0), y = a q^{1+t} (y > 0) and
    # y = d q^{1+t} (y < 0); the lists run over r, t + r and r - t (+ N)
    A_cq = ladder([q], [c * q], 0, N)                               # x/(cy) / x/y
    B_cq = ladder([a * c * q**2 / d], [a * b * c * q**2 / d], 0, 2 * N)  # x/d / bx/d
    A_d = ladder([q], [b * q], 0, N)                                # x/d / bx/d
    B_d = ladder([d / (a * c)], [d / a], -N, N)                     # x/(cy) / x/y
    # x/(cy) over x/y less its vanishing factor (the continuous limit)
    B_neg = ladder([1 / c], [Fraction(1)], -N, 0)
    # the outer factors (y/a) (y/d) over (cqy/d) (y) at y = a q^{1+t}, then
    # y = d q^{1+t}; the rest, (dq/y) over y (d/(cy)), with (dq/y) -> drop
    # on y < 0, is 1 / (B(-t) (y_t - d/c)), B = B_d, then B_neg
    Ypos = ladder([q, a * q / d], [a * c * q**2 / d, a * q], 0, N)
    Yneg = ladder([d * q / a, q], [c * q**2, d * q], 0, N)
    yfacs = []
    dc = d / c
    for ys, bs, y0 in ((Ypos, B_d, a), (Yneg, B_neg, d)):
        yn, yd = (y0 * q).numerator, (y0 * q).denominator
        for t in range(N + 1):
            # y_t - d/c = u/v
            u, v = yn * dc.denominator - dc.numerator * yd, yd * dc.denominator
            yfacs.append(_quotient([ys[t], (v, 0)], [bs[N - t], (u, 0)], wp))
            yn, yd = yn * q.numerator, yd * q.denominator
    return A_cq, B_cq, A_d, B_d, B_neg, yfacs


class MomentTable:
    """The Jackson moments M_ij = L(x^i y^j) of the orthogonality functional
    on the triangle i + j <= max_degree, as exact rationals, in one pass
    over the lattice.

    The double q-integral runs y over (dq -> aq) and x over (dq -> c q y),
    both as differences of one-sided Jackson sums truncated at `truncation`.
    On the positive outer branch (y = a q^{1+t}) the weight is the plain
    infinite-product formula.  On the negative outer branch (y = d q^{1+t})
    the infinite products sit at 0/0: the numerator factor (dq/y; q)_inf
    vanishes at every node while the denominator factor (x/y; q)_inf
    vanishes at the inner nodes x = d q^{1+r}, r <= t; the weight's node
    values are the continuous limits, obtained by dropping the single
    vanishing factor from both (all other nodes of that branch carry no
    mass).

    Every factor of the weight is (z q^k; q)_inf for one of eleven arguments
    z and k = t, r, t + r or r - t, so a node weight is yfac(t) A(r)
    B(index), each list a ratio of such factors (`_node_factors`).  Each
    comes from a `_ladder` of exact-rational steps on integer pairs, kept
    at wp = prec + 8 bits.  A Jackson node x carries (1 - q) x, so M_ij =
    (1 - q)^2 sum_t yfac(t) y_t^(j+1) I_(i+1)(t), with the inner sum I_p(t)
    = sum_r (+-) A B x_r^p.  On the q-linear lattice each inner sum is a
    correlation in t, so for each power p one Kronecker product per
    lattice piece gives every t at once (`_Piece`, which packs each piece's
    B once per table as its even and odd slots, at half width, and reads
    the full-width product's integers from two half-width products):

        y > 0, x > 0:  x_t^p sum_r [A(r) q^(pr)] B(t + r)     (x_(t+r) = x_t q^r)
        y > 0, x < 0:  sum_r [A(r) x_r^p] B(r - t), apart at k = r - t < 0, >= 0
        y < 0:         sum_(r <= t) [A(r) x_r^p] B(r - t)

    On y > 0 a node's inner sum is x_t^p c1 - c2 - c3 of the three pieces,
    one exact integer on the least of their exponents.  The outer sums are
    `_power_sums` at the width of the box i, j <= max_degree, so each
    moment is the box table's pair (S, E); `moment`, `integrate` and `gram`
    (each pair's `integrate`, none formed) return exact rationals.

    `weight_positive` is exact: a ladder has one sign (`_sign`) and exact
    zeros that lead it (`_ladder`), a nonzero ladder pair is within a
    relative 2^-wp of its value, and yfac is one quotient.  So a piece and
    outer node have weights of one exact sign or zero, and O(ladders + outer
    nodes) decides that some node weight of the truncated lattice is
    positive and none negative.

    Error.  A node weight and each lattice point is within 2^(3 - wp) =
    2^(-5 - prec) of itself.  The inner sums of all t share one fixed
    point per piece, so the error is bounded against the outer sum's
    largest term, not each inner sum's.  `_Piece` keeps a piece within
    2^(1-prec) of itself where the largest levelled a value has the lag's
    first term.  Elsewhere (x < 0 with k >= 0, chiefly) its bound is a
    term of a nearby outer node, which the outer factor yfac(t) y_t^(j+1)
    shrinks along t (like (cq)^t).  So each moment is within a small
    multiple of 2^-prec of its outer sum's largest term.  At the test
    points (q = 1/2 and 2/3) each bound so scaled stays within 2 bits of
    that term, and the table agrees with itself at prec + 64 to within
    2^-prec of max(|M_ij|, |M_00|) (degree 6 at 120-192 bits, at the
    test, edge and |dq| > 1 points of the tests).
    """

    def __init__(self, p: BigQJacobiParams, max_degree: int, truncation: int, prec: int):
        check_weight_params(p)
        if prec < 64:
            raise ValueError("float precision must be at least 64 bits")
        self.params, self.max_degree, self.truncation, self.prec = p, max_degree, truncation, prec
        sums = self._build()
        # the exact pairs as integers F(i, j) on one binary point 2^_low <= 1
        self._low = min(0, *(e for row in sums for _, e in row))
        self._fixed = {(i, j): S << (E - self._low) for i, row in enumerate(sums)
                       for j, (S, E) in enumerate(row)}

    def _build(self) -> list:
        """The exact pairs [i][j], i + j <= max_degree; sets weight_positive."""
        p, prec = self.params, self.prec
        N, D = self.truncation, self.max_degree
        q, a, c, d = p.qp.q, p.a, p.c, p.d
        # 8 guard bits: a node weight is a product and quotient of four
        # ladder values, each within 2^-wp, and one truncation
        wp = prec + 8
        A_cq, B_cq, A_d, B_d, B_neg, yfacs = _node_factors(p, N, wp)

        ts = range(N + 1)
        ypos = _geometric(a * q, q, N + 1, wp)
        dlat = _geometric(d * q, q, N + 1, wp)      # x < 0 and y < 0

        # per power, the inner sums of every t from one correlation per
        # lattice piece (class docstring): b and the lags that give t
        specs = [(B_cq, list(ts)), (B_d[:N], [N - t for t in ts]),
                 (B_d[N:], [-t for t in ts]), (B_neg, [N - t for t in ts])]
        pieces = [_Piece(bs, _slope(bs), lags, N + 1, prec) for bs, lags in specs]
        c1, c2, c3, c4 = (piece.correlate for piece in pieces)
        width = prec + ((N + 1) * (D + 3)).bit_length() + 1     # as in `_power_sums`
        inner = []
        for (xms, xes), a_cq, a_d in zip(
                _powers([(1, 0)] * (N + 1), _geometric(a * c * q**2, q, N + 1, wp), D + 1, width),
                _powers(A_cq, _geometric(Fraction(1), q, N + 1, wp), D + 1, width),
                _powers(A_d, dlat, D + 1, width)):
            sums = []       # y > 0: x_t^p c1 - c2 - c3 (class docstring)
            for xm, xe, (m1, e1), (m2, e2), (m3, e3) in zip(xms, xes, c1(*a_cq), c2(*a_d),
                                                             c3(*a_d)):
                low = min(xe + e1, e2, e3)
                sums.append((((xm * m1) << (xe + e1 - low)) - (m2 << (e2 - low))
                             - (m3 << (e3 - low)), low))
            inner.append(sums + c4(*a_d))

        # per piece and outer node the weights yfac(t) A(r) B(r + lag) are
        # zero or of sign yfac A B (class docstring), nonzero where A(r) and
        # B(r + lag) are past the leading zeros of A and B
        signs = []
        outer_y = (yfacs,) * 3 + (yfacs[N + 1:],)
        for (bs, lags), us, ys in zip(specs, (A_cq, A_d, A_d, A_d), outer_y):
            sign = _sign(m for m, _ in us) * _sign(m for m, _ in bs)
            za, zb = (next((k for k, (m, _) in enumerate(v) if m), len(v)) for v in (us, bs))
            signs += [sign * y for lag, (y, _) in zip(lags, ys)
                      if y and max(za, zb - lag) < min(len(us), len(bs) - lag)]
        self.weight_positive = min(signs, default=0) > 0
        outer = _products(yfacs, _geometric((1 - q) ** 2, q, 1, wp) * len(yfacs))
        return [_power_sums(_products(outer, sums), ypos + dlat, D + 1, prec, D + 1 - i)
                for i, sums in enumerate(inner)]

    def moment(self, i: int, j: int):
        return Fraction(self._fixed[i, j], 1 << -self._low)

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
        numerators times the moments' exact pairs, over its denominator."""
        return Fraction(self._dot(poly.nums), poly.den << -self._low)

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
                G[a][b] = G[b][a] = Fraction(X, pa.den * pb.den << -self._low)
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
    """Residual of u under the q -> 1 limit operator with eigenvalue
    -n (alpha+beta+gamma+n+2), n = total degree."""
    al, be, ga = Fraction(cp.alpha), Fraction(cp.beta), Fraction(cp.gamma)
    x, y, one = BiPoly.x(), BiPoly.y(), BiPoly.const(1)
    s3 = al + be + ga + 3
    uxx = u.diff_x().diff_x()
    uyy = u.diff_y().diff_y()
    uxy = u.diff_x().diff_y()
    ux = u.diff_x()
    uy = u.diff_y()
    nn = Fraction(total_degree)
    return ((x * x - one) * uxx + (y * y - one) * uyy
            + (x + one) * (y - one) * uxy * 2
            + (x * s3 + one * (al - be + ga + 1)) * ux
            + (y * s3 + one * (al - be - ga - 1)) * uy
            - u * (nn * (al + be + ga + nn + 2)))


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
