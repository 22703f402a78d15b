"""The exact integer kernel of the Jackson moment engine (`MomentTable` in
`bigqjacobi`): the weight's mass, one ratio of infinite q-Pochhammer
products whose factors are all positive, as an integer pair (mantissa,
exponent) meaning m 2^e, within a stated bound that the tests check
against exact partial products.  Nothing here rounds to a float field."""

import math
from fractions import Fraction

#: the most steps below its switch index that `_ladder` takes: a q nearer 1
#: is refused (about 1 - 1e-5 for the weight's mass)
MAX_STEPS = 1 << 20


def _scaled(x: int, y: int, width: int) -> tuple:
    """(floor(x 2^s / y), s) for integers x >= 0, y > 0, with s chosen so
    that a nonzero quotient has width or width + 1 bits: one truncation,
    under 2^(1 - width) of the quotient."""
    s = width + y.bit_length() - x.bit_length()
    return ((x << s) // y if s >= 0 else (x >> -s) // y), s


def _euler(zn: int, zd: int, q: Fraction, F: int) -> int:
    """(x; q)_inf 2^F, x = zn / zd (zd > 0) with |x| <= (1 - q) / 4, by
    Euler's series sum_n (-1)^n q^C(n,2) x^n / (q; q)_n (Gasper & Rahman,
    2004, (1.3.16)).  Term n + 1 is term n times -x q^n / (1 - q^(n+1)),
    at most a quarter of it, each truncated toward zero (under a unit; so
    a term is off by under 4/3 units), and the sum stops before the first
    term of at most 2 units (its tail is then under 9/2).  At most F/2 +
    2 terms are summed, and the value lies in [2/3, 4/3], so the result is
    within (F + 8) 2^-F of it, relative."""
    qn, qd = q.numerator, q.denominator
    total = t = 1 << F
    a, b = 1, qd           # qn^n and qd^(n+1)
    while True:
        v = t * zn * a * qd
        den = zd * (b - a * qn)
        t = -(v // den) if v > 0 else -v // den
        if abs(t) <= 2:
            return total
        total += t
        a, b = a * qn, b * qd


def _ladder(ups, downs, q: Fraction, prec: int) -> tuple:
    """V = prod_(z in ups) (z; q)_inf / prod_(z in downs) (z; q)_inf as an
    integer pair (m, e), |m 2^e - V| < 2^-prec V, for n exact rationals z <
    1 (refused otherwise: every factor 1 - z q^j, j >= 0, is then positive)
    and 0 < q = u/v < 1.

    Fixed point at W bits.  q^j is Q_j 2^-W, Q_0 = 2^W and Q_(j+1) =
    floor(Q_j u / v), under q^j 2^W by less than 1/(1 - q) units for every
    j; z q^j is floor(Z Q_j 2^-W) units, Z = floor(z 2^W), within |z|/(1 -
    q) + 2 units.  Every factor is at least 1 - z+ (z+ the largest z > 0,
    else 0), so each is within c 2^-W of itself, relative, where c = (S/(1 -
    q) + 2) / ((1 - q)(1 - z+)) and S = sum |z|: no integer grows with j.

    The factors 1 - z q^j, j < K, go into a running product, truncated to
    W bits once a step; K is the least j with 8 S Q_j <= (1 - q) 2^W, so
    S q^K <= (1 - q)/4, and each (z q^K; q)_inf is Euler's series
    (`_euler`, F = W + bitlen(n (W + 64)) + 2 bits, each within 2^-(W+2) /
    n) at x = floor(Z Q_K 2^-W) 2^-W, which |d ln (x; q)_inf / dx| <= 4/(3
    (1 - q)) moves by under (4/3) c 2^-W.  As q^j <= e^(-(1 - q) j), K <= k
    = floor(ln(8 S / (1 - q)) / (1 - q)) + 2, so with W = prec + 1 +
    bitlen((k + 2)(n c + 2)) the relative errors sum to under 2^-(prec+1)
    and V is within 2^-prec.  A ladder with k > MAX_STEPS is refused, and
    so near q = 1 a ladder takes O(k) steps on integers of O(W) bits."""
    zs = ups + downs
    if any(z >= 1 for z in zs):
        raise ValueError(f"the ladder needs z < 1 for every z, got z = {', '.join(map(str, zs))}")
    u, v = q.numerator, q.denominator
    S, r = sum(map(abs, zs)), 1 - q
    L = math.log(8 * S.numerator * r.denominator) - math.log(S.denominator * r.numerator) \
        if 8 * S > r else 0.0
    if L > MAX_STEPS * r:
        raise ValueError(f"q={q} is too near 1: the ladder would take over {MAX_STEPS} steps")
    k = int(L / r) + 2
    c = (S / r + 2) / (r * (1 - max([0, *zs])))
    W = prec + 1 + ((k + 2) * (len(zs) * math.ceil(c) + 2)).bit_length()
    F = W + (len(zs) * (W + 64)).bit_length() + 2
    one = 1 << W
    Zu = [math.floor(z * one) for z in ups]
    Zd = [math.floor(z * one) for z in downs]
    extra = len(downs) - len(ups)
    stop, far = 8 * S.numerator * v, S.denominator * (v - u) << W
    Q, m, e = one, one, -W
    while stop * Q > far:
        num = den = 1
        for Z in Zu:
            num *= one - (Z * Q >> W)
        for Z in Zd:
            den *= one - (Z * Q >> W)
        m, s = _scaled(m * num, den, W)
        e += W * extra - s
        Q = Q * u // v
    num = den = 1
    for Z in Zu:
        num *= _euler(Z * Q >> W, one, q, F)
    for Z in Zd:
        den *= _euler(Z * Q >> W, one, q, F)
    m, s = _scaled(m * num, den, W)
    return m, e + F * extra - s
