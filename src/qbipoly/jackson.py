"""Exact integer kernels of the Jackson moment engine (`MomentTable` in
`bigqjacobi`).  Every value is an integer pair (mantissa, exponent) meaning
m 2^e; nothing here rounds to a float field.  Ladders of infinite
q-Pochhammer ratios whose factors are all positive (Euler's series at a
switch index past the top index, exact-rational steps below it) and power
sums of node powers, each with its truncation bound stated and checked
exactly in the tests."""

import math
from fractions import Fraction


def _scaled(x: int, y: int, width: int) -> tuple:
    """(floor(x 2^s / y), s) for integers x >= 0, y > 0, with s chosen so
    that a nonzero quotient has width or width + 1 bits: one truncation,
    under 2^(1 - width) of the quotient."""
    s = width + y.bit_length() - x.bit_length()
    return ((x << s) // y if s >= 0 else (x >> -s) // y), s


def _geometric(v: Fraction, q: Fraction, n: int, width: int) -> list:
    """[v q^k for k = 0..n-1], exact rationals, as `_scaled` pairs of
    width or width + 1 bits (exact when a denominator is a power of two)."""
    vn, vd, out = v.numerator, v.denominator, []
    for _ in range(n):
        m, s = _scaled(abs(vn), vd, width)
        out.append((-m if vn < 0 else m, -s))
        vn, vd = vn * q.numerator, vd * q.denominator
    return out


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


def _ladder(ups, downs, q: Fraction, lo: int, hi: int, prec: int) -> list:
    """[V(k) for k = lo..hi] as integer pairs (m, e), m 2^e, where

        V(k) = prod_(z in ups) (z q^k; q)_inf / prod_(z in downs) (z q^k; q)_inf

    for exact rationals z, 0 < q < 1 and 0 <= lo, with every z q^lo < 1
    (refused otherwise): each factor 1 - z q^j, j >= lo, is then positive.

    Past the switch index K, the least index >= hi + 1 with S q^K <= (1 -
    q)/4, S = sum |z|, V(K) is the quotient of each factor's Euler series
    (`_euler`, F = W + bitlen(n (W + 64)) + 2 bits for n factors, each
    within 2^-(W + 2) / n), truncated once to W bits: within 2^(2 - W).
    Below K, V(k) = V(k + 1) f(k), f(j) the exact rational
    prod (1 - z q^j)^(+-1), one running product taken down to lo: each
    step multiplies by f(j) with one truncation to W = prec + g bits, g =
    bitlen(K - lo + 2) + 2, under 2^(1 - W).  V(K) counts as two of those,
    and the K - lo + 2 of them stay under 2^(-prec-1), so

        |V(k) - exact| < 2^-prec |exact|   for every k."""
    if lo < 0 or any(z * q**lo >= 1 for z in ups + downs):
        raise ValueError(f"the ladder needs lo >= 0 and z q^lo < 1 for every z, got lo={lo}, "
                         f"z = {', '.join(map(str, ups + downs))}")
    qn, qd = q.numerator, q.denominator
    ups = [(z.numerator, z.denominator) for z in ups]
    downs = [(z.numerator, z.denominator) for z in downs]
    S = sum(abs(Fraction(n, d)) for n, d in ups + downs)
    K = first = hi + 1
    bound = (1 - q) / 4
    if S and S * q**K > bound:
        # least K with q^K <= bound / S, from a logarithmic estimate
        r = bound / S
        K = max(first, math.ceil((math.log2(r.numerator) - math.log2(r.denominator))
                                 / (math.log2(qn) - math.log2(qd))))
        while S * q**K > bound:
            K += 1
        while K > first and S * q ** (K - 1) <= bound:
            K -= 1
    W = prec + (K - lo + 2).bit_length() + 2
    F = W + (len(ups + downs) * (W + 64)).bit_length() + 2
    # q^j = A / B at j = K, stepped down with j
    A, B = qn**K, qd**K
    num = den = 1
    for zn, zd in ups:
        num *= _euler(zn * A, zd * B, q, F)
    for zn, zd in downs:
        den *= _euler(zn * A, zd * B, q, F)
    extra = len(downs) - len(ups)
    m, s = _scaled(num, den, W)
    e, out = F * extra - s, []
    for j in range(K - 1, lo - 1, -1):
        A, B = A // qn, B // qd
        # z q^j = zn A / (zd B), so 1 - z q^j = (zd B - zn A) / (zd B); the
        # B of the factors cancels down to B^(len(downs) - len(ups))
        num, den = B ** max(extra, 0), B ** max(-extra, 0)
        for zn, zd in ups:
            num, den = num * (zd * B - zn * A), den * zd
        for zn, zd in downs:
            num, den = num * zd, den * (zd * B - zn * A)
        m, s = _scaled(m * num, den, W)
        e -= s
        if j <= hi:
            out.append((m, e))
    out.reverse()
    return out


def _powers(terms, bases, degree: int, width: int):
    """Yield [t_k x_k^i] for i = 1..degree as (mantissas, exponents) lists
    from integer pairs (mantissa, exponent) t_k and x_k != 0.  Each term is
    held at `width` bits; a power step is a product and a shift, so it
    truncates by under a unit."""
    ms = [(m << width) >> m.bit_length() for m, _ in terms]
    es = [e + m.bit_length() - width for m, e in terms]
    bs = [b for b, _ in bases]
    shifts = [b.bit_length() - 1 for b in bs]
    steps = [f + s for (_, f), s in zip(bases, shifts)]
    for _ in range(degree):
        ms = [(m * b) >> s for m, b, s in zip(ms, bs, shifts)]
        es = [e + k for e, k in zip(es, steps)]
        yield ms, es


def _power_sums(terms, bases, degree: int, prec: int, count: int) -> list:
    """[sum_k t_k x_k^i for i = 1..count <= degree] as exact pairs (S, E),
    S 2^E, from integer pairs (mantissa, exponent) t_k and x_k != 0; zero
    terms are skipped.  Terms are integers of at least prec + g bits, g =
    bitlen(n (degree + 2)) + 1 for n terms (`_powers`), whatever the count.
    Sum i has the binary point of its largest exponent, at least prec + g
    - 1 bits below its largest term, so the truncations (under a unit per
    step and per alignment) total under 2^-prec times that term."""
    nodes = [(t, x) for t, x in zip(terms, bases) if t[0]]
    if not nodes:
        return [(0, 0)] * count
    width = prec + (len(nodes) * (degree + 2)).bit_length() + 1
    out = []
    for ms, es in _powers(*zip(*nodes), count, width):
        top = max(es)
        out.append((sum(m >> (top - e) for m, e in zip(ms, es)), top))
    return out


def _products(us, vs) -> list:
    """Exact products of paired (mantissa, exponent) integer pairs."""
    return [(mu * mv, eu + ev) for (mu, eu), (mv, ev) in zip(us, vs)]
