"""Exact integer kernels of the Jackson moment engine (`MomentTable` in
`bigqjacobi`).  Every value is an integer pair (mantissa, exponent) meaning
m 2^e; nothing here rounds to a float field.  Ladders of infinite
q-Pochhammer ratios from exact-rational steps, power sums of node powers,
and correlations of two sequences as the slots of one Kronecker product,
read from two products of half-width packings, each with its truncation
bound stated and checked exactly in the tests."""

import itertools
import math
import operator
from fractions import Fraction


def _scaled(x: int, y: int, width: int) -> tuple:
    """(floor(x 2^s / y), s) for integers x >= 0, y > 0, with s chosen so
    that a nonzero quotient has width or width + 1 bits: one truncation,
    under 2^(1 - width) of the quotient."""
    s = width + y.bit_length() - x.bit_length()
    return ((x << s) // y if s >= 0 else (x >> -s) // y), s


def _quotient(ups, downs, width: int) -> tuple:
    """prod(ups) / prod(downs) of integer pairs (m, e) as one pair of width
    or width + 1 bits, truncated toward zero once: within 2^(1 - width) of
    the exact quotient.  A zero in `downs` raises ZeroDivisionError."""
    num, den = math.prod(m for m, _ in ups), math.prod(m for m, _ in downs)
    if not den:
        raise ZeroDivisionError("a quotient of integer pairs with a zero divisor")
    m, s = _scaled(abs(num), abs(den), width)
    return (-m if (num < 0) != (den < 0) else m,
            sum(e for _, e in ups) - sum(e for _, e in downs) - s)


def _geometric(v: Fraction, q: Fraction, n: int, width: int) -> list:
    """[v q^k for k = 0..n-1], exact rationals, as `_scaled` pairs of
    width or width + 1 bits (exact when a denominator is a power of two)."""
    vn, vd, out = v.numerator, v.denominator, []
    for _ in range(n):
        m, s = _scaled(abs(vn), vd, width)
        out.append((-m if vn < 0 else m, -s))
        vn, vd = vn * q.numerator, vd * q.denominator
    return out


def _ladder(ups, downs, q: Fraction, lo: int, hi: int, prec: int) -> list:
    """[V(k) for k = lo..hi] as integer pairs (m, e), m 2^e, where

        V(k) = prod_(z in ups) (z q^k; q)_inf / prod_(z in downs) (z q^k; q)_inf

    for exact rationals z and 0 < q < 1; a factor 1 - z q^j of `downs`
    that is exactly zero is left out (the continuous limit of a 0/0
    weight), and one of `ups` makes V zero from there down.

    V(k) = V(k + 1) f(k), f(j) the exact rational
    prod (1 - z q^j)^(+-1), so the values come from one running product
    taken down from the cut J >= hi, the least with 2 S q^(J+1) <= (1 - q)
    2^-W, S = sum |z|: each step multiplies by f(j) with one truncation
    to W = prec + g bits, g = bitlen(J - lo + 1) + 2.  The J - lo + 1
    truncations (each under 2^(1 - W)) stay under 2^(-prec-1) and the cut
    tail prod_(j > J) f(j) moves V by under 2^(1 - W), so

        |V(k) - exact| < 2^-prec |exact|   for every k."""
    qn, qd = q.numerator, q.denominator
    ups = [(z.numerator, z.denominator) for z in ups]
    downs = [(z.numerator, z.denominator) for z in downs]
    S = sum(abs(Fraction(n, d)) for n, d in ups + downs)
    g = 3
    while True:
        W = prec + g
        # least J >= hi with q^(J+1) <= (1 - q) 2^-W / (2 S)
        bound = (1 - q) / (2 * S * 2**W)
        J = max(hi, math.ceil((math.log2(bound.numerator) - math.log2(bound.denominator))
                              / (math.log2(qn) - math.log2(qd))) - 1)
        while q ** (J + 1) > bound:
            J += 1
        while J > hi and q ** J <= bound:
            J -= 1
        if (J - lo + 1).bit_length() + 2 <= g:
            break
        g = (J - lo + 1).bit_length() + 2
    top = max(J, -lo)
    pn, pd = [1], [1]
    for _ in range(top):
        pn.append(pn[-1] * qn)
        pd.append(pd[-1] * qd)
    out = []
    m, e, sign = 1, 0, 1
    for j in range(J, lo - 1, -1):
        # z q^j = zn A / (zd B), so 1 - z q^j = (zd B - zn A) / (zd B); the
        # B of each kept factor cancels down to B^(kept downs - ups)
        A, B = (pn[j], pd[j]) if j >= 0 else (pd[-j], pn[-j])
        num = den = 1
        for zn, zd in ups:
            num, den = num * (zd * B - zn * A), den * zd
        kept = 0
        for zn, zd in downs:
            u = zd * B - zn * A
            if u:
                num, den, kept = num * zd, den * u, kept + 1
        if kept > len(ups):
            num *= B ** (kept - len(ups))
        elif kept < len(ups):
            den *= B ** (len(ups) - kept)
        if not num:
            break
        if (num < 0) != (den < 0):
            sign = -sign
        m, s = _scaled(m * abs(num), abs(den), W)
        e -= s
        if j <= hi:
            out.append((sign * m, e))
    out += [(0, 0)] * (hi - lo + 1 - len(out))
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


def _spread(mags) -> tuple:
    """(span, rise) of a list of binades: max - min, and the most that one
    exceeds an earlier one."""
    rise = max(map(operator.sub, mags, itertools.accumulate(mags, min)), default=0)
    return max(mags, default=0) - min(mags, default=0), rise


def _slope(pairs) -> int:
    """The slope h that best levels the nonzero pairs (m, e) for
    `_Piece`: of the two integers nearest their mean fall in bits per
    step, the one that gives v_k 2^(hk) the least span plus rise."""
    mags = [(k, e + m.bit_length()) for k, (m, e) in enumerate(pairs) if m]
    if len(mags) < 2:
        return 0
    fall = (mags[0][1] - mags[-1][1]) // (mags[-1][0] - mags[0][0])
    return min((fall, fall + 1), key=lambda h: sum(_spread([e + h * k for k, e in mags])))


def _fixed(values, point: int) -> list:
    """|m| 2^e on the binary point 2^point, truncated to integers."""
    return [m << (e - point) if e >= point else m >> (point - e) for m, e in values]


def _sign(ms) -> int:
    """The one sign of the nonzero integers ms (0 if there are none)."""
    signs = {m > 0 for m in ms if m}
    if len(signs) > 1:
        raise ValueError("a correlated sequence needs one sign")
    return (1 if True in signs else -1) if signs else 0


def _pack(values, size: int) -> int:
    """Nonnegative integers, each under 2^(8 size), as one integer with
    value k at bit 8 size k."""
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


class _Piece:
    """One lattice piece of a correlation, prepared once for many a:
    `correlate` gives [sum_r a_r b_(r+l) for l in lags] as exact pairs (C,
    E), C 2^E, over the r with r + l inside b, as the slots of the product
    of two packed polynomials (Kronecker substitution).  b is a list of
    integer pairs (m, e), and each a comes as its n_a mantissas and n_a
    exponents; b and each a have one sign, zeros allowed.

    b_k 2^(hk), levelled by `_slope`, keeps prec + g + span bits at its
    least binade and a_r 2^(-hr) prec + g + rise at its largest, A (the
    `_spread` of the binades of the b that the lags reach; g =
    bitlen(min(n_a, len b)) + 2), and a's zero tail is trimmed.  Lag l
    then carries the exact 2^(-hl), so

        |C 2^E - sum| < 2^-prec (|sum| + A |b_(r+l)| 2^(hr))

    for the first r of lag l with b_(r+l) != 0: under 2^(1-prec) |sum|
    when that r gives A.

    A product slot holds under 2^(8 nb).  Its polynomials are evaluated at
    +-Y, Y = 2^(8w), w = ceil(nb/2), from half-width packings: the even
    slots and the odd slots, each at a stride of 2w bytes (Y^2), so that
    A(+-Y) = A_even(Y^2) +- Y A_odd(Y^2).  Of h+- = A(+-Y) B(+-Y), (h+ +
    h-)/2 holds the even slots of the product and (h+ - h-)/(2Y) its odd
    ones, each at stride Y^2 = 2^(16w) >= 2^(8 nb): the integers of the
    one full-width product, from two products of half its width (Harvey's
    multipoint Kronecker substitution).

    b is levelled, fixed and packed here, once; `correlate` packs only a,
    and drops the b slots past max(lags) + len(a), which no lag reaches,
    by shifting the two packings of b, each by half the slots, before it
    multiplies."""

    def __init__(self, b, h: int, lags, n_a: int, prec: int):
        self.h, self.lags, self.sign = h, lags, _sign(m for m, _ in b)
        lo, hi = max(min(lags, default=0), 0), min(max(lags, default=0) + n_a, len(b))
        b = [(abs(m), e + h * k) for k, (m, e) in enumerate(b)][lo:hi]
        mags = [e + m.bit_length() for m, e in b if m]
        if not (lags and mags):
            self.sign = 0
            return
        span, rise = _spread(mags)
        width = prec + min(n_a, len(b)).bit_length() + 2
        self.wa, wb = width + rise, width + span
        # a slot holds under min(n_a, len b) products, each under 2^(wa + wb)
        nb = (self.wa + wb + n_a.bit_length() + 7) // 8
        self.w = w = (nb + 1) // 2
        beta = _fixed(b, max(mags) - wb)[::-1]
        self.halves = _pack(beta[0::2], 2 * w), _pack(beta[1::2], 2 * w)
        self.n_b, self.reach = len(beta), max(lags) - lo
        self.slots = [len(beta) - 1 - (lag - lo) for lag in lags]
        self.exps = [max(mags) - wb - h * lag for lag in lags]

    def correlate(self, ms, es) -> list:
        """[sum_r a_r b_(r+l) for l in lags] for a_r = ms[r] 2^es[r]."""
        sign = _sign(ms) * self.sign
        if not sign:
            return [(0, 0)] * len(self.lags)
        h, w = self.h, self.w
        es = [e - h * r for r, e in enumerate(es)]
        point = max(e + m.bit_length() for m, e in zip(ms, es) if m) - self.wa
        alpha = _fixed(zip(map(abs, ms), es), point)
        while not alpha[-1]:
            alpha.pop()
        # b slots at or past reach + len(alpha) meet no lag's a: shift them
        # out, and an odd count swaps the parities of the slots left
        skip = max(self.n_b - self.reach - len(alpha), 0)
        stride, odd = 2 * w, skip % 2
        be = self.halves[odd] >> 8 * stride * (skip // 2)
        bo = self.halves[1 - odd] >> 8 * stride * ((skip + 1) // 2) << 8 * w
        ae, ao = _pack(alpha[0::2], stride), _pack(alpha[1::2], stride) << 8 * w
        plus, minus = (ae + ao) * (be + bo), (ae - ao) * (be - bo)
        n = len(alpha) + self.n_b - skip - 1
        size = stride * ((n + 1) // 2)
        bufs = (memoryview(((plus + minus) >> 1).to_bytes(size, "little")),
                memoryview(((plus - minus) >> (8 * w + 1)).to_bytes(size, "little")))
        return [(sign * int.from_bytes(bufs[i % 2][stride * (i // 2):stride * (i // 2 + 1)],
                                       "little") if 0 <= i < n else 0, point + e)
                for i, e in zip((slot - skip for slot in self.slots), self.exps)]


def _products(us, vs) -> list:
    """Exact products of paired (mantissa, exponent) integer pairs."""
    return [(mu * mv, eu + ev) for (mu, eu), (mv, ev) in zip(us, vs)]
