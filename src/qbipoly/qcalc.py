"""q-arithmetic primitives, partial q-difference operators, Jackson
q-integration, and the (q-)hypergeometric series evaluators.

Operators act on BiPolys exactly (monomial-by-monomial), on callback-style
lattice evaluators (for weights), and on precomputed sample tables.  All
float-lane summations run in ascending index order at the field's working
precision, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .scalars import BackendMismatch, Field, FloatField, as_fraction


@dataclass(frozen=True)
class QParam:
    """The lattice base q, 0 < q < 1."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        if not (0 < self.q < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {self.q}")


@dataclass(frozen=True)
class QDomain:
    """Iterated q-integration domain: outer y in (y_lo, y_hi), inner x between
    affine limits alpha + beta*y per endpoint."""

    y_lo: Fraction
    y_hi: Fraction
    x_lo: tuple  # (alpha, beta)
    x_hi: tuple

    def x_limits(self, yv):
        (a0, b0), (a1, b1) = self.x_lo, self.x_hi
        return a0 + b0 * yv, a1 + b1 * yv


def qnum(z: int, qp: QParam) -> Fraction:
    """The q-number (q^z - 1)/(q - 1); defined for negative z as well."""
    q = qp.q
    return (q**z - 1) / (q - 1)


def qpochhammer(a, qp: QParam, k: int):
    """Finite q-shifted factorial (a; q)_k = prod_{j<k} (1 - a q^j)."""
    if k < 0:
        raise ValueError("qpochhammer needs k >= 0")
    q = qp.q
    prod = a * 0 + 1  # one in a's ring (Fraction or mpf)
    pw = a * 0 + 1
    for _ in range(k):
        prod *= 1 - a * pw
        pw *= q
    return prod


def qpochhammer_inf(a, qp: QParam, field: FloatField, max_terms: int | None = None):
    """Infinite q-shifted factorial, truncated once |a| q^j drops below the
    field's geometric-tail threshold (tail factor bounded by 1)."""
    if not isinstance(field, FloatField):
        raise BackendMismatch("infinite q-Pochhammer requires the float backend")
    with field.workprec():
        q = field.of(qp.q)
        av = field.of(a) if isinstance(a, (int, Fraction, str)) else a
        prod = field.one
        term = av
        j = 0
        while abs(term) >= field.tail_eps:
            prod *= 1 - term
            if prod == 0:
                break
            term *= q
            j += 1
            if max_terms is not None and j >= max_terms:
                break
        return prod


def qbinomial(n: int, k: int, qp: QParam) -> Fraction:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k})."""
    if not 0 <= k <= n:
        raise ValueError(f"qbinomial needs 0 <= k <= n, got n={n}, k={k}")
    q = qp.q
    num = qpochhammer(q, qp, n)
    return num / (qpochhammer(q, qp, k) * qpochhammer(q, qp, n - k))


# ---------------------------------------------------------------------------
# partial q-difference operators on polynomials
# ---------------------------------------------------------------------------

def dq1(f: BiPoly, qp: QParam) -> BiPoly:
    """Forward operator along x: (f(qx,y) - f(x,y)) / ((q-1)x)."""
    out = {}
    for (i, j), c in f.coeffs.items():
        if i:
            out[(i - 1, j)] = out.get((i - 1, j), 0) + c * qnum(i, qp)
    return BiPoly(out, f.field)


def dq2(f: BiPoly, qp: QParam) -> BiPoly:
    """Forward operator along y."""
    out = {}
    for (i, j), c in f.coeffs.items():
        if j:
            out[(i, j - 1)] = out.get((i, j - 1), 0) + c * qnum(j, qp)
    return BiPoly(out, f.field)


def dqm1(f: BiPoly, qp: QParam) -> BiPoly:
    """Backward operator along x: q(f(x,y) - f(x/q,y)) / ((q-1)x).

    On monomials, x^i -> q^{1-i} [i]_q x^{i-1}.
    """
    q = qp.q
    out = {}
    for (i, j), c in f.coeffs.items():
        if i:
            out[(i - 1, j)] = out.get((i - 1, j), 0) + c * q ** (1 - i) * qnum(i, qp)
    return BiPoly(out, f.field)


def dqm2(f: BiPoly, qp: QParam) -> BiPoly:
    q = qp.q
    out = {}
    for (i, j), c in f.coeffs.items():
        if j:
            out[(i, j - 1)] = out.get((i, j - 1), 0) + c * q ** (1 - j) * qnum(j, qp)
    return BiPoly(out, f.field)


def dq_poly(axis: int, direction: str, f: BiPoly, qp: QParam) -> BiPoly:
    """Dispatch form: axis in (1, 2), direction 'forward' | 'backward'."""
    table = {(1, "forward"): dq1, (2, "forward"): dq2,
             (1, "backward"): dqm1, (2, "backward"): dqm2}
    try:
        op = table[(axis, direction)]
    except KeyError:
        raise ValueError(f"no operator for axis={axis}, direction={direction!r}")
    return op(f, qp)


def dq1_ratfn(r, qp: QParam):
    """Exact difference quotient of a RationalFn along x."""
    q = qp.q
    shifted = r.scale_args(q, 1)
    diff = shifted - r
    den_x = diff.den * BiPoly.monomial(1, 0, q - 1, diff.num.field)
    from .bipoly import RationalFn

    return RationalFn(diff.num, den_x)


def dq2_ratfn(r, qp: QParam):
    q = qp.q
    shifted = r.scale_args(1, q)
    diff = shifted - r
    den_y = diff.den * BiPoly.monomial(0, 1, q - 1, diff.num.field)
    from .bipoly import RationalFn

    return RationalFn(diff.num, den_y)


# ---------------------------------------------------------------------------
# grid / callback forms (weights are not polynomials)
# ---------------------------------------------------------------------------

def _difference_table(fvals, x0, y0, p, n: int, m: int):
    """Iterated difference quotients (f(p x) - f(x)) / ((p - 1) x), n along x
    then m along y, on samples fvals[r][s] = f(p^r x0, p^s y0); returns the
    table at (p^r x0, p^s y0), n rows and m columns smaller."""
    if len(fvals) < n + 1 or any(len(row) < m + 1 for row in fvals):
        raise ValueError("sample table too small for the requested order")
    work = [row[:] for row in fvals]
    for _ in range(n):
        work = [[(hi - lo) / ((p - 1) * x0 * p**r) for lo, hi in zip(work[r], work[r + 1])]
                for r in range(len(work) - 1)]
    for _ in range(m):
        steps = [(p - 1) * y0 * p**s for s in range(len(work[0]) - 1)]
        work = [[(row[s + 1] - row[s]) / h for s, h in enumerate(steps)] for row in work]
    return work


def dq_nm_table(fvals, x0, y0, qp: QParam, n: int, m: int):
    """Iterated forward differences on samples fvals[r][s] = f(q^r x0, q^s y0).

    Returns the table t[r][s] = [Dq1]^n [Dq2]^m f at (q^r x0, q^s y0), with n
    fewer rows and m fewer columns than fvals; the corner t[0][0] is the
    value at (x0, y0).
    """
    return _difference_table(fvals, x0, y0, qp.q, n, m)


def dqm_nm_table(fvals, x0, y0, qp: QParam, n: int, m: int):
    """Iterated backward differences on samples fvals[r][s] = f(q^-r x0, q^-s y0).

    The backward quotient q(f(x) - f(x/q))/((q-1)x) is the forward quotient
    of base 1/q, so the table t[r][s] = [Dq^-1 axis1]^n [Dq^-1 axis2]^m f at
    (q^-r x0, q^-s y0) comes from the same kernel; t[0][0] is the value at
    (x0, y0).
    """
    return _difference_table(fvals, x0, y0, 1 / qp.q, n, m)


def dq_nm_at(f, x0, y0, qp: QParam, n: int, m: int):
    """Callback form of dq_nm_table: f is evaluated on the forward stencil."""
    q = qp.q
    fvals = [[f(x0 * q**r, y0 * q**s) for s in range(m + 1)] for r in range(n + 1)]
    return dq_nm_table(fvals, x0, y0, qp, n, m)[0][0]


def dqm_nm_at(f, x0, y0, qp: QParam, n: int, m: int):
    """Callback form of dqm_nm_table: f is evaluated on the backward stencil
    (q^-r x0, q^-s y0)."""
    q = qp.q
    fvals = [[f(x0 / q**r, y0 / q**s) for s in range(m + 1)] for r in range(n + 1)]
    return dqm_nm_table(fvals, x0, y0, qp, n, m)[0][0]


# ---------------------------------------------------------------------------
# operator relation report
# ---------------------------------------------------------------------------

def verify_operator_relations(qp: QParam, f: BiPoly, g: BiPoly | None = None) -> dict:
    """Check the commutation/conversion identities and both product rules as
    exact polynomial identities; returns {identity name: bool}."""
    if not f.field.exact:
        raise BackendMismatch("operator identities are checked on the exact backend")
    if g is None:
        g = BiPoly({(2, 1): 1, (1, 0): 1, (0, 0): 2}, f.field)
    q = qp.q
    x = BiPoly.x(f.field)
    y = BiPoly.y(f.field)
    g_qx = g.scale_args(q, 1)
    g_qy = g.scale_args(1, q)
    report = {
        "commute_dq1_dqm2": dq1(dqm2(f, qp), qp) == dqm2(dq1(f, qp), qp),
        "commute_dq2_dqm1": dq2(dqm1(f, qp), qp) == dqm1(dq2(f, qp), qp),
        "commute_dq1_dq2": dq1(dq2(f, qp), qp) == dq2(dq1(f, qp), qp),
        "commute_dqm1_dqm2": dqm1(dqm2(f, qp), qp) == dqm2(dqm1(f, qp), qp),
        "convert_axis1": dqm1(f, qp) == dq1(f, qp) + x * dq1(dqm1(f, qp), qp) * (1 - q),
        "convert_axis2": dqm2(f, qp) == dq2(f, qp) + y * dq2(dqm2(f, qp), qp) * (1 - q),
        "product_rule_axis1": dq1(f * g, qp) == f * dq1(g, qp) + g_qx * dq1(f, qp),
        "product_rule_axis2": dq2(f * g, qp) == f * dq2(g, qp) + g_qy * dq2(f, qp),
    }
    return report


# ---------------------------------------------------------------------------
# Jackson q-integration
# ---------------------------------------------------------------------------

def jackson_integral_1d(f, upper, qp: QParam, truncation: int, field: Field):
    """Truncated Jackson integral from 0 to `upper`:
    (1-q) * upper * sum_{j=0..N} q^j f(upper q^j)."""
    q = field.of(qp.q)
    a = field.of(upper) if isinstance(upper, (int, Fraction, str)) else upper
    if field.is_zero(a):
        return field.of(0)
    total = field.of(0)
    w = field.of(1)
    for _ in range(truncation + 1):
        v = f(a * w)
        total += w * v
        w *= q
    return (1 - q) * a * total


def jackson_integral_interval(f, lo, hi, qp: QParam, truncation: int, field: Field):
    """Interval convention: int_lo^hi = int_0^hi - int_0^lo (endpoints of
    either sign)."""
    return jackson_integral_1d(f, hi, qp, truncation, field) - jackson_integral_1d(
        f, lo, qp, truncation, field
    )


def jackson_integral_double(f, domain: QDomain, qp: QParam, truncation: int, field: Field):
    """Iterated Jackson integral of f(x, y) over a QDomain: outer y then inner
    x with the inner limits re-evaluated at every outer node."""

    def outer(yv):
        xlo, xhi = domain.x_limits(yv)
        return jackson_integral_interval(lambda xv: f(xv, yv), xlo, xhi, qp, truncation, field)

    ylo = field.of(domain.y_lo)
    yhi = field.of(domain.y_hi)
    return jackson_integral_interval(outer, ylo, yhi, qp, truncation, field)


# ---------------------------------------------------------------------------
# basic hypergeometric series (terminating)
# ---------------------------------------------------------------------------

class SeriesError(ValueError):
    pass


def phi_rs(num_params, den_params, qp: QParam, z, max_terms: int = 2000):
    """Terminating r-phi-s basic hypergeometric sum.

    Term k carries prod (a;q)_k / ((q;q)_k prod (b;q)_k) * z^k and, for
    s+1 > r, the usual ((-1)^k q^C(k,2))^{1+s-r} factor.  Termination is by a
    numerator q-Pochhammer reaching exactly zero; a denominator Pochhammer
    vanishing first is an error.
    """
    q = qp.q
    r, s = len(num_params), len(den_params)
    excess = 1 + s - r
    num_p = [z * 0 + 1 for _ in num_params]
    den_p = [z * 0 + 1 for _ in den_params]
    qfac = z * 0 + 1
    total = z * 0
    zk = z * 0 + 1
    qpow = Fraction(1)
    qck = Fraction(1)
    for k in range(max_terms + 1):
        term = qck if excess else 1
        for p in num_p:
            term = term * p
        dlow = qfac
        for p in den_p:
            dlow = dlow * p
        if dlow == 0:
            raise SeriesError(f"denominator q-Pochhammer vanished at term {k} before termination")
        total = total + term * zk / dlow
        if any(p == 0 for p in num_p):
            return total
        # advance Pochhammers and power factors to index k+1
        for idx, a in enumerate(num_params):
            num_p[idx] = num_p[idx] * (1 - a * qpow)
        for idx, b in enumerate(den_params):
            den_p[idx] = den_p[idx] * (1 - b * qpow)
        qfac = qfac * (1 - q * qpow)
        zk = zk * z
        if excess:
            qck = qck * ((-1) ** excess) * (qpow**excess)
        qpow = qpow * q
    raise SeriesError("series did not terminate within max_terms")


def phi_bivariate(joint_num, xnum, ynum, joint_den, xden, yden, qp: QParam, xv, yv,
                  tags=(0, 0, 0), max_terms: int = 300):
    """Generalized bivariate basic hypergeometric double sum with joint (m+n)
    Pochhammers, separate per-direction Pochhammers, and the
    q^{i C(m,2) + j C(n,2) + k m n} factor given by `tags`.

    Both directions must terminate (a vanishing numerator Pochhammer).
    """
    q = qp.q
    ti, tj, tk = tags

    def direction_bound(params, label):
        prods = [Fraction(1) for _ in params]
        qpow = Fraction(1)
        for idx in range(max_terms + 1):
            if any(p == 0 for p in prods):
                return idx  # terms vanish from this index on? no: zero appears at idx -> last nonzero is idx-1
            for t in range(len(params)):
                prods[t] *= 1 - params[t] * qpow
            qpow *= q
        raise SeriesError(f"{label} direction does not terminate")

    # bound = first index whose Pochhammer prefix is zero; sum runs below it
    mbound = direction_bound(list(xnum), "x")
    nbound = direction_bound(list(ynum), "y")

    total = Fraction(0)
    for mm in range(mbound):
        for nn in range(nbound):
            num = Fraction(1)
            for a in joint_num:
                num *= qpochhammer(a, qp, mm + nn)
            for a in xnum:
                num *= qpochhammer(a, qp, mm)
            for a in ynum:
                num *= qpochhammer(a, qp, nn)
            den = qpochhammer(q, qp, mm) * qpochhammer(q, qp, nn)
            for b in joint_den:
                den *= qpochhammer(b, qp, mm + nn)
            for b in xden:
                den *= qpochhammer(b, qp, mm)
            for b in yden:
                den *= qpochhammer(b, qp, nn)
            if den == 0:
                raise SeriesError(f"denominator vanished at (m,n)=({mm},{nn})")
            expo = ti * (mm * (mm - 1) // 2) + tj * (nn * (nn - 1) // 2) + tk * mm * nn
            total += num * (xv**mm) * (yv**nn) * q**expo / den
    return total


# ---------------------------------------------------------------------------
# classical terminating series (q -> 1 targets)
# ---------------------------------------------------------------------------

def pochhammer_rising(a, k: int):
    """(a)_k = a (a+1) ... (a+k-1)."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    prod = a * 0 + 1 if not isinstance(a, (int, Fraction)) else Fraction(1)
    for j in range(k):
        prod = prod * (a + j)
    return prod


def _termination_bound(params, max_terms=10000):
    bounds = [-int(p) for p in params if (isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1)) and p <= 0]
    if not bounds:
        raise SeriesError("no negative-integer numerator parameter; series does not terminate")
    return min(bounds)


def gauss_2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) with a or b a nonpositive integer; z may be a scalar or
    a BiPoly."""
    nmax = _termination_bound([a, b])
    total = z * 0
    for k in range(nmax + 1):
        coef = pochhammer_rising(a, k) * pochhammer_rising(b, k) / (
            pochhammer_rising(c, k) * pochhammer_rising(Fraction(1), k)
        )
        total = total + (z**k) * coef
    return total


def jacobi_poly(n: int, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}(x) = ((a+1)_n / n!) 2F1(-n, n+a+b+1; a+1; (1-x)/2)."""
    a = Fraction(a) if isinstance(a, int) else a
    b = Fraction(b) if isinstance(b, int) else b
    half = Fraction(1, 2)
    arg = (1 - x) * half if isinstance(x, (int, Fraction)) else (BiPoly.const(1, x.field) - x) * half
    lead = pochhammer_rising(a + 1, n) / pochhammer_rising(Fraction(1), n)
    return gauss_2f1_terminating(Fraction(-n), n + a + b + 1, a + 1, arg) * lead


def kampe_de_feriet(joint_num, xnum, ynum, joint_den, xden, yden, xv, yv):
    """Generalized Kampe de Feriet double sum; both separate numerator groups
    must contain a nonpositive integer.  Arguments may be scalars or BiPolys."""
    rbound = _termination_bound(list(xnum))
    sbound = _termination_bound(list(ynum))
    total = xv * 0
    for r in range(rbound + 1):
        for s in range(sbound + 1):
            num = Fraction(1)
            for p in joint_num:
                num *= pochhammer_rising(p, r + s)
            for p in xnum:
                num *= pochhammer_rising(p, r)
            for p in ynum:
                num *= pochhammer_rising(p, s)
            den = pochhammer_rising(Fraction(1), r) * pochhammer_rising(Fraction(1), s)
            for p in joint_den:
                den *= pochhammer_rising(p, r + s)
            for p in xden:
                den *= pochhammer_rising(p, r)
            for p in yden:
                den *= pochhammer_rising(p, s)
            if den == 0:
                raise SeriesError(f"denominator Pochhammer vanished at (r,s)=({r},{s})")
            total = total + (xv**r) * (yv**s) * (num / den)
    return total
