"""q-arithmetic primitives, partial q-difference operators, and the
(q-)hypergeometric series evaluators.

Operators act on BiPolys exactly (monomial-by-monomial).  `dq_nm_table`
takes their difference quotients of lattice samples in Fractions; no route
calls it, and it stays because the benchmark's span list names it.  The one
float-lane routine, the infinite q-Pochhammer of a field value, multiplies
its factors in ascending index order at the field's working precision, so
results are reproducible.  The moment engine does not call it: its one
Pochhammer ratio, the weight's mass, is a fixed-point integer ladder that
ends in Euler's series (`jackson._ladder`).
"""

import functools
import math
from fractions import Fraction

from .bipoly import BiPoly, from_form, reduced
from .scalars import FloatField, FrozenRecord, as_fraction


class QParam(FrozenRecord):
    """The lattice base q, 0 < q < 1."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        if not (0 < self.q < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {self.q}")


def qnum(z: int, qp: QParam) -> Fraction:
    """The q-number (q^z - 1)/(q - 1); defined for negative z as well."""
    q = qp.q
    return (q**z - 1) / (q - 1)


def power_exponent(v: Fraction, q: Fraction) -> int | None:
    """The integer k with q^k = v, or None (0 < q < 1).  In lowest terms
    q = u/w, so q^k is u^k/w^k in lowest terms, and w^-k/u^-k for k < 0:
    the size of v's denominator (of its numerator when v > 1) against w
    names the one candidate k, which one exact power then settles."""
    if v <= 0:
        return None
    logw = math.log(q.denominator)
    k = (round(math.log(v.denominator) / logw) if v < 1
         else -round(math.log(v.numerator) / logw))
    return k if q**k == v else None


def qpochhammer(a, qp: QParam, k: int):
    """Finite q-shifted factorial (a; q)_k = prod_{j<k} (1 - a q^j)."""
    if k < 0:
        raise ValueError("qpochhammer needs k >= 0")
    return math.prod((1 - a * qp.q**j for j in range(k)), start=a * 0 + 1)  # one in a's ring


def _key(a):
    """A table key: a Fraction's own hash takes a modular inverse."""
    return (a.numerator, a.denominator) if isinstance(a, Fraction) else a


class Rows:
    """One call's Pochhammer tables, formed on first read: per parameter a,
    its factors and its row (a)_0, ..., (a)_k of their running products (no
    division: a zero factor zeroes the row from its index on).  By default
    the factors are a + j (the rising (a)_k) and the series unit is 1.
    exponent(a) is the k for which factor(a, -k) vanishes, or None: a for
    an integer a here, so a <= 0 ends a series at index -a."""

    def __init__(self, factor=lambda a, j: a + j, unit=1,
                 exponent=lambda a: a.numerator if a.denominator == 1 else None):
        self.factor, self.unit, self.exponent = factor, unit, exponent
        self._factors, self._rows = {}, {}

    def factors(self, a, k: int) -> list:
        """factor(a, 0), ..., factor(a, k - 1) (the list may run longer)."""
        fs = self._factors.setdefault(_key(a), [])
        fs += [self.factor(a, j) for j in range(len(fs), k)]
        return fs

    def row(self, a, k: int) -> list:
        """(a)_0, ..., (a)_k (the list may run longer)."""
        key = _key(a)
        row = self._rows.get(key) or self._rows.setdefault(key, [a * 0 + 1])  # one in a's ring
        for f in self.factors(a, k)[len(row) - 1:k]:
            row.append(row[-1] * f)
        return row


class QTables(Rows):
    """The tables of base q an evaluator builds once per call and drops with
    it: pow(k) = q^k (any integer k) and the rows (a; q)_k of factors 1 -
    a q^j, unit q, exponent k where a = q^k (``power_exponent``); (z q^s;
    q)_k is the row of z q^s."""

    def __init__(self, q):
        self.pow = pw = functools.cache(lambda k: q**k)  # no cycle through self
        super().__init__(lambda a, j: 1 - a * pw(j), q, lambda a: power_exponent(a, q))


def qpochhammer_inf(a, qp: QParam, field: FloatField):
    """Infinite q-shifted factorial, truncated once |a| q^j drops below the
    field's geometric-tail threshold (tail factor bounded by 1)."""
    q = field.of(qp.q)
    prod = field.one
    term = field.of(a)
    while abs(term) >= field.tail_eps:
        prod *= 1 - term
        if prod == 0:
            break
        term *= q
    return prod


# ---------------------------------------------------------------------------
# partial q-difference operators on polynomials
# ---------------------------------------------------------------------------

def step_weights(p: Fraction, top: int) -> list:
    """[e]_p = h_e / b^(e-1), h_e = (a^e - b^e) / (a - b), for p = a/b and
    e = 0..top, as numerators h_e b^(top-e) over the common b^(top-1).  h_e
    is symmetric in a and b: one rule for the forward (p = q) and backward
    (p = 1/q) steps along either axis."""
    a, b = p.numerator, p.denominator
    return [(a**e - b**e) // (a - b) * b ** (top - e) for e in range(top + 1)]


def _difference(f: BiPoly, p: Fraction, axis: int) -> BiPoly:
    """(f(p x_axis) - f) / ((p - 1) x_axis) monomial by monomial:
    x_axis^e -> [e]_p x_axis^(e-1), by ``step_weights``.

    Base p = q gives the forward operator; p = 1/q gives the backward one,
    since q(f(x) - f(x/q)) / ((q-1)x) is the forward quotient of base 1/q.
    Lowering one exponent is injective on monomials, so each output term is
    a single product.
    """
    k = axis - 1
    top = max((m[k] for m in f.nums), default=0)
    w = step_weights(p, top)
    out = {((m[0] - 1, m[1]) if axis == 1 else (m[0], m[1] - 1)): n * w[m[k]]
           for m, n in f.nums.items() if m[k]}
    return from_form(*reduced(out, f.den * p.denominator ** (top - 1))) if out else BiPoly.zero()


def dq1(f: BiPoly, qp: QParam) -> BiPoly:
    """Forward operator along x: (f(qx,y) - f(x,y)) / ((q-1)x)."""
    return _difference(f, qp.q, 1)


def dq2(f: BiPoly, qp: QParam) -> BiPoly:
    """Forward operator along y."""
    return _difference(f, qp.q, 2)


def dqm1(f: BiPoly, qp: QParam) -> BiPoly:
    """Backward operator along x: q(f(x,y) - f(x/q,y)) / ((q-1)x).

    On monomials, x^i -> q^{1-i} [i]_q x^{i-1}.
    """
    return _difference(f, 1 / qp.q, 1)


def dqm2(f: BiPoly, qp: QParam) -> BiPoly:
    """Backward operator along y."""
    return _difference(f, 1 / qp.q, 2)


# ---------------------------------------------------------------------------
# sample-table forms
# ---------------------------------------------------------------------------

def _difference_table(fvals, x0, y0, p, n: int, m: int):
    """Iterated difference quotients (f(p x) - f(x)) / ((p - 1) x), n along x
    then m along y, on a rectangular table of exact samples fvals[r][s] =
    f(p^r x0, p^s y0), None where not needed: the table at (p^r x0, p^s y0),
    n rows and m columns smaller, None where a stencil reaches a None sample.
    The passes run along the rows of the table for x and of its transpose
    for y, dividing row r's differences by its step (p - 1) x0 p^r."""
    if len(fvals) < n + 1 or any(len(row) < m + 1 for row in fvals):
        raise ValueError("sample table too small for the requested order")
    p = as_fraction(p)
    work = fvals
    for start, count in ((as_fraction(x0), n), (as_fraction(y0), m)):
        for _ in range(count):
            steps = [(p - 1) * start * p**r for r in range(len(work) - 1)]
            work = [[None if lo is None or hi is None else (hi - lo) / h
                     for lo, hi in zip(work[r], work[r + 1])] for r, h in enumerate(steps)]
        # the y passes run on the transpose, and the second one restores the table
        work = [list(col) for col in zip(*work)]
    return work


def dq_nm_table(fvals, x0, y0, qp: QParam, n: int, m: int):
    """t[r][s] = [Dq1]^n [Dq2]^m f at (q^r x0, q^s y0) from exact samples
    fvals[r][s] = f(q^r x0, q^s y0): ``_difference_table`` of base q."""
    return _difference_table(fvals, x0, y0, qp.q, n, m)


# ---------------------------------------------------------------------------
# operator relation report
# ---------------------------------------------------------------------------

def verify_operator_relations(qp: QParam, f: BiPoly, g: BiPoly | None = None) -> dict:
    """Check the commutation/conversion identities and both product rules as
    exact polynomial identities; returns {identity name: bool}."""
    if g is None:
        g = BiPoly({(2, 1): 1, (1, 0): 1, (0, 0): 2})
    q = qp.q
    x, y = BiPoly.x(), BiPoly.y()
    g_qx = g.scale_args(q, 1)
    g_qy = g.scale_args(1, q)
    return {
        "commute_dq1_dqm2": dq1(dqm2(f, qp), qp) == dqm2(dq1(f, qp), qp),
        "commute_dq2_dqm1": dq2(dqm1(f, qp), qp) == dqm1(dq2(f, qp), qp),
        "commute_dq1_dq2": dq1(dq2(f, qp), qp) == dq2(dq1(f, qp), qp),
        "commute_dqm1_dqm2": dqm1(dqm2(f, qp), qp) == dqm2(dqm1(f, qp), qp),
        "convert_axis1": dqm1(f, qp) == dq1(f, qp) + x * dq1(dqm1(f, qp), qp) * (1 - q),
        "convert_axis2": dqm2(f, qp) == dq2(f, qp) + y * dq2(dqm2(f, qp), qp) * (1 - q),
        "product_rule_axis1": dq1(f * g, qp) == f * dq1(g, qp) + g_qx * dq1(f, qp),
        "product_rule_axis2": dq2(f * g, qp) == f * dq2(g, qp) + g_qy * dq2(f, qp),
    }


# ---------------------------------------------------------------------------
# terminating (q-)hypergeometric series: one double-sum kernel
# ---------------------------------------------------------------------------

class SeriesError(ValueError):
    pass


def _terms(tables, num, den, label, last=None, v=None, t=0):
    """[prod (a)_k / prod (b)_k * v^k q^(t C(k,2)) for k = 0..last], over
    the factors of `tables` (`QTables` or `Rows()`).  Without `last`, it is
    the least index -k at which a numerator factor vanishes, k <= 0 the
    `exponent` of a scalar or constant BiPoly parameter, decided before any
    factor is formed; a series with none does not terminate.  A denominator
    factor vanishing at j <= last (a summed index, or the termination index,
    where the numerator vanishes too) is an error."""
    if last is None:
        consts = [a.coeff(0, 0) if isinstance(a, BiPoly) else as_fraction(a) for a in num
                  if not isinstance(a, BiPoly) or a.nums.keys() <= {(0, 0)}]
        ends = [-k for k in map(tables.exponent, consts) if k is not None and k <= 0]
        if not ends:
            raise SeriesError(f"the {label} does not terminate")
        last = min(ends)
    nums = [tables.factors(a, last) for a in num]
    dens = [tables.factors(b, last + 1) for b in den]
    out = [Fraction(1)]
    top = bottom = Fraction(1)
    for j in range(last + 1):
        if any(fs[j] == 0 for fs in dens):
            raise SeriesError(f"a denominator Pochhammer of the {label} vanishes at index "
                              f"{j + 1}, not after the termination index {last + 1}")
        if j == last:
            return out
        for fs in nums:
            top = top * fs[j]
        if v is not None:
            top = top * v
        if t:
            top = top * tables.pow(t * j)
        for fs in dens:
            bottom = bottom * fs[j]
        out.append(top / bottom)


def _terminating_sum(tables, xnum, xden, xv, ynum=None, yden=(), yv=None,
                     joint_num=(), joint_den=(), tags=(0, 0, 0)):
    """The terminating double sum

        sum_{m <= M, n <= N} [joint]_{m+n} [x]_m [y]_n xv^m yv^n
                             q^(ti C(m,2) + tj C(n,2) + tk m n),

    where [g]_k = prod (a)_k / prod (b)_k over the group's numerator and
    denominator parameters, (a)_k the product of a's factors in `tables`,
    and the x and y groups also divide by (unit)_k: (q; q)_k for (a; q)_k,
    k! for the rising (a)_k.  M is the first j at which an x numerator factor
    vanishes, N likewise for y; ``ynum=None`` is the single sum over m.

    Numerator parameters and the arguments may be Fractions or BiPolys;
    denominator parameters are scalars.  Empty groups and zero ti, tj cost
    no multiplication.
    """
    ti, tj, tk = tags
    ring = (*xnum, *(ynum or ()), *joint_num, xv, yv)
    zero = BiPoly.zero() if any(isinstance(v, BiPoly) for v in ring) else Fraction(0)
    label = "series" if ynum is None else "x direction"
    xs = _terms(tables, xnum, (*xden, tables.unit), label, v=xv, t=ti)
    if ynum is None:
        return sum(xs, zero)
    ys = _terms(tables, ynum, (*yden, tables.unit), "y direction", v=yv, t=tj)
    joint = _terms(tables, joint_num, joint_den, "joint sum", len(xs) + len(ys) - 2)
    total = zero
    for m, xm in enumerate(xs):
        total = total + xm * sum((yn * (joint[m + n] * (tables.pow(tk * m * n) if tk else 1))
                                  for n, yn in enumerate(ys)), zero)
    return total


def phi_rs(num_params, den_params, qp: QParam, z):
    """Terminating r-phi-s basic hypergeometric sum.

    Term k carries prod (a;q)_k / ((q;q)_k prod (b;q)_k) * z^k and, for
    s+1 > r, the usual ((-1)^k q^C(k,2))^{1+s-r} factor.  Termination is by a
    numerator q-Pochhammer reaching exactly zero; a denominator Pochhammer
    vanishing first, or at the same index, is an error.
    """
    excess = 1 + len(den_params) - len(num_params)
    return _terminating_sum(QTables(qp.q), num_params, den_params, -z if excess % 2 else z,
                            tags=(excess, 0, 0))


def phi_bivariate(joint_num, xnum, ynum, joint_den, xden, yden, qp: QParam, xv, yv,
                  tags=(0, 0, 0)):
    """Generalized bivariate basic hypergeometric double sum with joint (m+n)
    Pochhammers, separate per-direction Pochhammers, and the
    q^{i C(m,2) + j C(n,2) + k m n} factor given by `tags`.

    Both directions must terminate (a vanishing numerator Pochhammer).
    """
    return _terminating_sum(QTables(qp.q), xnum, xden, xv, ynum, yden, yv,
                            joint_num, joint_den, tags)


# ---------------------------------------------------------------------------
# classical terminating series (q -> 1 targets)
# ---------------------------------------------------------------------------

def gauss_2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) with a or b a nonpositive integer; z may be a scalar or
    a BiPoly."""
    return _terminating_sum(Rows(), (a, b), (c,), z)


def kampe_de_feriet(joint_num, xnum, ynum, joint_den, xden, yden, xv, yv):
    """Generalized Kampe de Feriet double sum; both separate numerator groups
    must contain a nonpositive integer.  Arguments may be scalars or BiPolys."""
    return _terminating_sum(Rows(), xnum, xden, xv, ynum, yden, yv, joint_num,
                            joint_den)
