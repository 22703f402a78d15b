"""Sparse bivariate polynomials over the rationals, and the one exact form
they share with matrix rows.

The form ``(nums, den)`` maps keys to nonzero int numerators over one
positive ``den`` with gcd(den, *nums) = 1, so zero is ``({}, 1)`` and equal
vectors are stored alike (the content/primitive part representation of von
zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).  A ``BiPoly`` keys
it by exponent pairs ``(i, j)`` (for ``x**i * y**j``), a ``linalg.Mat`` row
by column.  Other modules compute on ``nums`` and ``den`` too (``add_image``,
the monic oracle, ``_difference``, ``pearson._same``, ``MomentTable``,
``io._poly_text``), but only ``exact_form`` (numerators over the lcm of the
denominators), ``reduced`` (one content gcd; ``reduced_rows`` for dense rows),
``combine`` (scaled forms over one common denominator) and ``pearson_step`` (the
Rodrigues difference step) reduce; ``lift_pairs`` brings int pairs to their lcm
(the operator's six part coefficients), ``lowest_terms`` reads entries
back, and ``product`` gives the unreduced numerators of a product.
``coeffs`` is a read-only snapshot of the coefficients as Fractions;
nothing writes a form after construction.

Every scalar (coefficient, factor, evaluation point) is taken through
``as_fraction``: a float is a ``TypeError``, and so is comparing with one.
All operations are pure; instances are immutable after construction.
"""

import math
import numbers
import operator
import types
from fractions import Fraction

from .scalars import as_fraction

_ZERO = Fraction(0)


def reduced(nums: dict, den: int) -> tuple:
    """The form of nums[k] / den for int numerators (zeros are dropped) and
    a nonzero int den, by one content gcd; the sign stays on the numerators."""
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    if den != 1:
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    return nums, den


def exact_form(items) -> tuple:
    """The form of (key, exact scalar) pairs; zero scalars are dropped."""
    exact = {}
    for k, v in items:
        if not isinstance(v, (int, Fraction)):
            v = as_fraction(v)
        if v:
            exact[k] = v
    # over the lcm of reduced denominators the numerators share no factor
    # with it, so the form is already reduced
    den = math.lcm(*(c.denominator for c in exact.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in exact.items()}, den


def lowest_pair(num: int, den: int) -> tuple:
    """num / den for a nonzero int den as an int pair in lowest terms, den > 0."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def reduced_rows(rows: list, den: int) -> tuple:
    """``reduced`` for dense int rows over a nonzero int den: one content gcd, zeros kept."""
    g = den
    for row in rows:  # the running gcd keeps each next one small
        g = math.gcd(g, *row)
    g = -g if den < 0 else g
    return (rows, den) if g == 1 else ([[n // g for n in row] for row in rows], den // g)


def lift_pairs(pairs) -> tuple:
    """(lifted, D) for int pairs (num, den != 0): D the lcm of the dens and
    lifted[k] the numerator of pairs[k] over D."""
    D = math.lcm(*(d for _, d in pairs))
    return [n * (D // d) for n, d in pairs], D


def combine(terms, div: int = 1) -> tuple:
    """The form of (sum of a * nums / den over the terms (a, nums, den)) / div
    for int a and a nonzero int div: every term is brought to the lcm D of
    the dens, summed over the integers on the one denominator D * div, and
    reduced once."""
    terms = list(terms)
    D = math.lcm(*(d for _, _, d in terms))
    out = {}
    for a, nums, d in terms:
        f = a * (D // d)
        for k, n in nums.items():
            out[k] = out[k] + f * n if k in out else f * n
    return reduced(out, D * div)


def lowest_terms(nums: dict, den: int, keys) -> list:
    """[(key, numerator, denominator)] in lowest terms for the entries of the
    form at keys, 0/1 at a key it lacks, without a Fraction per entry."""
    out = []
    for k in keys:
        n = nums.get(k, 0)
        g = math.gcd(n, den)
        out.append((k, n // g, den // g))
    return out


def product(a: dict, b: dict) -> dict:
    """The unreduced numerators of the product of two forms' numerator maps."""
    out = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = get(m, 0) + c1 * c2
    return out


def pearson_step(phi: "BiPoly", omega: "BiPoly", c, K: "BiPoly", q: Fraction) -> "BiPoly":
    """[phi K(qx,y) - omega(cx,y) K] / ((q-1) x) in one pass over K's terms.
    A Pearson monomial (a, b) and an x-degree i of K share one integer
    factor, phi_ab q^i - omega_ab c^a over one common denominator, and the
    sum is reduced once.  At x = 0 the bracket is (phi - omega)(0,y) K(0,y),
    so x divides it iff phi(0,y) = omega(0,y) or K(0,y) = 0; else ValueError."""
    qw, cw = _powers(q, max(K.degree_x(), 0)), _powers(c, max(phi.degree_x(), omega.degree_x(), 0))
    v = q.denominator  # 1 / (q - 1) = v / (q.numerator - v)
    sp, sw = omega.den * cw[0] * v, phi.den * qw[0] * v
    factors = [((a, b), [phi.nums.get((a, b), 0) * sp * t - omega.nums.get((a, b), 0) * sw * cw[a]
                         for t in qw]) for a, b in {**phi.nums, **omega.nums}]
    if any(f[0] for (a, _), f in factors if not a) and any(i == 0 for i, _ in K.nums):
        raise ValueError("x does not divide the bracket: phi(0,y) != omega(0,y)")
    out = {}
    get = out.get
    for (i, j), n in K.nums.items():
        for (a, b), f in factors:
            if f[i]:
                m = (a + i - 1, b + j)
                out[m] = get(m, 0) + f[i] * n
    return from_form(*reduced(out, phi.den * omega.den * qw[0] * cw[0] * K.den * (q.numerator - v)))


def from_form(nums: dict, den: int) -> "BiPoly":
    """The BiPoly of a form as ``reduced`` and ``combine`` return it."""
    p = object.__new__(BiPoly)
    p.nums = nums
    p.den = den
    return p


def _powers(c: Fraction, top: int) -> list:
    """[a^k b^(top-k) for k = 0..top] for c = a/b: c^k over the common b^top."""
    a, b = c.numerator, c.denominator
    out = [b**top]
    for _ in range(top):
        out.append(out[-1] // b * a)
    return out


class BiPoly:
    __slots__ = ("nums", "den")

    def __init__(self, coeffs):
        """From a map {(i, j): exact scalar}; zero coefficients are dropped.
        An exponent is taken through ``operator.index``: a float, Fraction
        or str exponent is a TypeError, not truncated."""
        terms = [((operator.index(i), operator.index(j)), c) for (i, j), c in coeffs.items()]
        for (i, j), _ in terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i},{j})")
        self.nums, self.den = exact_form(terms)

    @property
    def coeffs(self) -> types.MappingProxyType:
        """The coefficients as a read-only map (i, j) -> Fraction."""
        return types.MappingProxyType({m: Fraction(n, self.den) for m, n in self.nums.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, value):
        return cls({(0, 0): value})

    @classmethod
    def x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1): 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(i + j for i, j in self.nums)

    def degree_x(self) -> int:
        return max((i for i, _ in self.nums), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        n = self.nums.get((i, j))
        return _ZERO if n is None else Fraction(n, self.den)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, BiPoly) else BiPoly.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.den, other.den  # summed over lcm(a, b)
        g = math.gcd(a, b)
        fa, fb = b // g, a // g
        out = {m: n * fa for m, n in self.nums.items()}
        for m, n in other.nums.items():
            out[m] = out[m] + n * fb if m in out else n * fb
        return from_form(*reduced(out, a * fa))

    __radd__ = __add__

    def __neg__(self):
        return from_form({m: -n for m, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return from_form(*reduced(product(self.nums, other.nums), self.den * other.den))
        return self._scaled(as_fraction(other))

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "BiPoly":
        r = c.numerator
        return from_form(*reduced({m: n * r for m, n in self.nums.items()}, self.den * c.denominator))

    def __truediv__(self, scalar):
        c = as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of BiPoly by zero scalar")
        return self._scaled(1 / c)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a BiPoly")
        out = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        if isinstance(other, numbers.Number) and not isinstance(other, numbers.Rational):
            raise TypeError(f"cannot compare an exact polynomial with {other!r}")
        return NotImplemented

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    # -- substitution and evaluation ---------------------------------------

    def scale_args(self, alpha, beta) -> "BiPoly":
        """Substitute x -> alpha*x, y -> beta*y: with alpha = a/b and
        beta = s/t, the coefficient of x^i y^j gains a^i b^(I-i) s^j t^(J-j)
        over the common b^I t^J."""
        if not isinstance(alpha, (int, Fraction)):
            alpha = as_fraction(alpha)
        if not isinstance(beta, (int, Fraction)):
            beta = as_fraction(beta)
        nums = self.nums
        if not nums or alpha == 1 and beta == 1:
            return self
        I = J = 0
        for i, j in nums:
            if i > I:
                I = i
            if j > J:
                J = j
        xw, yw = _powers(alpha, I), _powers(beta, J)
        return from_form(*reduced({(i, j): n * xw[i] * yw[j] for (i, j), n in nums.items()},
                                  self.den * xw[0] * yw[0]))

    def swap(self) -> "BiPoly":
        """Exchange the variables: f(x, y) -> f(y, x)."""
        return from_form({(j, i): n for (i, j), n in self.nums.items()}, self.den)

    def eval(self, xv, yv) -> Fraction:
        return Fraction(*self.eval_grid_pairs([xv], [yv])[0][0])

    def eval_grid_pairs(self, xs, ys) -> list:
        """[[p(x, y) for y in ys] for x in xs] as (numerator, denominator) int
        pairs, not reduced, with denominator > 0: with x = u/v and y = s/t,
        p = sum_i u^i v^(I-i) C_i / (den v^I t^J), C_i = sum_j n_ij s^j
        t^(J-j) formed once per (i, y); each point costs one product per
        distinct x-exponent i, summed by one ``map``, and no gcd."""
        xs = [as_fraction(v) for v in xs]
        ys = [as_fraction(v) for v in ys]
        I = max((i for i, _ in self.nums), default=0)
        J = max((j for _, j in self.nums), default=0)
        rows = {}
        for (i, j), n in self.nums.items():
            rows.setdefault(i, []).append((j, n))
        cols = [[sum(n * yv.numerator**j * yv.denominator ** (J - j) for j, n in terms)
                 for terms in rows.values()] for yv in ys]
        tden = [self.den * yv.denominator**J for yv in ys]
        out = []
        for xv in xs:
            u, v = xv.numerator, xv.denominator
            xw = [u**i * v ** (I - i) for i in rows]
            vI = v**I
            out.append([(sum(map(operator.mul, xw, col)), d * vI) for col, d in zip(cols, tden)])
        return out

    # -- calculus on polynomials -------------------------------------------

    def diff_x(self) -> "BiPoly":
        """Classical partial derivative in x."""
        return from_form(*reduced({(i - 1, j): n * i for (i, j), n in self.nums.items() if i}, self.den))

    def diff_y(self) -> "BiPoly":
        """Classical partial derivative in y: diff_x conjugated by the swap."""
        return self.swap().diff_x().swap()

    def div_exact(self, divisor: "BiPoly") -> "BiPoly":
        """The quotient of an exact division; ValueError for a remainder.
        Lex-order long division of the numerators by the divisor's primitive
        part, row by row (x-degree, then y-degree, descending): by Gauss's
        lemma an exact quotient is integral, so a term below the divisor's
        leading row or column, or a coefficient that does not divide, is a
        remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        content = math.gcd(*divisor.nums.values())
        rest = {k: n // content for k, n in divisor.nums.items()}
        (di, dj), lc = max(rest.items())
        del rest[di, dj]
        rows, quot = {}, {}
        for (i, j), n in self.nums.items():
            rows.setdefault(i, {})[j] = n
        for i in range(max(rows, default=-1), -1, -1):
            row = rows.pop(i, {})
            for j in range(max(row, default=-1), -1, -1):
                c, r = divmod(row.pop(j, 0), lc)
                if r or (c and (i < di or j < dj)):
                    raise ValueError("nonzero remainder in exact polynomial division")
                if c:
                    quot[i - di, j - dj] = c
                    for (ri, rj), n in rest.items():
                        k, t = ri + i - di, rj + j - dj
                        target = row if k == i else rows.setdefault(k, {})
                        target[t] = target.get(t, 0) - c * n
        return from_form(*reduced({k: n * divisor.den for k, n in quot.items()},
                                  self.den * content))

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0][0]), reverse=True):
            mono = "".join(s for s in (f"x^{i}" if i else "", f"y^{j}" if j else "") if s)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

