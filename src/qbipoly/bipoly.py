"""Sparse bivariate polynomials and rational functions over the rationals.

A ``BiPoly`` is a map from exponent pairs ``(i, j)`` (for ``x**i * y**j``) to
nonzero ``Fraction`` coefficients.  Construction strips zeros, so the zero
polynomial is the empty map, and takes every scalar (coefficient, factor,
evaluation point) through ``as_fraction``: a float is a ``TypeError``, and so
is comparing with one.  All operations are pure; instances are treated as
immutable after construction.

``RationalFn`` is a quotient of two BiPolys with equality decided by cross
multiplication; no gcd normalization is ever attempted.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .scalars import as_fraction

_ZERO = Fraction(0)


class BiPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for (i, j), cval in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i},{j})")
                if not isinstance(cval, Fraction):
                    cval = as_fraction(cval)
                if cval:
                    clean[(int(i), int(j))] = cval
        self.coeffs = clean

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

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1):
        return cls({(i, j): coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def degree_x(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)

    def degree_y(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), _ZERO)

    def terms(self):
        """Terms sorted by graded lexicographic order (x-major), descending."""
        return sorted(self.coeffs.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]), reverse=True)

    def leading_term(self):
        """(monomial, coeff) largest in grlex order; None for zero."""
        if not self.coeffs:
            return None
        mono = max(self.coeffs, key=lambda m: (m[0] + m[1], m[0]))
        return mono, self.coeffs[mono]

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, BiPoly) else BiPoly.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out = {}
            for (i1, j1), c1 in self.coeffs.items():
                for (i2, j2), c2 in other.coeffs.items():
                    m = (i1 + i2, j1 + j2)
                    out[m] = out[m] + c1 * c2 if m in out else c1 * c2
            return BiPoly(out)
        c = as_fraction(other)
        return BiPoly({m: v * c for m, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of BiPoly by zero scalar")
        return BiPoly({m: v / c for m, v in self.coeffs.items()})

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
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        if isinstance(other, numbers.Number) and not isinstance(other, numbers.Rational):
            raise TypeError(f"cannot compare an exact polynomial with {other!r}")
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- substitution and evaluation ---------------------------------------

    def scale_args(self, alpha=1, beta=1) -> "BiPoly":
        """Substitute x -> alpha*x, y -> beta*y."""
        alpha = as_fraction(alpha)
        beta = as_fraction(beta)
        return BiPoly({(i, j): c * alpha**i * beta**j for (i, j), c in self.coeffs.items()})

    def swap(self) -> "BiPoly":
        """Exchange the variables: f(x, y) -> f(y, x)."""
        return BiPoly({(j, i): c for (i, j), c in self.coeffs.items()})

    def eval(self, xv, yv):
        xv = xv if isinstance(xv, Fraction) else as_fraction(xv)
        yv = yv if isinstance(yv, Fraction) else as_fraction(yv)
        total = _ZERO
        for (i, j), c in self.coeffs.items():
            total += c * xv**i * yv**j
        return total

    def eval_grid(self, xs, ys) -> list:
        """[[p(x, y) for y in ys] for x in xs], equal to ``eval`` at every
        point, over the integers: with x = u/v, y = s/t and L the common
        coefficient denominator, p = sum_i u^i v^(I-i) C_i / (L v^I t^J),
        C_i = sum_j L c_ij s^j t^(J-j) formed once per (i, y); each point
        costs one product per distinct x-exponent i and one division."""
        xs = [as_fraction(v) for v in xs]
        ys = [as_fraction(v) for v in ys]
        L = math.lcm(*(c.denominator for c in self.coeffs.values()))
        I = max((i for i, _ in self.coeffs), default=0)
        J = max((j for _, j in self.coeffs), default=0)
        rows = {}
        for (i, j), c in self.coeffs.items():
            rows.setdefault(i, []).append((j, c.numerator * (L // c.denominator)))
        cols = [[sum(c * yv.numerator**j * yv.denominator ** (J - j) for j, c in terms)
                 for terms in rows.values()] for yv in ys]
        out = []
        for xv in xs:
            u, v = xv.numerator, xv.denominator
            xw = [u**i * v ** (I - i) for i in rows]
            out.append([Fraction(sum(w * c for w, c in zip(xw, col)), L * v**I * yv.denominator**J)
                        for col, yv in zip(cols, ys)])
        return out

    # -- calculus on polynomials -------------------------------------------

    def diff_x(self) -> "BiPoly":
        """Classical partial derivative in x."""
        out = {}
        for (i, j), c in self.coeffs.items():
            if i:
                out[(i - 1, j)] = c * i
        return BiPoly(out)

    def diff_y(self) -> "BiPoly":
        """Classical partial derivative in y: diff_x conjugated by the swap."""
        return self.swap().diff_x().swap()

    def div_exact(self, divisor: "BiPoly") -> "BiPoly":
        """Exact division; raises ValueError when the remainder is nonzero.

        Greedy grlex reduction by a single divisor: valid whenever the
        quotient exists in the ring, which is the only case callers rely on.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead = divisor.leading_term()
        (di, dj), dc = lead
        rem = self
        quot = {}
        while not rem.is_zero():
            (ri, rj), rc = rem.leading_term()
            if ri < di or rj < dj:
                raise ValueError("nonzero remainder in exact polynomial division")
            qm = (ri - di, rj - dj)
            qc = rc / dc
            quot[qm] = quot.get(qm, _ZERO) + qc
            rem = rem - divisor * BiPoly.monomial(qm[0], qm[1], qc)
        return BiPoly(quot)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in self.terms():
            mono = "".join(s for s in (f"x^{i}" if i else "", f"y^{j}" if j else "") if s)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class RationalFn:
    """Quotient num/den of BiPolys, compared by cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly):
        if not (isinstance(num, BiPoly) and isinstance(den, BiPoly)):
            raise TypeError("RationalFn takes a BiPoly numerator and denominator")
        if den.is_zero():
            raise ZeroDivisionError("RationalFn with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: BiPoly):
        return cls(p, BiPoly.const(1))

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return RationalFn(self.num * other.num, self.den * other.den)
        return RationalFn(self.num * other, self.den)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.from_poly(BiPoly._coerce(other))
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def scale_args(self, alpha=1, beta=1) -> "RationalFn":
        return RationalFn(self.num.scale_args(alpha, beta), self.den.scale_args(alpha, beta))

    def eval(self, xv, yv):
        dv = self.den.eval(xv, yv)
        if not dv:
            raise ZeroDivisionError(f"RationalFn denominator vanishes at ({xv},{yv})")
        return self.num.eval(xv, yv) / dv

    def ratfn_equal(self, other: "RationalFn") -> bool:
        """True iff self == other as rational functions."""
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"
