"""Scalar field backends.

Every algebraic object in the library carries a reference to one of two field
backends: an exact one over arbitrary-precision rationals, and an
arbitrary-precision binary float one built on mpmath.  All identity checking
runs on the exact backend; the float backend exists for infinite sums
(q-integrals, infinite q-Pochhammers) where exactness is impossible.

Scalar values themselves are plain ``fractions.Fraction`` or mpmath ``mpf``
instances, so the algebra layers can use native arithmetic.  A float field
owns an mpmath context at its precision and builds its values there; every
operation on them (a Fraction or int on either side, any mpf on the right)
rounds at that precision, so float results never depend on mpmath.mp.prec.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


class BackendMismatch(TypeError):
    """Raised when operands from different scalar backends are combined."""


class Field:
    """Common interface of the two scalar backends."""

    exact: bool
    name: str

    def of(self, value):
        raise NotImplementedError

    def is_zero(self, value) -> bool:
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def check_same(self, other: "Field"):
        if self is not other and self != other:
            raise BackendMismatch(f"scalar backend mismatch: {self.name} vs {other.name}")

    def __repr__(self):
        return f"<{self.name} field>"


class ExactField(Field):
    """Arbitrary-precision rationals (normalized integer pairs, via Fraction)."""

    exact = True
    name = "exact-rational"

    def of(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot build an exact rational from {value!r}")

    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, value) -> bool:
        return value == 0

    def eq(self, a, b) -> bool:
        return a == b

    def __eq__(self, other):
        return isinstance(other, ExactField)

    def __hash__(self):
        return hash(self.name)


class FloatField(Field):
    """Binary floats at a fixed precision (>= 64 bits) in a private mpmath
    context ``ctx`` at ``prec``; values built here carry it, so arithmetic
    on them ignores ``mpmath.mp.prec`` (use ``ctx.sqrt``, ``ctx.fsum``).

    Equality is tolerance based (never used in identity proofs).  ``tail_eps``
    is the truncation threshold 2**(8 - prec) used when cutting geometric
    tails of infinite products and sums.
    """

    exact = False
    name = "big-float"

    def __init__(self, prec: int = 192):
        if prec < 64:
            raise ValueError("float precision must be at least 64 bits")
        self.prec = prec
        self.ctx = mpmath.MPContext()
        self.ctx.prec = prec
        self.zero = self.ctx.mpf(0)
        self.one = self.ctx.mpf(1)
        self.tail_eps = self.ctx.mpf(2) ** (8 - prec)

    def of(self, value):
        if isinstance(value, Fraction):
            return self.ctx.mpf(value.numerator) / value.denominator
        return self.ctx.mpf(value)

    def is_zero(self, value) -> bool:
        return value == 0

    def eq(self, a, b) -> bool:
        return self.close(a, b)

    def close(self, a, b, tol=None) -> bool:
        tol = self.tail_eps if tol is None else tol
        scale = max(1, abs(a), abs(b))
        return abs(a - b) <= tol * scale

    def __eq__(self, other):
        return isinstance(other, FloatField) and other.prec == self.prec

    def __hash__(self):
        return hash((self.name, self.prec))


#: Shared exact backend instance; exact fields carry no state.
QQ = ExactField()


def as_fraction(value) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (exact-lane inputs only)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")
