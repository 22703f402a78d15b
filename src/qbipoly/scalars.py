"""Scalars: exact rationals everywhere, binary floats for infinite sums.

Every algebraic object in the library (polynomials, polynomial vectors,
matrices) holds exact rationals only, taken in through ``as_fraction`` and
stored in the one sparse form of ``bipoly`` (integer numerators over a
common denominator), so every identity is decided exactly.  The float lane exists only for infinite sums (Jackson
moments, infinite q-Pochhammers), where exactness is impossible: a
``FloatField`` owns an mpmath context at its precision and builds its
values there; every operation on them (a Fraction or int on either side,
any mpf on the right) rounds at that precision, so float results never
depend on mpmath.mp.prec.  mpmath is imported when the first ``FloatField``
is built (``MomentTable``, the orthogonality suite), so ``check`` and
``generate`` for the exact families never load it.
"""

from __future__ import annotations

from fractions import Fraction


class FloatField:
    """Binary floats at a fixed precision (>= 64 bits) in a private mpmath
    context ``ctx`` at ``prec``; values built here carry it, so arithmetic
    on them ignores ``mpmath.mp.prec`` (use ``ctx.sqrt``, ``ctx.fsum``).

    No identity is decided here.  ``tail_eps`` is the truncation threshold 2**(8 - prec) used when cutting geometric
    tails of infinite products and sums.
    """

    def __init__(self, prec: int):
        if prec < 64:
            raise ValueError("float precision must be at least 64 bits")
        import mpmath

        self.prec = prec
        self.ctx = mpmath.MPContext()
        self.ctx.prec = prec
        self.one = self.ctx.mpf(1)
        self.tail_eps = self.ctx.mpf(2) ** (8 - prec)

    def of(self, value):
        if isinstance(value, Fraction):
            return self.ctx.mpf(value.numerator) / value.denominator
        return self.ctx.mpf(value)

    def from_man_exp(self, m: int, e: int):
        """m * 2**e rounded once to the field's precision."""
        return self.ctx.ldexp(self.ctx.mpf(m), e)


def as_fraction(value) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (exact-lane inputs only)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")
