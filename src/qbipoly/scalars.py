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

``Record`` and ``FrozenRecord`` are the library's plain record classes, in
place of ``dataclasses``, whose import (it brings ``inspect``) and generated
methods every command would pay for at start.
"""

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


class Record:
    """A record whose fields are its class's annotated names, after those of
    its record bases, in order: ``__match_args__`` lists them.  The
    constructor takes them by position or keyword, then runs
    ``__post_init__``; records of one class are equal field by field, and
    the repr names each field, as a dataclass's does."""

    __match_args__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        values = dict(zip(names, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check or coerce the fields; a record without checks keeps them."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose attributes cannot be set or deleted after
    ``__init__``; it hashes its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


def as_fraction(value) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (exact-lane inputs only)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")
