"""Scalars and the precision policy.

Algebraic objects hold exact rationals only (``as_fraction``), so
identities are decided exactly.  The Jackson moments (``MomentTable``) are
exact rational ratios times one mass, returned exactly, and the mass cancels
from every orthogonality gate, so the gates are exact too; ``float_str``
rounds a reported value once, when printed.
``FloatField`` keeps mpf numbers in a private mpmath context at its
precision (``qcalc.qpochhammer_inf``).  No float depends on mpmath.mp.prec,
and mpmath loads with the first printed float or ``FloatField``: ``check``
and ``generate`` never load it.

``Record`` and ``FrozenRecord`` are the library's plain record classes, in
place of ``dataclasses``, whose import (it brings ``inspect``) and generated
methods every command would pay for at start.
"""

import math
from fractions import Fraction


class FloatField:
    """mpf numbers at a fixed precision (>= 64 bits) in a private mpmath
    context ``ctx``, so arithmetic on them ignores ``mpmath.mp.prec``;
    ``tail_eps`` = 2**(8 - prec) cuts geometric tails."""

    def __init__(self, prec: int):
        if prec < 64:
            raise ValueError("float precision must be at least 64 bits")
        import mpmath

        self.ctx = mpmath.MPContext()
        self.ctx.prec = prec
        self.one = self.ctx.mpf(1)
        self.tail_eps = self.ctx.mpf(2) ** (8 - prec)

    def of(self, value):
        if isinstance(value, Fraction):
            return self.ctx.mpf(value.numerator) / value.denominator
        return self.ctx.mpf(value)


def float_str(value, prec: int, root: bool = False) -> str:
    """v (a Fraction or int pair num, den > 0), or its root if root, rounded
    once to nearest at prec bits, as ``mpmath.nstr`` prints it to
    int(prec log10 2) digits.  m = floor(v 2^s) has prec + 2 bits or more;
    a v that is not m 2^-s lies strictly between m and m + 1: it rounds as
    m + 1/2 does."""
    from mpmath import libmp

    num, den = value if type(value) is tuple else (value.numerator, value.denominator)
    sign, num, k = -1 if num < 0 else 1, abs(num), 2 if root else 1
    s = prec + 3 - (num.bit_length() - den.bit_length()) // k
    m, rest = divmod(num << max(k * s, 0), den << max(-k * s, 0))
    if root:
        r, m = m, math.isqrt(m)
        rest = rest or m * m != r
    man = libmp.from_man_exp(sign * (2 * m + bool(rest)), -s - 1, prec, libmp.round_nearest)
    return libmp.to_str(man, int(prec * math.log10(2)))


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
