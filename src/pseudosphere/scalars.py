"""Exact complex scalars (a + b*i)/d with integer a, b and d.

This is the coefficient field Q(i) for every series in the package.  All
arithmetic is exact; there is no floating-point fallback anywhere.

A value is stored as one integer triple ``(a, b, d)`` in canonical form:
``d > 0``, ``gcd(a, b, d) == 1``, and zero is ``(0, 0, 1)``.  Every
element of Q(i) has exactly one such triple, so equality is equality of
the triples.  Each operation builds its result triple with integer
arithmetic and restores the canonical form with one three-argument gcd,
skipped only where the result's denominator is 1.  Each operation has
that one formula and no fast path: series do their arithmetic on integer
numerators, so scalar operations are few (parsing, the inverse of a
unit's constant term, coefficients read out).  Only this module knows
the storage format; other modules use the operators and the ``re``/``im``
properties.  The one exception is the series storage, which keeps
Gaussian-integer numerators over one denominator per series: it reads
the triples of the scalars it is given (the series constructors, and the
parser, which builds the storage of a sum from its scalars and terms),
and ``_reduced`` turns a numerator pair over its denominator back into a
scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _new(a, b, d):
    """A scalar from a triple already in canonical form."""
    z = object.__new__(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a, b, d):
    """A scalar from a triple with ``d > 0``, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _new(a // g, b // g, d // g)
    return _new(a, b, d)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _new(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _new(value.numerator, 0, value.denominator)
    return None


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as the integer triple (a, b, d).

    The triple is kept canonical: ``d > 0``, ``gcd(a, b, d) == 1``, and
    zero is ``(0, 0, 1)``.  Each value has exactly one canonical triple;
    that is the invariant ``__eq__`` (three integer comparisons) and
    ``__hash__`` rely on.  A real value hashes like the equal ``Fraction``,
    since ``==`` also accepts ``int`` and ``Fraction`` operands.  ``re``
    and ``im`` return the parts as ``Fraction``.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # Over the lcm of two reduced denominators the triple is canonical.
        d = q * s // gcd(q, s)
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _new(self._a, -self._b, self._d)

    def norm_squared(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # A real value hashes like the equal Fraction or int.
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(
            self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n2 = a2 * a2 + b2 * b2
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n2
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __str__(self):
        # Rendered so that the text re-parses under the expression grammar.
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            im_text = "i"
        elif im == -1:
            im_text = "-i"
        else:
            im_text = f"{im}*i"
        if not re:
            return im_text
        if im_text.startswith("-"):
            return f"{re} - {im_text[1:]}"
        return f"{re} + {im_text}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _bits(value: GaussianRational) -> int:
    """The largest bit length of the integers of a scalar's triple, which
    is the bit count of its constant series (``TruncatedSeries._bits``)."""
    return max(value._a.bit_length(), value._b.bit_length(), value._d.bit_length())


# Printing an integer of more than a few thousand digits is slow, and past
# the interpreter's digit limit (4300 by default) it raises ValueError.
MESSAGE_BITS = 4096


def brief_str(value) -> str:
    """``str(value)`` for messages, or only its size when one of the
    integers of its triple has more than MESSAGE_BITS bits.

    ``value`` is a scalar, an ``int`` or a ``Fraction``.
    """
    value = _coerce(value)
    bits = _bits(value)
    if bits <= MESSAGE_BITS:
        return str(value)
    return f"<number with a {bits}-bit part>"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gaussian(re=0, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or 'p/q' strings."""
    return GaussianRational(Fraction(re), Fraction(im))
