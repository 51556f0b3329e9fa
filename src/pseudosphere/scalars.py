"""Exact complex scalars a + b*i with rational a and b.

This is the coefficient field for every series in the package.  All
arithmetic is exact; there is no floating-point fallback anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


class GaussianRational:
    """An element of Q(i), stored as two ``Fraction`` values.

    ``Fraction`` already keeps rationals in lowest terms with positive
    denominators, so no extra normalization is needed.  Instances are
    treated as immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n2 = other.norm_squared()
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
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
        if not self.im:
            return str(self.re)
        if self.im == 1:
            im_text = "i"
        elif self.im == -1:
            im_text = "-i"
        else:
            im_text = f"{self.im}*i"
        if not self.re:
            return im_text
        if im_text.startswith("-"):
            return f"{self.re} - {im_text[1:]}"
        return f"{self.re} + {im_text}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# Printing an integer of more than a few thousand digits is slow, and past
# the interpreter's digit limit (4300 by default) it raises ValueError.
MESSAGE_BITS = 4096


def brief_str(value: GaussianRational) -> str:
    """``str(value)`` for messages, or only its size when a numerator or
    denominator has more than MESSAGE_BITS bits."""
    bits = max(x.bit_length() for part in (value.re, value.im)
               for x in (part.numerator, part.denominator))
    if bits <= MESSAGE_BITS:
        return str(value)
    return f"<number with a {bits}-bit part>"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gaussian(re=0, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or 'p/q' strings."""
    return GaussianRational(Fraction(re), Fraction(im))
