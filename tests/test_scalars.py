"""Field arithmetic of the exact complex scalars."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere.scalars import GaussianRational, I, ONE, ZERO, brief_str, gaussian

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = gaussian(Fraction(3, 2), Fraction(1, 2))
    b = gaussian(-1, 2)
    assert a + b == gaussian(Fraction(1, 2), Fraction(5, 2))
    assert a - a == ZERO
    assert I * I == gaussian(-1)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_division_is_exact():
    a = gaussian(1, 1)
    b = gaussian(0, 2)
    assert (a / b) * b == a
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_norm_squared_is_real_and_exact():
    a = gaussian(Fraction(3, 5), Fraction(-4, 5))
    assert a.norm_squared() == Fraction(1)
    assert a * a.conjugate() == gaussian(Fraction(1))


def test_powers():
    assert I**2 == gaussian(-1)
    assert gaussian(2) ** 10 == gaussian(1024)
    assert gaussian(Fraction(1, 2)) ** 3 == gaussian(Fraction(1, 8))


def test_string_forms():
    assert str(gaussian(Fraction(3, 2))) == "3/2"
    assert str(gaussian(0, 1)) == "i"
    assert str(gaussian(0, -1)) == "-i"
    assert str(gaussian(Fraction(3, 2), Fraction(1, 2))) == "3/2 + 1/2*i"
    assert str(gaussian(1, -2)) == "1 - 2*i"


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b != ZERO:
        assert (a / b) * b == a


@given(scalars)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


# ----------------------------------------------------------------------
# The integer-triple scalar against the two-Fraction formulas it replaced


class RefGaussian:
    """Reference Q(i) arithmetic on a pair of ``Fraction`` values."""

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return RefGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RefGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        return RefGaussian(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def conjugate(self):
        return RefGaussian(self.re, -self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __str__(self):
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


BIG = 2**200
wide_rationals = st.one_of(
    rationals,
    st.integers(-BIG, BIG).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
# (scalar, reference) pairs built from the same two parts
pairs = st.tuples(wide_rationals, wide_rationals).map(
    lambda parts: (GaussianRational(*parts), RefGaussian(*parts))
)
plain_operands = st.one_of(st.integers(-BIG, BIG), wide_rationals)
SCALAR_CTX = ps.VariableContext(("u",))


def assert_matches(value, ref):
    """``value`` equals ``ref`` and is stored in canonical form."""
    assert type(value) is GaussianRational
    assert value.re == ref.re and value.im == ref.im
    assert type(value.re) is Fraction and type(value.im) is Fraction
    a, b, d = value._a, value._b, value._d
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if not ref.re and not ref.im:
        assert (a, b, d) == (0, 0, 1)
    assert str(value) == str(ref)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_operations_match_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, -ra)
    assert_matches(a.conjugate(), ra.conjugate())
    if rb.re or rb.im:
        assert_matches(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@settings(max_examples=200, deadline=None)
@given(pairs, plain_operands)
def test_mixed_operands_match_reference(x, k):
    a, ra = x
    rk = RefGaussian(k)
    assert_matches(a + k, ra + rk)
    assert_matches(k + a, rk + ra)
    assert_matches(a - k, ra - rk)
    assert_matches(k - a, rk - ra)
    assert_matches(a * k, ra * rk)
    assert_matches(k * a, rk * ra)
    if k:
        assert_matches(a / k, ra / rk)
    if ra.re or ra.im:
        assert_matches(k / a, rk / ra)
    assert (a == k) == (ra == rk)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash_match_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert (a == b) == (ra == rb)
    if rb.re or rb.im:
        # the same value reached by another route
        c = (a * b) / b
        assert c == a
        assert hash(c) == hash(a)
    if not ra.im:
        assert a == ra.re and hash(a) == hash(ra.re)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_str_reparses_to_same_value(x):
    a, _ = x
    again = ps.parse_series(str(a), SCALAR_CTX, 0)
    assert again.constant_term() == a
    assert again == ps.TruncatedSeries.constant(SCALAR_CTX, 0, a)


def test_brief_str_reads_sizes_from_the_triple():
    assert brief_str(gaussian(Fraction(3, 2), -1)) == "3/2 - i"
    assert brief_str(Fraction(-7, 3)) == "-7/3"
    big = GaussianRational(0, Fraction(1, 2**5000))
    assert brief_str(big) == "<number with a 5001-bit part>"
    assert brief_str(big.im) == "<number with a 5001-bit part>"
