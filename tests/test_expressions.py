"""Expression grammar: precedence, associativity, errors, round trips."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries
from pseudosphere.errors import NonUnitError, ParseError, UnknownVariableError
from pseudosphere.scalars import I, GaussianRational

CTX = ps.canonical_context(2)


def value(text, order=4):
    return ps.parse_series(text, CTX, order)


def test_precedence_pow_binds_tightest():
    # -(z1^2), not (-z1)^2; 2*(z1^2), not (2*z1)^2
    assert value("-z1^2").coefficient_of(z1=2) == GaussianRational(-1)
    assert value("2*z1^2").coefficient_of(z1=2) == GaussianRational(2)
    assert value("-2^2") == value("0 - 4")
    assert value("1 + 2*3") == value("7")


def test_left_associativity():
    assert value("1 - 2 - 3") == value("0 - 4")
    assert value("8/2/2") == value("2")
    assert value("6/2*3") == value("9")
    assert value("z1^2^3", 6) == value("z1^6", 6)


def test_syntax_errors_carry_position():
    for text, position, message in [
        ("z1 + ", 5, "unexpected end of expression"),
        ("z1 + )", 5, "unexpected token ')'"),
        ("z1 @ z2", 3, "unknown character '@'"),
        ("(z1 + z2", 8, "expected ')', found end of expression"),
        ("(z1 + z2 (", 9, "expected ')', found '('"),
        ("z1 z2", 3, "unexpected trailing token 'z2'"),
        ("z1^z2", 3, "exponent must be a nonnegative integer literal"),
    ]:
        with pytest.raises(ParseError) as excinfo:
            value(text)
        assert excinfo.value.position == position, text
        assert str(excinfo.value) == f"{message} (at position {position})"


def test_pow_requires_integer_literal():
    with pytest.raises(ParseError):
        value("z1^z2")
    with pytest.raises(ParseError):
        value("z1^(2)")


def test_errors_reported_in_text_order():
    # the text is tokenized before anything is evaluated, but evaluation
    # runs as it parses: an unknown variable or a non-unit divisor ahead
    # of a syntax error is the error reported
    with pytest.raises(ParseError):
        value("q1 @ z1")
    with pytest.raises(UnknownVariableError):
        value("q1 + ")
    with pytest.raises(NonUnitError):
        value("1/z1 + )")
    with pytest.raises(ParseError):
        value("z1 + ) + q1")


def test_evaluate_heisenberg():
    series = ps.parse_series("-wb + z1*z1b + z2*z2b", CTX, 6)
    assert series.coefficient_of(wb=1) == GaussianRational(-1)
    assert series.coefficient_of(z1=1, z1b=1) == GaussianRational(1)
    assert series.coefficient_of(z2=1, z2b=1) == GaussianRational(1)
    assert len(series.terms) == 3


def test_evaluate_geometric_series():
    series = ps.parse_series("1/(1-z1)", CTX, 3)
    assert series == ps.parse_series("1 + z1 + z1^2 + z1^3", CTX, 3)


def test_evaluate_imaginary_unit():
    series = ps.parse_series("i*i", CTX, 2)
    assert series == ps.parse_series("-1", CTX, 2)


def test_evaluate_rational_coefficient():
    series = ps.parse_series("(3/2 + 1/2*i)*z1^2*wb", CTX, 4)
    assert series.coefficient_of(z1=2, wb=1) == GaussianRational(
        Fraction(3, 2), Fraction(1, 2)
    )
    assert len(series.terms) == 1


def test_evaluate_undeclared_variable():
    with pytest.raises(UnknownVariableError):
        ps.parse_series("q7", CTX, 3)


def test_evaluate_division_by_non_unit():
    with pytest.raises(NonUnitError):
        ps.parse_series("1/z1", CTX, 3)


def test_precedence_property(rng):
    names = list(CTX.names)
    for _ in range(20):
        a, b, c = (rng.choice(names) for _ in range(3))
        lhs = ps.parse_series(f"{a} + {b}*{c}", CTX, 4)
        rhs = ps.parse_series(f"{a} + ({b}*{c})", CTX, 4)
        assert lhs == rhs


# ----------------------------------------------------------------------
# round-trip property: fully parenthesized text parses to the series
# built from it with series operators, and the printed series re-parses
# to the same series

ORDER = 4
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@st.composite
def texts_with_series(draw, depth=0):
    if depth >= 3:
        choices = ["number", "var", "i"]
    else:
        choices = ["number", "var", "i", "neg", "binary", "pow", "div", "div-unit"]
    kind = draw(st.sampled_from(choices))
    if kind == "number":
        number = draw(st.integers(0, 9))
        return str(number), TruncatedSeries.constant(CTX, ORDER, number)
    if kind == "var":
        name = draw(st.sampled_from(list(CTX.names)))
        return name, TruncatedSeries.variable(CTX, ORDER, name)
    if kind == "i":
        return "i", TruncatedSeries.constant(CTX, ORDER, I)
    text, series = draw(texts_with_series(depth=depth + 1))
    if kind == "neg":
        return f"-({text})", -series
    if kind == "pow":
        exponent = draw(st.integers(0, 3))
        return f"({text})^{exponent}", series ** exponent
    if kind == "div":
        # by a nonzero integer literal: a scaling
        divisor = draw(st.integers(1, 9))
        return f"({text} / {divisor})", series.scale(Fraction(1, divisor))
    if kind == "div-unit":
        # by 1 - v: a product with the geometric series in v
        name = draw(st.sampled_from(list(CTX.names)))
        v = TruncatedSeries.variable(CTX, ORDER, name)
        geometric = TruncatedSeries.zero(CTX, ORDER)
        for k in range(ORDER + 1):
            geometric = geometric + v ** k
        return f"({text} / (1 - {name}))", series * geometric
    symbol = draw(st.sampled_from(sorted(_BINARY)))
    right_text, right = draw(texts_with_series(depth=depth + 1))
    return f"({text} {symbol} {right_text})", _BINARY[symbol](series, right)


@settings(max_examples=80, deadline=None)
@given(texts_with_series())
def test_parenthesized_text_round_trip(drawn):
    text, expected = drawn
    parsed = ps.parse_series(text, CTX, ORDER)
    assert parsed == expected
    assert parsed.order == expected.order
    printed = ps.parse_series(str(expected), CTX, ORDER)
    assert printed == expected
