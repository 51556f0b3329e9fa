"""Expression grammar: precedence, associativity, errors, round trips."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries
from pseudosphere.errors import (
    InsufficientOrderError,
    NonUnitError,
    ParseError,
    UnknownVariableError,
)
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


# ----------------------------------------------------------------------
# parity: the outcome of a text at each order, as a value or an error

PARITY_ORDERS = (6, 17, -1, 0, 1)
TOO_HIGH = (ValueError, "series order 17 exceeds the packing limit 16")
NEGATIVE = (InsufficientOrderError, "series order must be >= 0, got -1")
NON_UNIT = (NonUnitError, "division by a series with zero constant term")


def _budget(bits, position):
    return (ParseError, f"a coefficient of {bits} bits exceeds the limit of 1048576 bits "
                        f"(at position {position})")


def _after_a_read(error):
    """The outcomes of a text that reads a literal or a variable before it
    raises ``error``: that read checks the order, so 17 and -1 raise first."""
    return (error, TOO_HIGH, NEGATIVE, error, error)


def _at_every_order(error):
    """The outcomes of a text that raises ``error`` before any read."""
    return (error,) * len(PARITY_ORDERS)


def _values(*values):
    """The outcomes of a text whose values at orders 6, 0 and 1 print as
    ``values``."""
    at_6, at_0, at_1 = values
    return ((at_6, 6), TOO_HIGH, NEGATIVE, (at_0, 0), (at_1, 1))


UNKNOWN_Q1 = (UnknownVariableError, "variable 'q1' not in context ('z1', 'z2', 'z1b', 'z2b', 'wb')")
PARITY_TABLE = [
    ("1/0", _after_a_read(NON_UNIT)),
    ("z1/0", _after_a_read(NON_UNIT)),
    ("(1-1)^0", _values("1", "1", "1")),
    ("0^0", _values("1", "1", "1")),
    ("2^1048576", _after_a_read(_budget(1048577, 1))),
    ("2^1048577", _after_a_read(
        (ParseError, "exponent 1048577 exceeds the limit of 1048576 (at position 2)"))),
    ("(2^1000)^1100", _after_a_read(_budget(1100001, 8))),
    ("i/(1-1)", _after_a_read(NON_UNIT)),
    (")", _at_every_order((ParseError, "unexpected token ')' (at position 0)"))),
    ("1+", _after_a_read((ParseError, "unexpected end of expression (at position 2)"))),
    ("--1", _values("1", "1", "1")),
    ("1/2/2", _values("1/4", "1/4", "1/4")),
    ("z1^17", _values("0", "0", "0")),
    ("-i^2", _values("1", "1", "1")),
    ("3/2 + 1/2*i", _values("(3/2 + 1/2*i)", "(3/2 + 1/2*i)", "(3/2 + 1/2*i)")),
    ("i*i", _values("-1", "-1", "-1")),
    ("0", _values("0", "0", "0")),
    ("1/(1-z1)", _values("1 + z1 + z1^2 + z1^3 + z1^4 + z1^5 + z1^6", "1", "1 + z1")),
    ("z1/(2 - z1)", _values(
        "1/2*z1 + 1/4*z1^2 + 1/8*z1^3 + 1/16*z1^4 + 1/32*z1^5 + 1/64*z1^6", "0", "1/2*z1")),
    ("(1+i)^5/(1-i)", _values("-4*i", "-4*i", "-4*i")),
    ("2*z1 - 2*z1", _values("0", "0", "0")),
    ("1 + q1", _after_a_read(UNKNOWN_Q1)),
    ("z1 - 1/z1", _after_a_read(NON_UNIT)),
    ("(1 + z1)^3 - 1", _values("3*z1 + 3*z1^2 + z1^3", "0", "3*z1")),
    ("2 @ 1", _at_every_order((ParseError, "unknown character '@' (at position 2)"))),
    ("9" * 1300, _at_every_order(
        (ParseError, "integer literal of 1300 digits exceeds the limit of 4096 bits "
                     "(at position 0)"))),
    ("0*z1 + 5", _values("5", "5", "5")),
    ("(2/3 - i)*(z1 + 1/2)^2", _values(
        "(1/6 - 1/4*i) + (2/3 - i)*z1 + (2/3 - i)*z1^2", "(1/6 - 1/4*i)",
        "(1/6 - 1/4*i) + (2/3 - i)*z1")),
    # a monomial above the order is 0, in a sum too, and cancelling
    # monomials leave nothing
    ("z1^3*z2^4 + z1", _values("z1", "0", "z1")),
    ("-z1*z1b + z1b*z1", _values("0", "0", "0")),
    # a monomial power past the coefficient budget raises at its ^, unless
    # its square lies above the order
    ("(2^524288*z1)^2", (_budget(1048577, 13), TOO_HIGH, NEGATIVE, ("0", 0), ("0", 1))),
    # a sum whose bound passes the budget is measured at that operator: it
    # raises where the sum passes the budget, and goes on where it does not
    ("2^1048575*z1 + 2^1048575*z1",
     (_budget(1048577, 13), TOO_HIGH, NEGATIVE, ("0", 0), _budget(1048577, 13))),
    ("2^1048575*z1 - 2^1048575*z1 + 1", _values("1", "1", "1")),
    # so is a product of scalars and monomials
    ("2^1048575*2*z1", _after_a_read(_budget(1048577, 9))),
    ("2^1048575*z1*(2*z2)", (_budget(1048577, 12), TOO_HIGH, NEGATIVE, ("0", 0), ("0", 1))),
]


@pytest.mark.parametrize(
    "text, outcomes", PARITY_TABLE,
    ids=[text if len(text) < 40 else f"{len(text)}-digit literal" for text, _ in PARITY_TABLE],
)
def test_parity_table(text, outcomes):
    for order, expected in zip(PARITY_ORDERS, outcomes):
        if isinstance(expected[0], str):
            parsed = value(text, order)
            assert (str(parsed), parsed.order) == expected, (text, order)
            # the storage is the canonical one of its terms
            assert parsed == TruncatedSeries(CTX, parsed.order, parsed.terms), (text, order)
            continue
        kind, message = expected
        with pytest.raises(kind) as excinfo:
            value(text, order)
        assert type(excinfo.value) is kind, (text, order)
        assert str(excinfo.value) == message, (text, order)
        if kind is ParseError:
            assert message.endswith(f"(at position {excinfo.value.position})"), (text, order)


def test_a_long_sum_visits_each_term_a_bounded_number_of_times(monkeypatch):
    # a sum's bit count is bounded by its operands' counts plus one, so the
    # coefficient budget measures no partial sum of a 200-term sum while
    # that bound is within it: the terms that _bits visits grow linearly
    # with the number of terms, where measuring every partial sum visits
    # k(k + 1)/2 of them
    monomials = [e for e in itertools.product(range(7), repeat=CTX.arity) if sum(e) <= 6]
    terms = {e: GaussianRational(k % 7 + 1, k % 3) for k, e in enumerate(monomials[:200])}
    text = " + ".join(f"({c.re} + {c.im}*i)*{TruncatedSeries.zero(CTX, 6).monomial_text(e)}"
                      for e, c in terms.items())
    visits = []
    measure = TruncatedSeries._bits

    def spy(self):
        visits.append(sum(len(t) for t in self._grades.values()))
        return measure(self)

    monkeypatch.setattr(TruncatedSeries, "_bits", spy)
    parsed = value(text, 6)
    monkeypatch.undo()
    assert parsed == TruncatedSeries(CTX, 6, terms)
    assert sum(visits) <= 10 * len(terms)


# ----------------------------------------------------------------------
# parity property: a random expression tree, printed with the fewest
# parentheses its precedence needs (and some spare ones), parses to the
# value of the tree evaluated on series, every literal a constant series,
# or raises the error that evaluation raises

_ATOM, _POWER, _PRODUCT, _NEGATION, _SUM = 40, 30, 20, 15, 10
_PRECEDENCE = {"+": _SUM, "-": _SUM, "*": _PRODUCT, "/": _PRODUCT}


@st.composite
def expression_trees(draw, depth=0):
    kinds = ["literal", "i", "var"] + (["neg", "binary", "pow"] if depth < 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "literal":
        return ("literal", draw(st.integers(0, 12)))
    if kind == "i":
        return ("i",)
    if kind == "var":
        return ("var", draw(st.sampled_from(list(CTX.names))))
    if kind == "neg":
        return ("neg", draw(expression_trees(depth + 1)))
    if kind == "pow":
        return ("pow", draw(expression_trees(depth + 1)), draw(st.integers(0, 3)))
    symbol = draw(st.sampled_from("+-*/"))
    return (symbol, draw(expression_trees(depth + 1)), draw(expression_trees(depth + 1)))


def _render(tree, draw_paren):
    """(text, precedence) of a tree, with the parentheses that precedence
    and left associativity need, and a spare pair wherever ``draw_paren()``.
    A negation's operand runs on over * and /, so a negation takes the
    precedence between + and *."""
    kind = tree[0]
    if kind in ("literal", "var"):
        text, precedence = str(tree[1]), _ATOM
    elif kind == "i":
        text, precedence = "i", _ATOM
    elif kind == "neg":
        body, inner = _render(tree[1], draw_paren)
        text, precedence = "-" + (body if inner >= _NEGATION else f"({body})"), _NEGATION
    elif kind == "pow":
        base, inner = _render(tree[1], draw_paren)
        if inner < _POWER:
            base = f"({base})"
        text, precedence = f"{base}^{tree[2]}", _POWER
    else:
        precedence = _PRECEDENCE[kind]
        left, left_precedence = _render(tree[1], draw_paren)
        right, right_precedence = _render(tree[2], draw_paren)
        if left_precedence < precedence:
            left = f"({left})"
        if right_precedence <= precedence:
            right = f"({right})"
        text = f"{left} {kind} {right}"
    if draw_paren():
        return f"({text})", _ATOM
    return text, precedence


def _evaluate(tree, order):
    """The value of a tree on series: every literal and i a constant series."""
    kind = tree[0]
    if kind == "literal":
        return TruncatedSeries.constant(CTX, order, tree[1])
    if kind == "i":
        return TruncatedSeries.constant(CTX, order, I)
    if kind == "var":
        return TruncatedSeries.variable(CTX, order, tree[1])
    if kind == "neg":
        return -_evaluate(tree[1], order)
    if kind == "pow":
        return _evaluate(tree[1], order) ** tree[2]
    left = _evaluate(tree[1], order)
    right = _evaluate(tree[2], order)
    if kind != "/":
        return _BINARY[kind](left, right)
    if not right.constant_term():
        raise NonUnitError("division by a series with zero constant term")
    return left * right.invert_unit()


@settings(max_examples=150, deadline=None)
@given(expression_trees(), st.integers(0, 3), st.data())
def test_expression_tree_parity(tree, order, data):
    text, _ = _render(tree, lambda: data.draw(st.integers(0, 3)) == 0)
    try:
        expected = _evaluate(tree, order)
    except NonUnitError as error:
        with pytest.raises(NonUnitError) as excinfo:
            ps.parse_series(text, CTX, order)
        assert str(excinfo.value) == str(error)
        return
    parsed = ps.parse_series(text, CTX, order)
    assert parsed == expected, text
    assert parsed.order == expected.order, text


# ----------------------------------------------------------------------
# polynomial parity: a +/- chain of monomials in the shape of the
# benchmark inputs, such as (1/2*i)*z1*z2b^2, with an occasional
# parenthesized sum among the factors, parses to the chain evaluated with
# the series operators, in storage and order

_COEFFICIENTS = [
    ("3", GaussianRational(3)),
    ("(-1)", GaussianRational(-1)),
    ("(1/2*i)", GaussianRational(0, Fraction(1, 2))),
    ("(-1/2*i)", GaussianRational(0, Fraction(-1, 2))),
    ("(1/4)", GaussianRational(Fraction(1, 4))),
    ("(2/3 - 1/5*i)", GaussianRational(Fraction(2, 3), Fraction(-1, 5))),
    ("i", I),
]
# parenthesized sums among the factors, and their series at an order
_SUMS = {
    "(1 - z2)": lambda order: (TruncatedSeries.constant(CTX, order, 1)
                               - TruncatedSeries.variable(CTX, order, "z2")),
    "(z1 + 1/3)": lambda order: (TruncatedSeries.variable(CTX, order, "z1")
                                 + TruncatedSeries.constant(CTX, order, Fraction(1, 3))),
}


def _factor(name, exponent):
    return name if exponent == 1 else f"{name}^{exponent}"


@st.composite
def polynomials(draw):
    """A list of (sign, coefficient or None, factors): each factor a
    (variable, exponent) pair or the text of a parenthesized sum."""
    factor = st.one_of(st.tuples(st.sampled_from(CTX.names), st.integers(1, 4)),
                       st.sampled_from(sorted(_SUMS)))
    return draw(st.lists(st.tuples(st.sampled_from("+-"),
                                   st.none() | st.sampled_from(_COEFFICIENTS),
                                   st.lists(factor, max_size=3)),
                         min_size=1, max_size=8))


def _polynomial_text(polynomial):
    pieces = []
    for sign, coefficient, factors in polynomial:
        texts = [] if coefficient is None else [coefficient[0]]
        texts += [f if isinstance(f, str) else _factor(*f) for f in factors]
        term = "*".join(texts) or "1"
        pieces.append(("-" if sign == "-" else "") + term if not pieces else f"{sign} {term}")
    return " ".join(pieces)


def _polynomial_series(polynomial, order):
    """The chain on series: every coefficient a constant series, every
    variable power a power of the variable, summed left to right."""
    total = None
    for sign, coefficient, factors in polynomial:
        term = TruncatedSeries.constant(CTX, order, 1 if coefficient is None else coefficient[1])
        for f in factors:
            term = term * (_SUMS[f](order) if isinstance(f, str)
                           else TruncatedSeries.variable(CTX, order, f[0]) ** f[1])
        if total is None:
            total = -term if sign == "-" else term
        else:
            total = total + term if sign == "+" else total - term
    return total


_BENCHMARK_SHAPED = [
    ("+", ("(-1)", GaussianRational(-1)), [("wb", 1)]),
    ("+", None, [("z2", 1), ("z2b", 1)]),
    ("+", _COEFFICIENTS[2], [("z2", 1), ("z1b", 1), ("z2b", 1)]),
    ("+", _COEFFICIENTS[3], [("z1", 1), ("z2", 1), ("z2b", 2)]),
    ("+", _COEFFICIENTS[4], [("z1", 1), ("z2", 1), ("z1b", 1), ("z2b", 1)]),
]


@settings(max_examples=150, deadline=None)
@given(polynomials(), st.integers(0, 6))
# the benchmark's shape, with its quartic term at and above the order
@example(_BENCHMARK_SHAPED, 4)
@example(_BENCHMARK_SHAPED, 3)
# cancelling monomials, written in two variable orders
@example([("+", _COEFFICIENTS[2], [("z1", 1), ("z2b", 2)]),
          ("-", _COEFFICIENTS[2], [("z2b", 2), ("z1", 1)])], 6)
# a monomial above the order next to one within it, and a power of one
@example([("-", None, [("z1", 4)]), ("+", _COEFFICIENTS[0], [("z2", 2), ("z2", 1)])], 3)
# scalars only, cancelling, and a scalar next to monomials and a sum
@example([("+", _COEFFICIENTS[0], []), ("-", _COEFFICIENTS[0], [])], 2)
@example([("+", _COEFFICIENTS[4], []), ("+", None, [("z1", 1)]),
          ("-", _COEFFICIENTS[5], ["(1 - z2)", ("z1b", 2)])], 4)
def test_polynomial_text_parity(polynomial, order):
    text = _polynomial_text(polynomial)
    expected = _polynomial_series(polynomial, order)
    parsed = ps.parse_series(text, CTX, order)
    assert (parsed._den, parsed._grades) == (expected._den, expected._grades), text
    assert parsed.order == expected.order, text
