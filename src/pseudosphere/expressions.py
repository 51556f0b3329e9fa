"""Parsing of defining-function expressions into truncated series.

Grammar: nonnegative integer literals, the imaginary unit ``i``,
identifiers (``z1``, ``z1b``, ``wb``, ``x1``, ``y``, ``yx1``, ``a1``,
``b``, ``w``, ``wz1``, ...), binary ``+ - * /``, unary minus, ``^`` with
a nonnegative integer literal exponent, and parentheses.  ``^`` binds
tightest, then ``* /``, then ``+ -``; the binary operators associate to
the left.  Rationals are written as quotients, e.g. ``3/2``.

Parsing evaluates directly: each rule of the Pratt parser returns the
exact value of the text it consumed, and no syntax tree is built.  A
text without variables evaluates to a scalar: literals and ``i`` are
Q(i) scalars, and a series first appears at the first variable, so a
value is wrapped as a series once, not once per literal.  Mixed operands
meet through the operators the two types share (a product with a scalar
is a scaling), and ``parse_series`` wraps a scalar result as a constant
series.  The series order is checked where a literal or a variable is
read, as the series constructors check it.  The whole text is tokenized
first, so an unknown character is reported before anything is
evaluated; an unknown variable or a non-unit divisor is reported where
it is met, before any later syntax error.

Evaluation has input budgets, each a ParseError that names its limit: an
integer literal has at most ``_MAX_LITERAL_BITS`` bits, an exponent is at
most ``_MAX_EXPONENT``, and no value the parser evaluates, scalar or
series, the squares of a power included, has a numerator or denominator
of more than ``_MAX_COEFFICIENT_BITS`` bits; a scalar counts as its
constant series.  They bound the work of any text, also
the well-formed prefix that a malformed text evaluates before its syntax
error is found.  Each value carries its bit count: a product or a power
is measured, while a sum carries the bound bits(a) + bits(b) + 1 and is
measured only when that bound passes the budget, so a k-term sum is not
measured k times.
"""

from __future__ import annotations

import operator

from .errors import NonUnitError, ParseError
from .scalars import I as IMAG_UNIT, MESSAGE_BITS, ONE, GaussianRational, _bits, _coerce
from .series import TruncatedSeries, VariableContext, _check_order

# Input budgets.  A literal prints back in full (see scalars.brief_str); the
# coefficient budget holds 3^300000 but not the 2^(2^20) that the exponent
# budget could ask for.
_MAX_LITERAL_BITS = MESSAGE_BITS
_MAX_EXPONENT = 2 ** 20
_MAX_COEFFICIENT_BITS = 2 ** 20
# a literal of more digits than 2^_MAX_LITERAL_BITS has exceeds that budget
_MAX_LITERAL_DIGITS = len(str(2 ** _MAX_LITERAL_BITS))


# ----------------------------------------------------------------------
# tokenizer


_OPERATORS = "+-*/^()"


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < length and text[pos].isdigit():
                pos += 1
            tokens.append(("int", text[start:pos], start))  # converted when read
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < length and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unknown character {ch!r}", pos)
    tokens.append(("end", None, length))
    return tokens


# ----------------------------------------------------------------------
# Pratt parser, evaluating as it parses


def _divide(numerator, denominator):
    if denominator.__class__ is GaussianRational:
        if not denominator:
            raise NonUnitError("division by a series with zero constant term")
        return numerator * (ONE / denominator)
    if not denominator.constant_term():
        raise NonUnitError("division by a series with zero constant term")
    return numerator * denominator.invert_unit()


_BINARY_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_MINUS_PRECEDENCE = 15
_BINARY_OPERATION = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}


class _Parser:
    def __init__(self, text: str, context: VariableContext, order: int):
        self.tokens = _tokenize(text)
        self.index = 0
        self.context = context
        self.order = order

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind):
        token = self.advance()
        if token[0] != kind:
            found = "end of expression" if token[0] == "end" else repr(token[1])
            raise ParseError(f"expected {kind!r}, found {found}", token[2])
        return token

    def parse_expression(self, min_precedence=0):
        """The scalar or series of the expression at the current token, and
        a bound on its bit count within the coefficient budget."""
        value, bits = self.parse_prefix()
        while True:
            kind, _, position = self.peek()
            precedence = _BINARY_PRECEDENCE.get(kind)
            if precedence is None or precedence < min_precedence:
                return value, bits
            self.advance()
            if kind == "^":
                value, bits = self.power(value, bits, self.parse_exponent(), position)
                continue
            # left associative: the right operand binds one level tighter
            right, right_bits = self.parse_expression(precedence + 1)
            # a sum's bit count is at most bits + right_bits + 1
            bound = bits + right_bits + 1 if kind in "+-" else None
            value, bits = _budgeted(_BINARY_OPERATION[kind](value, right), position, bound)

    def power(self, base, bits, exponent, position):
        """base ** exponent by repeated squaring, each step within budget,
        and its bit count, where ``bits`` is the base's.

        The first factor is taken as it is, not multiplied into 1: it is
        the base or one of its squares, each within budget already."""
        result = None
        while exponent:
            if exponent & 1:
                result, result_bits = ((base, bits) if result is None
                                       else _budgeted(result * base, position))
            exponent >>= 1
            if exponent:
                base, bits = _budgeted(base * base, position)
        return (ONE, 1) if result is None else (result, result_bits)

    def parse_prefix(self):
        """The value of the prefix at the current token and its bit count."""
        kind, value, position = self.advance()
        if kind == "int":
            value = _coerce(_integer(value, position))
            _check_order(self.order)
            return value, _bits(value)
        if kind == "ident":
            if value == "i":
                _check_order(self.order)
                return IMAG_UNIT, 1
            return TruncatedSeries.variable(self.context, self.order, value), 1
        if kind == "-":
            value, bits = self.parse_expression(_UNARY_MINUS_PRECEDENCE)
            return -value, bits
        if kind == "(":
            value = self.parse_expression()
            self.expect(")")
            return value
        found = "end of expression" if kind == "end" else f"token {value!r}"
        raise ParseError(f"unexpected {found}", position)

    def parse_exponent(self) -> int:
        kind, value, position = self.advance()
        if kind != "int":
            raise ParseError(
                "exponent must be a nonnegative integer literal", position
            )
        value = _integer(value, position)
        if value > _MAX_EXPONENT:
            raise ParseError(
                f"exponent {value} exceeds the limit of {_MAX_EXPONENT}", position
            )
        return value


def _integer(digits: str, position: int) -> int:
    """The value of an integer literal's digits within the literal budget;
    the digits are counted first, so no conversion is ever too long."""
    if len(digits.lstrip("0")) > _MAX_LITERAL_DIGITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the limit of "
            f"{_MAX_LITERAL_BITS} bits", position
        )
    value = int(digits)
    if value.bit_length() > _MAX_LITERAL_BITS:
        raise ParseError(
            f"integer literal of {value.bit_length()} bits exceeds the limit of "
            f"{_MAX_LITERAL_BITS} bits", position
        )
    return value


def _budgeted(value, position: int, bound=None):
    """``value``, a scalar or a series, and its bit count, after checking
    the coefficient budget at the operator at ``position``.

    ``bound``, when given, is an upper bound on the bit count, and stands
    for it while it is within the budget; only a bound past the budget, or
    none, has the value measured, which visits all of its terms.  So a
    k-term sum, whose bound is the operands' counts plus one, visits no
    term of its partial sums until that bound passes the budget."""
    if bound is not None and bound <= _MAX_COEFFICIENT_BITS:
        return value, bound
    bits = _bits(value) if value.__class__ is GaussianRational else value._bits()
    if bits > _MAX_COEFFICIENT_BITS:
        raise ParseError(
            f"a coefficient of {bits} bits exceeds the limit of "
            f"{_MAX_COEFFICIENT_BITS} bits", position
        )
    return value, bits


def parse_series(text: str, context: VariableContext, order: int) -> TruncatedSeries:
    """The exact series of an expression in ``context``, truncated at
    ``order``.  Raises ParseError (with the 0-based position),
    UnknownVariableError or NonUnitError."""
    parser = _Parser(text, context, order)
    value, _ = parser.parse_expression()
    kind, token, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {token!r}", position)
    if value.__class__ is GaussianRational:
        return TruncatedSeries.constant(context, order, value)
    return value
