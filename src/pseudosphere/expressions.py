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
Q(i) scalars, and a chain of scalars stays a scalar.  A product of
scalars, variables and their powers stays one term: a Q(i) coefficient,
a packed key and a degree, multiplied with no series formed; a term
above the order, or with coefficient 0, is the zero series of that
order.  A ``+``/``-`` chain collects its operands and closes once: a
chain of scalars into their sum, any other into one storage, by one
call of the weighted-sum loop ``series._combination``, where a chain of
k operands summed one at a time would build and normalize k - 1 series.
Anything else (a term times a series, a quotient by a series, a power
of a series) goes through the series operators, with a term as its
one-term series.
``parse_series`` wraps a scalar or term result as a series.  The series
order is checked where a literal or a variable is read, as the series
constructors check it.  The whole text is tokenized first, so an
unknown character is reported before anything is evaluated; an unknown
variable or a non-unit divisor is reported where it is met, before any
later syntax error.

Evaluation has input budgets, each a ParseError that names its limit: an
integer literal has at most ``_MAX_LITERAL_BITS`` bits, an exponent is at
most ``_MAX_EXPONENT``, and no value the parser evaluates, scalar, term
or series, the squares of a power included, has a numerator or
denominator of more than ``_MAX_COEFFICIENT_BITS`` bits; a scalar or a
term counts as its series.  They bound the work of any text, also
the well-formed prefix that a malformed text evaluates before its syntax
error is found.  Each value carries a bound on its bit count: a sum, and
a product of scalars and terms, carry the bound bits(a) + bits(b) + 1 and
are measured only when that bound passes the budget, so a k-term sum or
product is not measured k times; a power, a quotient and a product with a
series are measured.  A value past the budget raises at the first
operator that forms it, with its measured bit count, whatever the bounds
before it: its bound is past the budget too.  A chain closes early at an
operator where the bound passes the budget, so that partial sum is
measured there, as it would be had each sum been formed.
"""

from __future__ import annotations

from .errors import NonUnitError, ParseError
from .scalars import I as IMAG_UNIT, MESSAGE_BITS, ONE, GaussianRational, _bits, _coerce
from .series import TruncatedSeries, VariableContext, _check_order, _combination

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
# ASCII only: str.isdigit and str.isalnum also accept a superscript or a
# non-ASCII digit, which int() rejects or reads as an ASCII one
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME = _NAME_START | _DIGITS


def _tokenize(text: str):
    """The (kind, value, position) tokens of ``text``, then ("end", None,
    len(text)).  A literal is ASCII digits, a name an ASCII letter or
    underscore followed by ASCII letters, digits and underscores; any
    other character that is neither an operator nor whitespace raises
    ParseError at its position."""
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch in _OPERATORS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        start = pos
        if ch in _DIGITS:
            pos += 1
            while pos < length and text[pos] in _DIGITS:
                pos += 1
            tokens.append(("int", text[start:pos], start))  # converted when read
            continue
        if ch in _NAME_START:
            pos += 1
            while pos < length and text[pos] in _NAME:
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        raise ParseError(f"unknown character {ch!r}", pos)
    tokens.append(("end", None, length))
    return tokens


# ----------------------------------------------------------------------
# Pratt parser, evaluating as it parses


class _Term:
    """The monomial coefficient * x^key of degree 1 to the parser's order,
    with a nonzero coefficient: a value that is not yet a series."""

    __slots__ = ("coefficient", "key", "degree")

    def __init__(self, coefficient, key, degree):
        self.coefficient = coefficient
        self.key = key
        self.degree = degree

    def __neg__(self):
        return _Term(-self.coefficient, self.key, self.degree)

    def _bits(self) -> int:
        """The bit count of the term's series, that of its coefficient."""
        return _bits(self.coefficient)


_SUM_PRECEDENCE = 10
_BINARY_PRECEDENCE = {"+": _SUM_PRECEDENCE, "-": _SUM_PRECEDENCE, "*": 20, "/": 20, "^": 30}
_UNARY_MINUS_PRECEDENCE = 15
_NON_UNIT = "division by a series with zero constant term"


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
        """The scalar, term or series of the expression at the current
        token, and a bound on its bit count within the coefficient budget."""
        value, bits = self.parse_prefix()
        while True:
            kind, _, position = self.peek()
            precedence = _BINARY_PRECEDENCE.get(kind)
            if precedence is None or precedence < min_precedence:
                return value, bits
            self.advance()
            if kind == "^":
                value, bits = self.power(value, bits, self.parse_exponent(), position)
            elif precedence == _SUM_PRECEDENCE:
                # the right operands bind tighter, so only + and - follow
                return self.parse_sum(value, bits, kind, position)
            else:
                # left associative: the right operand binds one level tighter
                right, right_bits = self.parse_expression(precedence + 1)
                if kind == "/":
                    value, bits = _budgeted(self.divide(value, right), position)
                    continue
                value = self.multiply(value, right)
                # a product of scalars and terms has at most bits + right_bits
                # + 1 bits; a product with a series is measured
                bits += right_bits + 1
                if value.__class__ is TruncatedSeries or bits > _MAX_COEFFICIENT_BITS:
                    value, bits = _budgeted(value, position)

    def parse_sum(self, value, bits, kind, position):
        """The value of the +/- chain whose first operand is ``value`` and
        whose first operator, ``kind`` at ``position``, has been read, and
        its bit count.

        The operands are collected and closed once.  The bit count is the
        bound of each sum, bits(a) + bits(b) + 1; at an operator where
        that bound passes the budget, the chain so far is closed and
        measured there, and it goes on from that partial sum."""
        operands = [(1, value)]
        while True:
            right, right_bits = self.parse_expression(_SUM_PRECEDENCE + 1)
            operands.append((1 if kind == "+" else -1, right))
            bits += right_bits + 1
            if bits > _MAX_COEFFICIENT_BITS:
                value, bits = _budgeted(self.closed(operands), position)
                operands = [(1, value)]
            kind, _, position = self.peek()
            if kind != "+" and kind != "-":
                return self.closed(operands), bits
            self.advance()

    def closed(self, operands):
        """The sum of sign * value over ``operands``: a scalar when every
        value is one, else the series of one ``_combination`` call."""
        if all(value.__class__ is GaussianRational for _, value in operands):
            total = operands[0][1]
            for sign, value in operands[1:]:
                total = total + value if sign > 0 else total - value
            return total
        return TruncatedSeries._valid(self.context, self.order, *_combination(
            [(sign, *self.storage(value)) for sign, value in operands], self.order))

    def term(self, coefficient, key, degree):
        """The term coefficient * x^key of ``degree``, or the zero series of
        the order where the coefficient is 0 or the degree passes it."""
        if degree > self.order or not coefficient:
            return TruncatedSeries._valid(self.context, self.order, 1, {})
        return _Term(coefficient, key, degree)

    @staticmethod
    def storage(value):
        """The (denominator, grades) storage of a scalar, a term or a series."""
        cls = value.__class__
        if cls is TruncatedSeries:
            return value._den, value._grades
        if cls is GaussianRational:
            return value._d, {0: {0: (value._a, value._b)}}
        c = value.coefficient
        return c._d, {value.degree: {value.key: (c._a, c._b)}}

    def series(self, value):
        """A term as its one-term series; any other value as it is."""
        if value.__class__ is _Term:
            return TruncatedSeries._valid(self.context, self.order, *self.storage(value))
        return value

    def multiply(self, left, right):
        """left * right: a term where both are terms or scalars, else
        through the series operators."""
        if left.__class__ is _Term:
            if right.__class__ is _Term:
                # a variable's coefficient is ONE itself, and needs no product
                a, b = left.coefficient, right.coefficient
                return self.term(a if b is ONE else b if a is ONE else a * b,
                                 left.key + right.key, left.degree + right.degree)
            if right.__class__ is GaussianRational:
                return self.term(left.coefficient * right, left.key, left.degree)
            left = self.series(left)
        elif right.__class__ is _Term:
            if left.__class__ is GaussianRational:
                return self.term(left * right.coefficient, right.key, right.degree)
            right = self.series(right)
        return left * right

    def divide(self, numerator, denominator):
        """numerator / denominator, which must be a unit: a nonzero scalar
        or a series with a nonzero constant term (a term has none)."""
        if denominator.__class__ is GaussianRational:
            if not denominator:
                raise NonUnitError(_NON_UNIT)
            return self.multiply(numerator, ONE / denominator)
        if denominator.__class__ is _Term or not denominator.constant_term():
            raise NonUnitError(_NON_UNIT)
        return self.multiply(numerator, denominator.invert_unit())

    def power(self, base, bits, exponent, position):
        """base ** exponent by repeated squaring, each step within budget,
        and its bit count, where ``bits`` is the base's.

        The first factor is taken as it is, not multiplied into 1: it is
        the base or one of its squares, each within budget already."""
        result = None
        while exponent:
            if exponent & 1:
                result, result_bits = ((base, bits) if result is None
                                       else _budgeted(self.multiply(result, base), position))
            exponent >>= 1
            if exponent:
                base, bits = _budgeted(self.multiply(base, base), position)
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
            shift = self.context._shifts[self.context.index(value)]
            _check_order(self.order)
            return self.term(ONE, 1 << shift, 1), 1
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


def _budgeted(value, position: int):
    """``value``, a scalar, a term or a series, and its bit count, measured,
    after checking the coefficient budget at the operator at ``position``."""
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
    return parser.series(value)
