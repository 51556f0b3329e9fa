"""Truncated multivariate formal power series over Gaussian rationals.

A series carries a *guaranteed order*: every coefficient of total degree
up to ``order`` is exact, and nothing is claimed beyond it.  Operations
propagate the worst-case guaranteed order of their output (a partial
derivative loses one degree, products and compositions take minima), so
a chain of operations always knows how far its result can be trusted.

Two rules make a zero series cost no more than a call.  A product with
an empty operand is the empty series of the lower operand order: every
term of the true product lies above that order, and nothing is claimed
beyond it.  A sum or difference of two series of the same order, one of
them empty, is the other operand itself (negated in ``empty - b``); at
unequal orders the sum is still cut to the lower order.  Series are
immutable by convention, so returning an operand shares no state that
anyone changes.
"""

from __future__ import annotations

from operator import add

from .errors import (
    CompositionError,
    ContextMismatchError,
    InsufficientOrderError,
    NonUnitError,
    UnknownVariableError,
)
from .scalars import (
    GaussianRational,
    ONE,
    ZERO,
    _coerce,
    _multiply_add,
    _numerators,
    _reduced,
)


class VariableContext:
    """An ordered tuple of distinct variable names.

    The order is significant: it fixes the positions of exponent
    multi-indices for every series sharing the context.
    """

    __slots__ = ("names", "_positions")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in context: {names}")
        self.names = names
        self._positions = {name: k for k, name in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownVariableError(
                f"variable {name!r} not in context {self.names}"
            ) from None

    def __contains__(self, name):
        return name in self._positions

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableContext({self.names!r})"


def graded_lex(exps):
    """Sort key of a multi-index: total degree first, then lexicographic."""
    return (sum(exps), exps)


def _check_same_context(a, b):
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"contexts differ: {a.context.names} vs {b.context.names}"
        )


def _product_terms(left, right, limit):
    """The terms of total degree <= ``limit`` of the product of two term dicts.

    This is the one Cauchy-product loop.  The caller vouches for the limit:
    ``__mul__`` passes the smaller operand order; a caller that knows the
    valuation of a factor may pass more (see ``implicit``).  Zero sums are
    dropped, so the result meets the invariant of ``TruncatedSeries._valid``.

    A one-term operand gives one product per term of the other, each on its
    own key: nothing accumulates, and no product of two nonzero scalars is
    zero.  Otherwise each operand is brought over its own common
    denominator, the Gaussian-integer numerators of each key are summed
    with integer operations only, and each output coefficient is built once
    over the product of the two denominators, with one reduction.
    """
    if len(left) == 1:
        left, right = right, left
    if len(right) == 1:
        (eb, cb), = right.items()
        room = limit - sum(eb)
        return {tuple(map(add, ea, eb)): ca * cb
                for ea, ca in left.items() if sum(ea) <= room}
    dl, lefts = _numerators(left)
    dr, rights = _numerators(right)
    # bucketing the right factor by degree lets each left term skip
    # everything that would overflow the limit
    buckets = {}
    for term in rights:
        buckets.setdefault(sum(term[0]), []).append(term)
    sums = {}  # key -> [real, imaginary] numerator over dl * dr
    for ea, a1, b1 in lefts:
        room = limit - sum(ea)
        if room < 0:
            continue
        for db, items in buckets.items():
            if db > room:
                continue
            for eb, a2, b2 in items:
                key = tuple(map(add, ea, eb))
                acc = sums.get(key)
                if acc is None:
                    sums[key] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                else:
                    acc[0] += a1 * a2 - b1 * b2
                    acc[1] += a1 * b2 + b1 * a2
    d = dl * dr
    return {key: _reduced(a, b, d) for key, (a, b) in sums.items() if a or b}


def _add_into(acc, terms, factor=None):
    """acc += factor * terms (factor 1 if None), coefficientwise, in place;
    zero sums are dropped.  With a factor, each new coefficient is one
    multiply-add with one reduction."""
    for e, c in terms.items():
        total = acc.get(e)
        if factor is None:
            total = c if total is None else total + c
        else:
            total = factor * c if total is None else _multiply_add(total, factor, c)
        if total:
            acc[e] = total
        else:
            del acc[e]


def _subtract_into(acc, terms):
    """acc -= terms, coefficientwise, in place; zero differences are dropped."""
    for e, c in terms.items():
        c = -c
        total = acc.get(e)
        total = c if total is None else total + c
        if total:
            acc[e] = total
        else:
            del acc[e]


def _sum(a, b, subtract):
    """a + b, or a - b when ``subtract``, at the lower of the two orders.

    At one order no operand term lies above it, so an empty operand leaves
    the other as it is; otherwise the higher operand is cut first.  The
    lower operand's terms come first in the result.
    """
    _check_same_context(a, b)
    if a.order == b.order:
        if not b.terms:
            return a
        if not a.terms:
            return -b if subtract else b
    if a.order <= b.order:
        order = a.order
        terms = dict(a.terms)
        other = b.terms if b.order == order else {
            e: c for e, c in b.terms.items() if sum(e) <= order}
        (_subtract_into if subtract else _add_into)(terms, other)
    else:
        order = b.order
        terms = {e: -c for e, c in b.terms.items()} if subtract else dict(b.terms)
        _add_into(terms, {e: c for e, c in a.terms.items() if sum(e) <= order})
    return TruncatedSeries._valid(a.context, order, terms)


def _compose(series_list, assignment, target_context=None):
    """Compose every series of ``series_list`` under one assignment.

    This is the one composition kernel; ``TruncatedSeries.substitute`` is
    it applied to a one-element list.  The series share one source
    context, and the assignment follows ``substitute``'s rules.  Output j
    is guaranteed to the smaller of series j's order and the lowest order
    among the assigned values; its monomials of higher degree are skipped,
    since their images have a valuation above that order.

    The assignment is validated once, and each value's list of powers is
    built lazily, once per call.  The kept monomials of all the series
    are then walked once, in lexicographic order, so monomials that agree
    on their leading exponents are neighbours.  A stack holds the prefix
    products value_0^e_0 * ... * value_i^e_i of the current monomial, one
    entry per nonzero exponent, so at most one per source variable.  A
    monomial pops the entries past the first position where it differs
    from the one before and multiplies out only the rest; a monomial that
    several series share has its image computed once.  Products are cut
    at the highest output order, and a lower output reads only its part.
    """
    series_list = list(series_list)
    if not series_list:
        raise ValueError("no series to compose")
    first = series_list[0]
    for s in series_list[1:]:
        _check_same_context(first, s)
    source_context = first.context
    assignment = dict(assignment or {})
    for name in assignment:
        source_context.index(name)  # raises if undeclared
    if target_context is None:
        for s in assignment.values():
            target_context = s.context
            break
        else:
            raise ValueError("empty assignment requires an explicit target context")
    value_order = None  # the lowest order among the assigned values
    for name, s in assignment.items():
        if s.context != target_context:
            raise ContextMismatchError(
                f"assignment for {name!r} lives in {s.context.names}, "
                f"expected {target_context.names}"
            )
        if s.constant_term():
            raise CompositionError(
                f"assignment for {name!r} has a nonzero constant term"
            )
        if value_order is None or s.order < value_order:
            value_order = s.order
    orders = [s.order if value_order is None else min(s.order, value_order)
              for s in series_list]
    limit = max(orders)

    # per context variable: its assigned series, or its index in the
    # target context (which raises here for an unknown pass-through name)
    sources = [
        assignment[name] if name in assignment else target_context.index(name)
        for name in source_context.names
    ]
    arity = target_context.arity
    powers = [None] * len(sources)  # powers[i][k - 1]: the terms of value_i^k

    def power(i, k):
        cache = powers[i]
        if cache is None:
            source = sources[i]
            if isinstance(source, TruncatedSeries):
                base = {e: c for e, c in source.terms.items() if sum(e) <= limit}
            else:
                unit = [0] * arity
                unit[source] = 1
                base = {tuple(unit): ONE}
            cache = powers[i] = [base]
        while len(cache) < k:
            cache.append(_product_terms(cache[-1], cache[0], limit))
        return cache[k - 1]

    # every kept monomial, with the (output, coefficient) pairs that use it
    uses = {}
    for j, (s, order) in enumerate(zip(series_list, orders)):
        for exps, coeff in s.terms.items():
            if sum(exps) <= order:
                entry = uses.get(exps)
                if entry is None:
                    uses[exps] = [(j, coeff)]
                else:
                    entry.append((j, coeff))

    outs = [{} for _ in series_list]
    one = {(0,) * arity: ONE}
    stack = []  # (position, prefix product through that position)
    previous = None
    for exps, users in sorted(uses.items()):
        start = 0
        if previous is not None:
            while exps[start] == previous[start]:
                start += 1
            while stack and stack[-1][0] >= start:
                stack.pop()
        image = stack[-1][1] if stack else None
        for i in range(start, len(exps)):
            k = exps[i]
            if k:
                factor = power(i, k)
                image = factor if image is None else _product_terms(image, factor, limit)
                stack.append((i, image))
        previous = exps
        if image is None:
            image = one
        for j, coeff in users:
            if orders[j] < limit:
                cut = orders[j]
                _add_into(outs[j], {e: c for e, c in image.items() if sum(e) <= cut}, coeff)
            else:
                _add_into(outs[j], image, coeff)
    return [TruncatedSeries._valid(target_context, order, out)
            for order, out in zip(orders, outs)]


class TruncatedSeries:
    """A sparse formal power series truncated at a guaranteed total degree.

    ``terms`` maps exponent tuples (one entry per context variable) to
    nonzero :class:`GaussianRational` coefficients; every stored
    multi-index has total degree at most ``order``.
    """

    __slots__ = ("context", "order", "terms")

    def __init__(self, context: VariableContext, order: int, terms=None):
        if order < 0:
            raise InsufficientOrderError(f"series order must be >= 0, got {order}")
        self.context = context
        self.order = order
        clean = {}
        if terms:
            arity = context.arity
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != arity:
                    raise ValueError(f"multi-index {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if sum(exps) > order:
                    continue
                coeff = _coerce(coeff)
                if coeff:
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _valid(cls, context, order, terms):
        """Wrap ``terms`` without copying or checking it.

        Only for dicts an operation has built to the class invariant: keys
        of the context's arity and total degree at most ``order``, values
        nonzero scalars.  Outside input goes through ``__init__``.
        """
        self = object.__new__(cls)
        self.context = context
        self.order = order
        self.terms = terms
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, context, order):
        if order < 0:
            raise InsufficientOrderError(f"series order must be >= 0, got {order}")
        return cls._valid(context, order, {})

    @classmethod
    def constant(cls, context, order, value):
        scalar = _coerce(value)
        if scalar is None:
            raise TypeError(f"cannot use {value!r} as a coefficient")
        if order < 0:
            raise InsufficientOrderError(f"series order must be >= 0, got {order}")
        return cls._valid(context, order, {(0,) * context.arity: scalar} if scalar else {})

    @classmethod
    def variable(cls, context, order, name):
        exps = [0] * context.arity
        exps[context.index(name)] = 1
        return cls(context, order, {tuple(exps): ONE})

    # ------------------------------------------------------------------
    # inspection

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.context.arity, ZERO)

    def coefficient(self, exps) -> GaussianRational:
        return self.terms.get(tuple(exps), ZERO)

    def coefficient_of(self, **powers) -> GaussianRational:
        exps = [0] * self.context.arity
        for name, power in powers.items():
            exps[self.context.index(name)] = power
        return self.coefficient(exps)

    def is_zero(self, through_order=None) -> bool:
        if through_order is None:
            return not self.terms
        return all(sum(e) > through_order for e in self.terms)

    def agrees_with(self, other, through_order=None) -> bool:
        """Coefficientwise equality for all total degrees <= through_order.

        The default comparison order is the smaller of the two guaranteed
        orders, which is the largest jet on which both sides are exact.
        """
        _check_same_context(self, other)
        d = min(self.order, other.order)
        if through_order is not None:
            d = min(d, through_order)
        return (self - other).is_zero(through_order=d)

    def homogeneous_part(self, degree: int) -> dict:
        return {e: c for e, c in self.terms.items() if sum(e) == degree}

    def first_term(self):
        """The graded-lex smallest (exponents, coefficient); None if zero."""
        if not self.terms:
            return None
        exps = min(self.terms, key=graded_lex)
        return exps, self.terms[exps]

    # ------------------------------------------------------------------
    # ring operations

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    __hash__ = None  # mutable-ish payload, keep unhashable

    def __neg__(self):
        return TruncatedSeries._valid(
            self.context, self.order, {e: -c for e, c in self.terms.items()}
        )

    def _lift(self, other):
        """A non-series operand as the constant series of self's context
        and order; None when it is not a scalar either."""
        if isinstance(other, TruncatedSeries):
            return other
        scalar = _coerce(other)
        if scalar is None:
            return None
        return TruncatedSeries.constant(self.context, self.order, scalar)

    def __add__(self, other):
        if other.__class__ is not TruncatedSeries:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return _sum(self, other, False)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not TruncatedSeries:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return _sum(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar) -> "TruncatedSeries":
        value = _coerce(scalar)
        if value is None:
            raise TypeError(f"cannot scale by {scalar!r}")
        if not value:
            return TruncatedSeries.zero(self.context, self.order)
        # a nonzero scalar keeps every coefficient nonzero
        return TruncatedSeries._valid(
            self.context, self.order, {e: c * value for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if other.__class__ is not TruncatedSeries:
            scalar = _coerce(other)
            if scalar is not None:
                return self.scale(scalar)
            if not isinstance(other, TruncatedSeries):
                return NotImplemented
        _check_same_context(self, other)
        order = min(self.order, other.order)
        if not self.terms or not other.terms:
            return TruncatedSeries._valid(self.context, order, {})
        return TruncatedSeries._valid(
            self.context, order, _product_terms(self.terms, other.terms, order)
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        result = TruncatedSeries.constant(self.context, self.order, ONE)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # ------------------------------------------------------------------
    # calculus

    def partial(self, name: str) -> "TruncatedSeries":
        """Formal partial derivative; the guaranteed order drops by one."""
        if self.order == 0:
            raise InsufficientOrderError(
                "cannot differentiate a series of guaranteed order 0"
            )
        i = self.context.index(name)
        terms = {}
        for e, c in self.terms.items():
            k = e[i]
            if not k:
                continue
            shifted = e[:i] + (k - 1,) + e[i + 1 :]
            terms[shifted] = c * k
        return TruncatedSeries._valid(self.context, self.order - 1, terms)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict the guaranteed order (never raises it)."""
        if order > self.order:
            raise InsufficientOrderError(
                f"cannot extend guaranteed order {self.order} to {order}"
            )
        if order == self.order:
            return self
        if order < 0:
            raise InsufficientOrderError(f"series order must be >= 0, got {order}")
        return TruncatedSeries._valid(
            self.context, order, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    def rename_context(self, new_context: VariableContext) -> "TruncatedSeries":
        """Positional relabeling of variables; exponents are untouched."""
        if new_context.arity != self.context.arity:
            raise ContextMismatchError(
                f"cannot rename {self.context.names} to {new_context.names}"
            )
        return TruncatedSeries._valid(new_context, self.order, dict(self.terms))

    def substitute(self, assignment, target_context=None) -> "TruncatedSeries":
        """Formal composition self(v := assignment[v], ...).

        Variables absent from ``assignment`` pass through to the variable
        of the same name in the target context, which defaults to the
        assigned values' context.  Every assigned series must live in the
        target context and have zero constant term; that keeps the
        truncation under control.  The result is guaranteed to the lowest
        of ``self.order`` and the assigned values' orders.

        This is ``_compose`` on a one-element list.  Several series under
        one assignment should go to ``_compose`` together, so that they
        share the values' powers and the products of common monomial
        prefixes.
        """
        return _compose([self], assignment, target_context)[0]

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with nonzero constant term."""
        c = self.constant_term()
        if not c:
            raise NonUnitError("cannot invert a series with zero constant term")
        # 1/a = (1/c) * sum_k u^k  with  u = 1 - a/c  of valuation >= 1.
        one = TruncatedSeries.constant(self.context, self.order, ONE)
        u = one - self.scale(ONE / c)
        acc = one
        upow = one
        for _ in range(self.order):
            upow = upow * u
            if upow.is_zero():
                break
            acc = acc + upow
        return acc.scale(ONE / c)

    # ------------------------------------------------------------------
    # rendering

    def monomial_text(self, exps) -> str:
        parts = []
        for name, k in zip(self.context.names, exps):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts) if parts else "1"

    def __str__(self, _coefficient_text=str):
        """The series as expression text, terms in graded-lex order.

        With the default ``str`` coefficients the text re-parses to the
        same series; a caller may pass another coefficient formatter, such
        as ``scalars.brief_str`` for output that must not fail on huge
        numbers.
        """
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=graded_lex):
            coeff = self.terms[exps]
            mono = self.monomial_text(exps)
            text = _coefficient_text(coeff)
            plain = not coeff.im or not coeff.re  # single-component coefficient
            if mono == "1":
                piece = text if plain else f"({text})"
            elif coeff == ONE:
                piece = mono
            elif coeff == -ONE:
                piece = f"-{mono}"
            elif plain and "*" not in text:
                piece = f"{text}*{mono}"
            else:
                piece = f"({text})*{mono}"
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out

    def __repr__(self):
        return f"<TruncatedSeries order={self.order} {self}>"
