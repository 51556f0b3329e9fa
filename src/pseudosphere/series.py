"""Truncated multivariate formal power series over Gaussian rationals.

A series carries a *guaranteed order*: every coefficient of total degree
up to ``order`` is exact, and nothing is claimed beyond it.  Operations
propagate the worst-case guaranteed order of their output (a partial
derivative loses one degree, products and compositions take minima), so
a chain of operations always knows how far its result can be trusted.

Storage.  A series is one denominator ``d > 0`` and, per total degree, a
dict from a packed exponent key to a Gaussian-integer numerator pair
``(a, b)``: the coefficient of that monomial is (a + b*i)/d.  A key packs
the exponents into fields of ``_FIELD`` bits, the first context variable
in the most significant field, so the integer order of keys is the
lexicographic order of exponent tuples and the key of a product of two
monomials is the sum of their keys.  A field holds any exponent up to
``_MAX_ORDER``, the highest order a series may have, plus one guard bit:
the sum of any two keys of exponents within that budget carries into no
neighbouring field.  Degrees with no term have no dict, and no stored
pair is (0, 0).

Normalization.  Every series is kept in one canonical form: gcd(d, every
numerator) = 1, and the empty series has d = 1.  Each operation that
builds numerators over a product or an lcm of denominators, or drops
terms, ends by dividing that common factor out (``_canonical``,
``_closed``); where d is 1 there is none.  So each series has exactly
one storage, and ``==`` compares it structurally.  Coefficients as
:class:`GaussianRational` (``terms``, ``coefficient``, ``first_term``,
``__str__``) are built on demand.

Kernels.  Products, weighted sums and compositions each have one loop
on the storage.  ``_products`` sums a list of signed products in one
accumulator over the lcm of their denominators and normalizes once; a
single product, a Laplace sub-minor and any other sum of products are
its calls.  It scales each left numerator as it reads it, and its
closing pass (``_closed``) drops the zero sums and divides only where
the common factor is not 1.  ``_combination`` is the same loop without
the right operand: it sums a list of storages, each with a nonzero
integer weight, over the lcm of their denominators times one common
divisor, through a limit, and closes the sum by one ``_closed`` pass; a
sum or difference of two series, Newton's update, a parsed ``+``/``-``
chain and a trace-adjusted tensor component are its calls.
``_compose`` walks only the source variables that are really
substituted: a variable that passes through by name, or that is
assigned a bare target variable, shifts the keys and degrees of the
images it meets and is never multiplied out.  ``_solve_composition`` is
its converse under a near-identity assignment, solved degree by degree
on the images of the same walk.  Both add each monomial times its image
into their outputs through one scatter loop, ``_scatter``.

Three rules make a zero series cost no more than a call.  A product with
an empty operand is the empty series of the lower operand order: every
term of the true product lies above that order, and nothing is claimed
beyond it; a sum of products with no product of two nonzero operands
(``_sum_of_products``) makes no call of the product loop.  A sum or
difference with an empty operand is the other operand itself (negated
in ``empty - b``), cut to the lower order when the orders differ, and
makes no call of ``_combination``.  A composition walks no monomial of
an empty member, builds its images only through the highest order of a
nonzero member, and gives an empty member the empty series of its
output order, the lower of its own order and the lowest assigned order,
with no normalizing pass.  Callers that hold
lists with many zero members (``implicit``, ``pde``, ``flatness``) leave
them out of the list altogether.  Series are immutable by convention,
and so are the per-degree dicts, which operations share between series
instead of copying.
"""

from __future__ import annotations

from math import gcd, lcm
from types import MappingProxyType

from .errors import (
    CompositionError,
    ContextMismatchError,
    InsufficientOrderError,
    NonUnitError,
    UnknownVariableError,
)
from .scalars import GaussianRational, ONE, ZERO, _coerce, _reduced

# The highest order a series may have; the command line's --order budget.
_MAX_ORDER = 16
# Bits per exponent field: enough for _MAX_ORDER, plus one guard bit.
_FIELD = _MAX_ORDER.bit_length() + 1
_MASK = (1 << _FIELD) - 1


class VariableContext:
    """An ordered tuple of distinct variable names.

    The order is significant: it fixes the positions of exponent
    multi-indices, and the fields of packed keys, for every series
    sharing the context.
    """

    __slots__ = ("names", "_positions", "_shifts")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in context: {names}")
        self.names = names
        self._positions = {name: k for k, name in enumerate(names)}
        # the bit offset of each variable's field in a packed key
        self._shifts = tuple(_FIELD * k for k in reversed(range(len(names))))

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

    def _pack(self, exps) -> int:
        key = 0
        for e in exps:
            key = (key << _FIELD) | e
        return key

    def _unpack(self, key) -> tuple:
        return tuple((key >> s) & _MASK for s in self._shifts)

    def __contains__(self, name):
        return name in self._positions

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, VariableContext) and self.names == other.names)

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


def _check_order(order):
    if order < 0:
        raise InsufficientOrderError(f"series order must be >= 0, got {order}")
    if order > _MAX_ORDER:
        raise ValueError(
            f"series order {order} exceeds the packing limit {_MAX_ORDER}"
        )


# ----------------------------------------------------------------------
# kernels on the storage: a denominator and a {degree: {key: (a, b)}} dict


def _common(d, grades):
    """gcd(d, every numerator of grades); d itself when grades is empty."""
    for terms in grades.values():
        for a, b in terms.values():
            d = gcd(d, a, b)
            if d == 1:
                return 1
    return d


def _canonical(d, grades):
    """(d, grades) with gcd(d, every numerator) divided out; the empty
    series gets d = 1.  Callers skip it where d is 1 already."""
    g = _common(d, grades)
    if g == 1:
        return d, grades
    return d // g, {
        degree: {k: (a // g, b // g) for k, (a, b) in terms.items()}
        for degree, terms in grades.items()
    }


def _cut(d, grades, order):
    """The storage of the terms of degree <= ``order``."""
    if all(degree <= order for degree in grades):
        return d, grades
    grades = {degree: terms for degree, terms in grades.items() if degree <= order}
    return _canonical(d, grades) if d != 1 else (d, grades)


def _closed(d, acc):
    """The canonical storage of a kernel accumulator {degree: {key: [a, b]}}
    over d: zero sums dropped and the common factor g divided out, in one
    pass after the gcd (zero sums leave the gcd as it is).  Where g is 1,
    which is most often, the pass only drops the zero sums and divides
    nothing."""
    g = 1 if d == 1 else _common(d, acc)
    grades = {}
    for degree, sums in acc.items():
        if g == 1:
            kept = {k: (a, b) for k, (a, b) in sums.items() if a or b}
        else:
            kept = {k: (a // g, b // g) for k, (a, b) in sums.items() if a or b}
        if kept:
            grades[degree] = kept
    return d // g, grades


def _products(products, limit):
    """The storage of the sum of sign * left * right over ``products``, a
    list of (sign, dl, left, dr, right) with sign 1 or -1 and two storages,
    through degree ``limit``.

    This is the one Cauchy-product loop; ``_product`` is its one-term
    case.  The caller vouches for the limit: ``__mul__`` passes the
    smaller operand order; a caller that knows the valuation of a factor
    may pass more (see ``implicit``).

    Every product is summed into one accumulator over d, the lcm of the
    dl * dr of the products with no empty operand: each numerator of the
    left operand is multiplied by m = sign * d / (dl * dr) as it is read,
    where m is not 1, so no scaled copy of the operand is built.  Only
    degree pairs within the limit are walked, and a product key is one
    integer addition.  The result is brought to canonical form once, over
    d, by one ``_closed`` pass, where a sum of products one at a time would
    form and normalize each product and each partial sum.  A one-term operand takes the same loop: its products
    fall on distinct keys, so nothing accumulates within its product.
    """
    d = 1
    for _, dl, left, dr, right in products:
        if left and right:
            d = lcm(d, dl * dr)
    acc = {}
    for sign, dl, left, dr, right in products:
        if not left or not right:
            continue
        m = sign * (d // (dl * dr))
        scaled = m != 1
        for degree_l, terms_l in left.items():
            room = limit - degree_l
            for degree_r, terms_r in right.items():
                if degree_r > room:
                    continue
                degree = degree_l + degree_r
                sums = acc.get(degree)
                if sums is None:
                    sums = acc[degree] = {}
                for kl, (a1, b1) in terms_l.items():
                    if scaled:
                        a1 *= m
                        b1 *= m
                    for kr, (a2, b2) in terms_r.items():
                        k = kl + kr
                        v = sums.get(k)
                        if v is None:
                            sums[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                        else:
                            v[0] += a1 * a2 - b1 * b2
                            v[1] += a1 * b2 + b1 * a2
    return _closed(d, acc)


def _product(dl, left, dr, right, limit):
    """The storage of the product of two storages through degree ``limit``:
    ``_products`` on the one product."""
    return _products(((1, dl, left, dr, right),), limit)


def _sum_of_products(context, order, products):
    """The series of the sum of sign * a * b over ``products``, a list of
    (sign, a, b) with a and b series of ``context``, at the lowest of
    ``order`` and the orders of every a and b, zero ones included:
    ``_products`` through that order, and no call when no product has two
    nonzero operands.  The caller vouches for the contexts."""
    for _, a, b in products:
        order = min(order, a.order, b.order)
    if not any(a._grades and b._grades for _, a, b in products):
        return TruncatedSeries._valid(context, order, 1, {})
    return TruncatedSeries._valid(context, order, *_products(
        [(sign, a._den, a._grades, b._den, b._grades) for sign, a, b in products], order))


def _negated(grades):
    """The grades of the negated storage; the denominator is kept."""
    return {degree: {k: (-a, -b) for k, (a, b) in terms.items()}
            for degree, terms in grades.items()}


def _combination(items, limit, over=1):
    """The storage of (1/over) * sum c * grades / den over ``items``, a list
    of (c, den, grades) with c a nonzero integer and (den, grades) a
    storage, through degree ``limit``.

    This is the one weighted-sum loop.  Every item is summed into one
    accumulator over d, the lcm of the denominators, each numerator
    multiplied by c * d / den as it is read; degrees above the limit are
    never read.  The result is brought to canonical form once, over
    ``over`` * d, by one ``_closed`` pass."""
    d = 1
    for _, den, _ in items:
        if d % den:
            d = lcm(d, den)
    acc = {}
    for c, den, grades in items:
        m = c * (d // den)
        for degree, terms in grades.items():
            if degree > limit:
                continue
            sums = acc.get(degree)
            if sums is None:
                sums = acc[degree] = {}
            for k, (a, b) in terms.items():
                v = sums.get(k)
                if v is None:
                    sums[k] = [a * m, b * m]
                else:
                    v[0] += a * m
                    v[1] += b * m
    return _closed(over * d, acc)


def _compose(series_list, assignment, target_context=None):
    """Compose every series of ``series_list`` under one assignment.

    This is the one composition kernel; ``TruncatedSeries.substitute`` is
    it applied to a one-element list.  The series share one source
    context, and the assignment follows ``substitute``'s rules.  Output j
    is guaranteed to the smaller of series j's order and the lowest order
    among the assigned values; its monomials of higher degree are skipped,
    since their images have a valuation above that order.  An output that
    no image reaches, that of a zero series among them, is the zero series
    of that order, formed with no normalizing pass.

    Only the substituted source variables are walked.  A variable that
    passes through to the same-named target variable, or that is assigned
    a bare target variable (the storage (1, {1: {key: (1, 0)}})), maps
    each exponent e to e times one target key of degree 1: its exponents
    become a key offset and a degree shift of the monomial's image, and
    are never multiplied out.  Monomials that differ only in those
    exponents share one image, the image of their substituted part.

    The assignment is validated once, and each walked value's list of
    powers is built lazily, once per call.  The substituted parts of the
    kept monomials of all the series are then walked once, in the order of
    their keys, which is lexicographic, so parts that agree on their
    leading exponents are neighbours; the first field where a key differs
    from the one before is read off the highest bit of their xor.  A stack
    holds the prefix products value_0^e_0 * ... * value_i^e_i of the
    current part, one entry per nonzero exponent, so at most one per
    walked variable.  A part pops the entries past the first position
    where it differs from the one before and multiplies out only the rest.
    Products are cut at the highest order of an output with a nonzero
    series.  An image is scattered into output j once per monomial that
    uses it, by ``_scatter``: shifted by the monomial's offset and degree
    shift, and cut at output j's order less that shift.

    Output j is summed as numerators: series j's own denominator is
    factored out, and each image is brought over the running lcm of the
    images' denominators, which rescales the sum only when that lcm grows.
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
        if s.context is not target_context and s.context != target_context:
            raise ContextMismatchError(
                f"assignment for {name!r} lives in {s.context.names}, "
                f"expected {target_context.names}"
            )
        if 0 in s._grades:
            raise CompositionError(
                f"assignment for {name!r} has a nonzero constant term"
            )
        if value_order is None or s.order < value_order:
            value_order = s.order
    orders = [s.order if value_order is None else min(s.order, value_order)
              for s in series_list]
    # a zero series reads no image, so it does not raise the images' cut
    limit = max((order for s, order in zip(series_list, orders) if s._grades), default=0)

    # per source variable: its field's shift, and either the target key of
    # degree 1 its exponent multiplies (a pass-through name, which raises
    # here when the target lacks it, or a bare variable) or its value
    shifts = source_context._shifts
    target_shifts = target_context._shifts
    offsets = []  # (field shift, target key of degree 1)
    walked = {}  # position: the assigned series
    mask = 0  # the fields of the walked variables
    for i, name in enumerate(source_context.names):
        value = assignment.get(name)
        if value is None:
            offsets.append((shifts[i], 1 << target_shifts[target_context.index(name)]))
            continue
        grades = value._grades
        if value._den == 1 and len(grades) == 1 and len(grades.get(1, ())) == 1:
            (unit, pair), = grades[1].items()
            if pair == (1, 0):
                offsets.append((shifts[i], unit))
                continue
        walked[i] = value
        mask |= _MASK << shifts[i]
    powers = {}  # powers[i][k - 1]: the storage of value_i^k

    def power(i, k):
        cache = powers.get(i)
        if cache is None:
            value = walked[i]
            cache = powers[i] = [_cut(value._den, value._grades, limit)]
        while len(cache) < k:
            cache.append(_product(*cache[-1], *cache[0], limit))
        return cache[k - 1]

    # per substituted part: the (output, offset, shift, numerator) of every
    # kept monomial that has it
    uses = {}
    moved = {}  # the (offset, shift) of each part off the walk
    for j, (s, order) in enumerate(zip(series_list, orders)):
        for degree, terms in s._grades.items():
            if degree <= order:
                for key, (a, b) in terms.items():
                    part = key & mask
                    rest = key ^ part
                    move = moved.get(rest)
                    if move is None:
                        offset = shift = 0
                        for field, unit in offsets:
                            e = (rest >> field) & _MASK
                            offset += e * unit
                            shift += e
                        move = moved[rest] = (offset, shift)
                    entry = uses.get(part)
                    if entry is None:
                        uses[part] = [(j, *move, a, b)]
                    else:
                        entry.append((j, *move, a, b))
    ones = [1] * len(series_list)  # series j's own denominator is factored out

    # per output: [lcm of the images' denominators, {degree: {key: [a, b]}}]
    outs = [[1, {}] for _ in series_list]
    one = (1, {0: {0: (1, 0)}})
    width = _FIELD * len(shifts)
    stack = []  # (position, prefix product storage through that position)
    previous = None
    for key in sorted(uses):
        rest = key  # the fields from the first one that differs on
        if previous is not None:
            start = (width - (key ^ previous).bit_length()) // _FIELD
            rest &= (1 << (shifts[start] + _FIELD)) - 1
            while stack and stack[-1][0] >= start:
                stack.pop()
        image = stack[-1][1] if stack else None
        while rest:  # each nonzero field, leading first
            i = (width - rest.bit_length()) // _FIELD
            k = rest >> shifts[i]
            rest ^= k << shifts[i]
            factor = power(i, k)
            image = factor if image is None else _product(*image, *factor, limit)
            stack.append((i, image))
        previous = key
        _scatter(outs, orders, ones, *(one if image is None else image), uses[key], 0)
    return [
        TruncatedSeries._valid(target_context, order,
                               *(_closed(s._den * den, acc) if acc else (1, {})))
        for s, order, (den, acc) in zip(series_list, orders, outs)
    ]


def _scatter(outs, cuts, dens, di, grades, uses, low):
    """Add each use's monomial times one image into its output.

    This is the one scatter loop, of ``_compose`` and
    ``_solve_composition``.  The image is the storage (di, grades).  A use
    (j, offset, shift, ca, cb) adds (ca + cb*i)/dens[j] times the image,
    its keys raised by ``offset`` and its degrees by ``shift``, into output
    j, reading the image's degrees from ``low`` through cuts[j] - shift.
    An output is a sum [den, {degree: {key: [a, b]}}] over den; where
    dens[j] * di does not divide den, den grows to their lcm, which
    rescales every sum it holds.
    """
    for j, offset, shift, ca, cb in uses:
        out = outs[j]
        den = out[0]
        dj = dens[j] * di
        if den % dj:
            grown = lcm(den, dj)
            f = grown // den
            for sums in out[1].values():
                for v in sums.values():
                    v[0] *= f
                    v[1] *= f
            out[0] = den = grown
        m = den // dj
        ca *= m
        cb *= m
        cut = cuts[j] - shift
        acc = out[1]
        for degree, terms in grades.items():
            if degree > cut or degree < low:
                continue
            sums = acc.get(degree + shift)
            if sums is None:
                sums = acc[degree + shift] = {}
            for k, (a, b) in terms.items():
                x = ca * a - cb * b
                y = ca * b + cb * a
                k += offset
                v = sums.get(k)
                if v is None:
                    sums[k] = [x, y]
                else:
                    v[0] += x
                    v[1] += y


def _solve_composition(series_list, assignment):
    """The series G_j with G_j(v := assignment[v]) = series_j, one per
    member of ``series_list``.

    The series share one context.  The assignment maps some of its
    variables v to series v + (terms of degree >= 2) of that context, and
    every other variable passes through, so composing with it changes a
    monomial only in degrees above its own.  G_j is therefore unique and
    is found degree by degree: its part of degree k is the part of degree
    k of R_j = series_j - (the composition of G_j's parts of degree < k).
    Output j is guaranteed to the smaller of series j's order and the
    lowest assigned order, the degrees through which that holds.

    R_j is one accumulator over a running lcm (``_scatter``'s outputs),
    which starts as series_j.  At each degree k, G_j's part of degree k is
    read off R_j in canonical form, and each of its monomials subtracts
    the terms of its image above degree k from R_j; R_j's part of degree
    k is never changed again, so R_j ends as G_j.  A monomial of the top
    degree, or with no substituted variable, has nothing to subtract.  The
    walk state is held across degrees, in plain dicts freed on return:
    the powers of each assigned value, and the image of each substituted
    part, its prefix image (the part less its last nonzero field) times
    one power, each formed once (``_part_image``).  A part of degree e
    first needed at degree k is formed through degree L - k + e, with L
    the highest output order: that is the most a monomial of degree k
    reads of it, and later degrees read less.
    A passed-through variable's exponents are the key offset and degree
    shift of the monomial, as in ``_compose``.
    """
    series_list = list(series_list)
    context = series_list[0].context
    shifts = context._shifts
    values = {}  # position: the storage of its assigned value
    value_order = None
    for name, value in assignment.items():
        i = context.index(name)
        values[i] = (value._den, value._grades)
        if value_order is None or value.order < value_order:
            value_order = value.order
    mask = 0  # the fields of the substituted variables
    for i in values:
        mask |= _MASK << shifts[i]
    orders = [s.order if value_order is None else min(s.order, value_order)
              for s in series_list]
    limit = max((order for s, order in zip(series_list, orders) if s._grades), default=0)
    outs = [[s._den, {degree: {k: [a, b] for k, (a, b) in terms.items()}
                      for degree, terms in s._grades.items() if degree <= order}]
            for s, order in zip(series_list, orders)]
    powers = {i: [_cut(*value, limit)] for i, value in values.items()}
    images = {}  # substituted part: the storage of its image
    degrees = {}  # substituted part: its degree
    for k in range(limit):
        dens = []  # the canonical denominator of each G_j's part of degree k
        uses = {}  # substituted part: the uses of its image at degree k
        for j, (den, acc) in enumerate(outs):
            sums = acc.get(k) if k < orders[j] else None
            if not sums:
                dens.append(1)
                continue
            g = den
            for a, b in sums.values():
                g = gcd(g, a, b)
                if g == 1:
                    break
            dens.append(den // g)
            for key, (a, b) in sums.items():
                part = key & mask
                if part and (a or b):
                    degree = degrees.get(part)
                    if degree is None:
                        degree = degrees[part] = sum((part >> shifts[i]) & _MASK for i in values)
                    use = (j, key ^ part, k - degree, -(a // g), -(b // g))
                    entry = uses.get(part)
                    if entry is None:
                        uses[part] = [use]
                    else:
                        entry.append(use)
        for part, entry in uses.items():
            image = images.get(part)
            if image is None:
                image = _part_image(images, powers, shifts, part, degrees[part], limit - k)
            _scatter(outs, orders, dens, *image, entry, degrees[part] + 1)
    return [TruncatedSeries._valid(context, order, *_closed(den, acc))
            for order, (den, acc) in zip(orders, outs)]


def _part_image(images, powers, shifts, part, degree, top):
    """The storage of the image of the substituted part ``part``, of
    degree ``degree``, for ``_solve_composition``: the image of its
    prefix, the part less its last nonzero field, times the power of that
    field.  Each missing prefix image and power is formed on the way and
    kept in ``images`` and ``powers`` (position: [value^1, value^2, ...]),
    each of degree e through degree top + e."""
    chain = []  # (part, position, exponent) down to the first formed prefix
    image = None
    while part:
        image = images.get(part)
        if image is not None:
            break
        field = ((part & -part).bit_length() - 1) // _FIELD
        i = len(shifts) - 1 - field
        e = (part >> shifts[i]) & _MASK
        chain.append((part, i, e))
        part ^= e << shifts[i]
        degree -= e
    for part, i, e in reversed(chain):
        cache = powers[i]
        while len(cache) < e:
            cache.append(_product(*cache[-1], *cache[0], top + len(cache) + 1))
        degree += e
        image = cache[e - 1] if image is None else _product(*image, *cache[e - 1], top + degree)
        images[part] = image
    return image


class TruncatedSeries:
    """A sparse formal power series truncated at a guaranteed total degree.

    ``terms`` is a read-only mapping from exponent tuples (one entry per
    context variable) to nonzero :class:`GaussianRational` coefficients,
    built on demand from the packed storage described in the module
    docstring; every multi-index has total degree at most ``order``.
    """

    __slots__ = ("context", "order", "_den", "_grades")

    def __init__(self, context: VariableContext, order: int, terms=None):
        _check_order(order)
        self.context = context
        self.order = order
        entries = []  # (degree, key, coefficient)
        if terms:
            arity = context.arity
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != arity:
                    raise ValueError(f"multi-index {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                degree = sum(exps)
                if degree > order:
                    continue
                coeff = _coerce(coeff)
                if coeff:
                    entries.append((degree, context._pack(exps), coeff))
        # over the lcm of canonical denominators the storage is canonical
        d = lcm(*(z._d for _, _, z in entries)) if entries else 1
        grades = {}
        for degree, key, z in entries:
            m = d // z._d
            grades.setdefault(degree, {})[key] = (z._a * m, z._b * m)
        self._den = d
        self._grades = grades

    @classmethod
    def _valid(cls, context, order, den, grades):
        """Wrap a storage without copying or checking it.

        Only for a storage an operation has built to the class invariant:
        canonical, keys of the context, degrees at most ``order``, no empty
        degree and no zero pair.  Outside input goes through ``__init__``.
        """
        self = object.__new__(cls)
        self.context = context
        self.order = order
        self._den = den
        self._grades = grades
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, context, order):
        if not 0 <= order <= _MAX_ORDER:
            _check_order(order)
        return cls._valid(context, order, 1, {})

    @classmethod
    def constant(cls, context, order, value):
        scalar = _coerce(value)
        if scalar is None:
            raise TypeError(f"cannot use {value!r} as a coefficient")
        _check_order(order)
        if not scalar:
            return cls._valid(context, order, 1, {})
        return cls._valid(context, order, scalar._d, {0: {0: (scalar._a, scalar._b)}})

    @classmethod
    def variable(cls, context, order, name):
        shift = context._shifts[context.index(name)]
        _check_order(order)
        grades = {1: {1 << shift: (1, 0)}} if order else {}
        return cls._valid(context, order, 1, grades)

    # ------------------------------------------------------------------
    # inspection

    def _scalar(self, pair) -> GaussianRational:
        return _reduced(pair[0], pair[1], self._den)

    @property
    def terms(self):
        """{exponent tuple: coefficient}, read-only, in graded-lex order."""
        unpack = self.context._unpack
        return MappingProxyType({
            unpack(k): self._scalar(self._grades[degree][k])
            for degree in sorted(self._grades) for k in sorted(self._grades[degree])
        })

    def constant_term(self) -> GaussianRational:
        terms = self._grades.get(0)
        return ZERO if terms is None else self._scalar(terms[0])

    def coefficient(self, exps) -> GaussianRational:
        exps = tuple(exps)
        terms = self._grades.get(sum(exps))
        if terms is None or len(exps) != self.context.arity or min(exps, default=0) < 0:
            return ZERO
        pair = terms.get(self.context._pack(exps))
        return ZERO if pair is None else self._scalar(pair)

    def coefficient_of(self, **powers) -> GaussianRational:
        exps = [0] * self.context.arity
        for name, power in powers.items():
            exps[self.context.index(name)] = power
        return self.coefficient(exps)

    def is_zero(self, through_order=None) -> bool:
        if through_order is None:
            return not self._grades
        return all(degree > through_order for degree in self._grades)

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
        unpack = self.context._unpack
        return {unpack(k): self._scalar(pair)
                for k, pair in sorted(self._grades.get(degree, {}).items())}

    def first_term(self):
        """The graded-lex smallest (exponents, coefficient); None if zero."""
        if not self._grades:
            return None
        terms = self._grades[min(self._grades)]
        key = min(terms)
        return self.context._unpack(key), self._scalar(terms[key])

    def _bits(self) -> int:
        """The largest bit length of the denominator and the numerators."""
        bits = self._den.bit_length()
        for terms in self._grades.values():
            for a, b in terms.values():
                bits = max(bits, a.bit_length(), b.bit_length())
        return bits

    # ------------------------------------------------------------------
    # ring operations

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return ((self.context is other.context or self.context == other.context)
                and self._den == other._den and self._grades == other._grades)

    __hash__ = None  # mutable-ish payload, keep unhashable

    def __neg__(self):
        return TruncatedSeries._valid(self.context, self.order, self._den, _negated(self._grades))

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
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not TruncatedSeries:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar) -> "TruncatedSeries":
        value = _coerce(scalar)
        if value is None:
            raise TypeError(f"cannot scale by {scalar!r}")
        if not value:
            return TruncatedSeries.zero(self.context, self.order)
        # a nonzero scalar keeps every numerator nonzero
        p, q = value._a, value._b
        d = self._den * value._d
        grades = {
            degree: {k: (a * p - b * q, a * q + b * p) for k, (a, b) in terms.items()}
            for degree, terms in self._grades.items()
        }
        if d != 1:
            d, grades = _canonical(d, grades)
        return TruncatedSeries._valid(self.context, self.order, d, grades)

    def __mul__(self, other):
        if other.__class__ is not TruncatedSeries:
            scalar = _coerce(other)
            if scalar is not None:
                return self.scale(scalar)
            if not isinstance(other, TruncatedSeries):
                return NotImplemented
        _check_same_context(self, other)
        order = min(self.order, other.order)
        if not self._grades or not other._grades:
            return TruncatedSeries._valid(self.context, order, 1, {})
        return TruncatedSeries._valid(self.context, order, *_product(
            self._den, self._grades, other._den, other._grades, order))

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
        shift = self.context._shifts[self.context.index(name)]
        if not self._grades:
            return TruncatedSeries._valid(self.context, self.order - 1, 1, {})
        unit = 1 << shift
        grades = {}
        for degree, terms in self._grades.items():
            if degree:
                out = {k - unit: (a * e, b * e) for k, (a, b) in terms.items()
                       if (e := (k >> shift) & _MASK)}
                if out:
                    grades[degree - 1] = out
        d = self._den
        if d != 1:
            d, grades = _canonical(d, grades)
        return TruncatedSeries._valid(self.context, self.order - 1, d, grades)

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
            self.context, order, *_cut(self._den, self._grades, order))

    def rename_context(self, new_context: VariableContext) -> "TruncatedSeries":
        """Positional relabeling of variables; exponents are untouched."""
        if new_context.arity != self.context.arity:
            raise ContextMismatchError(
                f"cannot rename {self.context.names} to {new_context.names}"
            )
        return TruncatedSeries._valid(new_context, self.order, self._den, self._grades)

    def _embedded(self, context, sources, conjugate=False) -> "TruncatedSeries":
        """The series in ``context`` whose variable i has the exponent of
        this series' variable ``sources[i]`` (0 where that is None), with
        coefficients conjugated when ``conjugate``.  Every variable of this
        series is some ``sources[i]`` exactly once, so degrees, the order
        and the canonical form are kept."""
        unpack = self.context._unpack
        pack = context._pack
        sign = -1 if conjugate else 1
        return TruncatedSeries._valid(context, self.order, self._den, {
            degree: {
                pack([0 if i is None else exps[i] for i in sources]): (a, sign * b)
                for k, (a, b) in terms.items() for exps in (unpack(k),)
            }
            for degree, terms in self._grades.items()
        })

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
        if not self._grades:
            return "0"
        pieces = []
        for exps, coeff in self.terms.items():
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


def _sum(a, b, sign):
    """a + sign * b (sign 1 or -1) at the lower of the two orders.

    An empty operand leaves the other as it is, cut to the lower order
    (and negated in ``empty - b``); otherwise it is one ``_combination``
    call through the lower order.
    """
    _check_same_context(a, b)
    if not b._grades:
        return a if a.order <= b.order else a.truncate(b.order)
    if not a._grades:
        if b.order > a.order:
            b = b.truncate(a.order)
        return -b if sign < 0 else b
    order = min(a.order, b.order)
    return TruncatedSeries._valid(a.context, order, *_combination(
        [(1, a._den, a._grades), (sign, b._den, b._grades)], order))
