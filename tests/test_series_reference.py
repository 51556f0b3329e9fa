"""The packed series storage against a reference series kept as a dict of
scalars, the way ``RefGaussian`` checks the scalar triples.

``RefSeries`` stores {exponent tuple: GaussianRational} and does every
operation with scalar loops, under the same order rules as
``TruncatedSeries``.  Operands draw their coefficients from a pool of
pairwise coprime denominators, so every sum and product brings numerators
over a new common denominator and the canonical form has work to do.
"""

import math

from hypothesis import example, given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries, VariableContext
from pseudosphere.errors import InsufficientOrderError, NonUnitError
from pseudosphere.scalars import ONE, ZERO
from pseudosphere.series import _MAX_ORDER, _combination, _compose, _products

UVW = VariableContext(("u", "v", "w"))
PQ = VariableContext(("p", "q"))


class RefSeries:
    """Reference truncated series: a dict of nonzero scalars."""

    def __init__(self, context, order, terms):
        self.context = context
        self.order = order
        self.terms = {tuple(e): c for e, c in terms.items() if c and sum(e) <= order}

    @classmethod
    def of(cls, series):
        return cls(series.context, series.order, dict(series.terms))

    def _sum(self, other, sign):
        order = min(self.order, other.order)
        out = {}
        for s, k in ((self, ONE), (other, sign)):
            for e, c in s.terms.items():
                out[e] = out.get(e, ZERO) + c * k
        return RefSeries(self.context, order, out)

    def __add__(self, other):
        return self._sum(other, ONE)

    def __sub__(self, other):
        return self._sum(other, -ONE)

    def __neg__(self):
        return RefSeries(self.context, self.order, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, ZERO) + ca * cb
        return RefSeries(self.context, order, out)

    def __pow__(self, k):
        out = RefSeries(self.context, self.order, {(0,) * len(self.context): ONE})
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c):
        return RefSeries(self.context, self.order, {e: v * c for e, v in self.terms.items()})

    def partial(self, name):
        if self.order == 0:
            raise InsufficientOrderError("order 0")
        i = self.context.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return RefSeries(self.context, self.order - 1, out)

    def truncate(self, order):
        if not 0 <= order <= self.order:
            raise InsufficientOrderError(f"order {order}")
        return RefSeries(self.context, order, self.terms)

    def substitute(self, assignment, target):
        """Every monomial multiplied out in full, then cut once."""
        order = min([self.order] + [v.order for v in assignment.values()])
        big = 2 * _MAX_ORDER  # no cut before the last one
        out = RefSeries(target, order, {})
        for e, c in self.terms.items():
            image = RefSeries(target, big, {(0,) * len(target): c})
            for name, k in zip(self.context.names, e):
                if name in assignment:
                    value = RefSeries(target, big, assignment[name].terms)
                else:
                    unit = [0] * len(target)
                    unit[target.index(name)] = 1
                    value = RefSeries(target, big, {tuple(unit): ONE})
                image = image * value ** k
            out = out + RefSeries(target, order, image.terms)
        return out

    def invert_unit(self):
        c = self.terms.get((0,) * len(self.context), ZERO)
        if not c:
            raise NonUnitError("not a unit")
        one = RefSeries(self.context, self.order, {(0,) * len(self.context): ONE})
        u = one - self.scale(ONE / c)
        out, power = one, one
        for _ in range(self.order):
            power = power * u
            out = out + power
        return out.scale(ONE / c)


# coefficients over pairwise coprime denominators: 1, 2, 3, 5, 7, 11, 13
COPRIME_POOL = [
    ps.gaussian("1/3"),
    ps.gaussian("-2/5"),
    ps.gaussian(0, "1/7"),
    ps.gaussian("3/11", "1/11"),
    ps.gaussian("1/2", "-1/2"),
    ps.gaussian(2**70 + 1),
    ps.gaussian("-5/13", 5**20),
    ps.gaussian(-1),
    ps.gaussian(0, 1),
]


@st.composite
def pooled_series(draw, context=UVW, orders=(0, 4)):
    order = draw(st.integers(*orders))
    exponents = st.tuples(*(st.integers(0, 3) for _ in context.names))
    terms = draw(st.dictionaries(exponents, st.sampled_from(COPRIME_POOL), max_size=6))
    return TruncatedSeries(context, order, terms)


def assert_same(got, want):
    """Same order and terms, and the storage the validating constructor
    builds from those terms, so the canonical form is the only one."""
    assert (got.order, dict(got.terms)) == (want.order, want.terms)
    assert got == TruncatedSeries(got.context, got.order, want.terms)
    d, g = got._den, got._den
    for terms in got._grades.values():
        assert terms
        for a, b in terms.values():
            assert a or b
            g = math.gcd(g, a, b)
    assert d > 0 and g == 1


def without_constant(series):
    return series - series.constant_term()


@settings(max_examples=150, deadline=None)
@given(pooled_series(), pooled_series(), st.sampled_from(COPRIME_POOL),
       st.integers(0, 4), st.integers(0, 3))
# (1 - i)/2 * u twice: its sum and its square each have a common factor 2
@example(TruncatedSeries(UVW, 2, {(1, 0, 0): COPRIME_POOL[4]}),
         TruncatedSeries(UVW, 2, {(1, 0, 0): COPRIME_POOL[4]}), COPRIME_POOL[0], 0, 2)
def test_operations_match_the_reference_series(a, b, c, cut, k):
    ra, rb = RefSeries.of(a), RefSeries.of(b)
    assert_same(a * b, ra * rb)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a.scale(c), ra.scale(c))
    assert_same(a ** k, ra ** k)
    if cut <= a.order:
        assert_same(a.truncate(cut), ra.truncate(cut))
    if a.order:
        for name in UVW.names:
            assert_same(a.partial(name), ra.partial(name))
    unit = without_constant(a) + c
    assert_same(unit.invert_unit(), RefSeries.of(unit).invert_unit())


@settings(max_examples=100, deadline=None)
@given(pooled_series(), pooled_series(PQ, (1, 4)), pooled_series(PQ, (1, 4)),
       pooled_series())
def test_composition_matches_the_reference_series(a, x, y, b):
    # u and w become series in (p, q) without constant term; v passes
    # through to a target variable of the same name
    target = VariableContext(("p", "v", "q"))
    values = {name: without_constant(s).substitute({}, target_context=target)
              for name, s in (("u", x), ("w", y))}
    refs = {name: RefSeries.of(s) for name, s in values.items()}
    assert_same(a.substitute(values), RefSeries.of(a).substitute(refs, target))
    for got, s in zip(_compose([a, b], values, target), (a, b)):
        assert_same(got, RefSeries.of(s).substitute(refs, target))


@settings(max_examples=100, deadline=None)
@given(pooled_series())
def test_str_round_trips_through_the_parser_on_coprime_denominators(s):
    assert ps.parse_series(str(s), UVW, s.order) == s


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), pooled_series(), pooled_series()),
                min_size=1, max_size=3),
       st.integers(0, 4))
# one product with sign -1 over the denominators 3 and 5, then two whose
# dl * dr are 21 and 11, so each left numerator is scaled by its own
# sign * lcm / (dl * dr)
@example([(-1, TruncatedSeries(UVW, 3, {(1, 0, 0): COPRIME_POOL[0]}),
           TruncatedSeries(UVW, 3, {(0, 1, 0): COPRIME_POOL[1], (0, 0, 0): ONE}))], 3)
@example([(1, TruncatedSeries(UVW, 4, {(1, 0, 0): COPRIME_POOL[0], (0, 1, 1): ONE}),
           TruncatedSeries(UVW, 4, {(0, 0, 1): COPRIME_POOL[2]})),
          (-1, TruncatedSeries(UVW, 4, {(2, 0, 0): COPRIME_POOL[3]}),
           TruncatedSeries(UVW, 4, {(0, 0, 0): ONE, (0, 1, 0): COPRIME_POOL[7]}))], 2)
def test_signed_products_over_unequal_denominators_match_the_reference(products, limit):
    # the product loop on storages: the sum of sign * left * right through
    # ``limit``, the left operands left as they were
    left_before = [(a._den, dict(a._grades)) for _, a, _ in products]
    den, grades = _products([(sign, a._den, a._grades, b._den, b._grades)
                             for sign, a, b in products], limit)
    assert [(a._den, a._grades) for _, a, _ in products] == left_before
    want = RefSeries(UVW, limit, {})
    for sign, a, b in products:
        # the loop cuts at the limit the caller vouches for, not at the
        # operand orders
        product = RefSeries(UVW, limit, a.terms) * RefSeries(UVW, limit, b.terms)
        want = want + product if sign > 0 else want - product
    assert_same(TruncatedSeries._valid(UVW, limit, den, grades),
                RefSeries(UVW, limit, want.terms))


U_THIRD_V_FIFTH = TruncatedSeries(UVW, 3, {(1, 0, 0): COPRIME_POOL[0], (0, 1, 0): COPRIME_POOL[1]})
WEIGHTS = st.sampled_from([1, -1, 2, -3, 5, -7, 12])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(WEIGHTS, pooled_series()), max_size=4),
       st.integers(0, 4), st.integers(1, 12))
# u/3 - 2/5*v less itself: the sum cancels to the empty storage
@example([(1, U_THIRD_V_FIFTH), (-1, U_THIRD_V_FIFTH)], 3, 1)
# the limit 1 drops the whole degree 2 of both operands
@example([(1, TruncatedSeries(UVW, 4, {(1, 0, 0): COPRIME_POOL[0],
                                       (1, 1, 0): COPRIME_POOL[3]})),
          (-3, TruncatedSeries(UVW, 4, {(0, 2, 0): COPRIME_POOL[2]}))], 1, 1)
# (1/3) * (6 * (-2/5) * u + 3 * v) = -4/5 * u + v: the divisor 3 divides
# every numerator over 15, and the closing pass takes it out
@example([(6, TruncatedSeries(UVW, 2, {(1, 0, 0): COPRIME_POOL[1]})),
          (3, TruncatedSeries(UVW, 2, {(0, 1, 0): ONE}))], 2, 3)
def test_weighted_sums_over_unequal_denominators_match_the_reference(items, limit, over):
    # the weighted-sum loop on storages: (1/over) * the sum of c * series
    # through ``limit``, which may lie below the operands' degrees, the
    # operands left as they were
    before = [(s._den, {d: dict(t) for d, t in s._grades.items()}) for _, s in items]
    den, grades = _combination([(c, s._den, s._grades) for c, s in items], limit, over)
    assert [(s._den, s._grades) for _, s in items] == before
    want = RefSeries(UVW, limit, {})
    for c, s in items:
        want = want + RefSeries(UVW, limit, s.terms).scale(ps.gaussian(c))
    assert_same(TruncatedSeries._valid(UVW, limit, den, grades),
                want.scale(ONE / ps.gaussian(over)))
