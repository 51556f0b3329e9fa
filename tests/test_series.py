"""Ring operations, calculus, and order bookkeeping of truncated series."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries, VariableContext
from pseudosphere.errors import (
    CompositionError,
    ContextMismatchError,
    InsufficientOrderError,
    NonUnitError,
    UnknownVariableError,
)
from pseudosphere import series as series_module
from pseudosphere.scalars import ONE, ZERO, GaussianRational
from pseudosphere.series import _MAX_ORDER, _compose, _product, _sum_of_products

from conftest import COEFF_POOL, heisenberg_theta, random_series

CTX = VariableContext(("z1", "z2", "z1b", "z2b", "wb"))


def series(text, order=6, ctx=CTX):
    return ps.parse_series(text, ctx, order)


def test_additive_inverse():
    z1 = TruncatedSeries.variable(CTX, 4, "z1")
    assert (z1 + (-z1)).is_zero()


def test_add_constants():
    assert series("1 + z1") + series("1 - z1") == series("2")


def test_add_matches_coefficientwise_oracle():
    # oracle: add coefficients of matching monomials directly
    theta = heisenberg_theta(2, 6)
    flipped = ps.conjugate_theta(ps.make_model(2, theta, 6))
    flipped = flipped.rename_context(CTX)  # same shape, positional rename
    total = theta + flipped
    exps = [0] * CTX.arity
    exps[CTX.index("z1")] = 1
    exps[CTX.index("z1b")] = 1
    expected = theta.coefficient(exps) + flipped.coefficient(exps)
    assert expected == GaussianRational(2)
    assert total.coefficient(exps) == expected


def test_mul_difference_of_squares():
    assert series("(1 + z1)*(1 - z1)") == series("1 - z1^2")


def test_mul_truncation_keeps_order_bookkeeping():
    z1 = TruncatedSeries.variable(CTX, 1, "z1")
    z1b = TruncatedSeries.variable(CTX, 1, "z1b")
    product = z1 * z1b
    assert product.is_zero()
    assert product.order == 1  # degree-2 term discarded, trust level retained


def test_mul_square_of_levi_sum():
    # (z1 z1b + z2 z2b)^2 expanded by hand
    square = series("(z1*z1b + z2*z2b)^2")
    expected = series("z1^2*z1b^2 + 2*z1*z2*z1b*z2b + z2^2*z2b^2")
    assert square == expected


def test_mul_context_mismatch():
    other = VariableContext(("u",))
    with pytest.raises(ContextMismatchError):
        TruncatedSeries.variable(CTX, 3, "z1") * TruncatedSeries.variable(other, 3, "u")


def test_partial_examples():
    assert series("z1^2*z1b").partial("z1") == series("2*z1*z1b", order=5)
    theta = series("-wb + z1*z1b + z2*z2b")
    assert theta.partial("wb") == series("-1", order=5)
    assert theta.partial("z1").partial("z1b") == series("1", order=4)


def test_partial_drops_order_and_guards_zero():
    s = series("z1", order=3)
    assert s.partial("z1").order == 2
    with pytest.raises(InsufficientOrderError):
        series("1", order=0).partial("z1")
    with pytest.raises(ps.UnknownVariableError):
        s.partial("nope")


def test_substitute_geometric():
    u_ctx = VariableContext(("u",))
    geom = ps.parse_series("1/(1-u)", u_ctx, 2)
    target = series("z1 + z2", order=2)
    composed = geom.substitute({"u": target}, target_context=CTX)
    assert composed == series("1 + z1 + z2 + (z1 + z2)^2", order=2)


def test_substitute_identity():
    theta = series("-wb + z1*z1b + i*z2^2*wb")
    identity = {name: TruncatedSeries.variable(CTX, 6, name) for name in CTX.names}
    assert theta.substitute(identity) == theta


def test_substitute_rejects_nonzero_constant():
    with pytest.raises(CompositionError):
        series("z1").substitute({"z1": series("1 + z2")})


def test_substitute_order_propagation():
    low = series("z1 + z2^2", order=3)
    target = series("z1", order=7)
    out = series("wb^2", order=7).substitute({"wb": low})
    assert out.order == 3


def test_invert_unit_examples():
    one_minus = series("1 - z1", order=3)
    assert one_minus.invert_unit() == series("1 + z1 + z1^2 + z1^3", order=3)
    assert series("2").invert_unit() == series("1/2")
    inv = series("-1 + z1*z1b", order=4).invert_unit()
    assert inv == series("-1 - z1*z1b - z1^2*z1b^2", order=4)


def test_invert_unit_requires_unit():
    with pytest.raises(NonUnitError):
        series("z1").invert_unit()


def test_invert_unit_identity_property(rng):
    for _ in range(10):
        s = random_series(rng, CTX, 4, max_terms=4) + 1
        if not s.constant_term():
            continue
        residue = s * s.invert_unit() - 1
        assert residue.is_zero()


def test_rename_context():
    fctx = VariableContext(("x1", "x2", "a1", "a2", "b"))
    theta = heisenberg_theta(2, 5)
    renamed = theta.rename_context(fctx)
    assert renamed.coefficient_of(x1=1, a1=1) == GaussianRational(1)
    assert renamed.coefficient_of(b=1) == GaussianRational(-1)


def test_str_round_trips_through_parser(rng):
    for _ in range(15):
        s = random_series(rng, CTX, 5, max_terms=6)
        again = ps.parse_series(str(s), CTX, 5)
        assert again == s


small_exponents = st.tuples(*(st.integers(0, 2) for _ in range(3)))


@st.composite
def small_series(draw):
    ctx = VariableContext(("u", "v", "w"))
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = draw(small_exponents)
        coeff = draw(st.sampled_from(COEFF_POOL))
        terms[exps] = coeff
    return TruncatedSeries(ctx, 4, terms)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_series())
def test_partials_commute(s):
    assert s.partial("u").partial("v") == s.partial("v").partial("u")
    assert s.partial("v").partial("w") == s.partial("w").partial("v")


# Coefficients that cancel in pairs, so sums and products produce zeros.
CANCELLING_POOL = COEFF_POOL + [GaussianRational(-1), GaussianRational(0, -1)]


@st.composite
def mixed_order_series(draw):
    """A series of order 1..4 whose input terms may exceed that order."""
    ctx = VariableContext(("u", "v", "w"))
    order = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = draw(st.tuples(*(st.integers(0, 3) for _ in range(3))))
        terms[exps] = draw(st.sampled_from(CANCELLING_POOL))
    return TruncatedSeries(ctx, order, terms)


def assert_valid(s):
    """``s`` holds exactly what the validating constructor keeps of it."""
    rebuilt = TruncatedSeries(s.context, s.order, s.terms)
    assert rebuilt.order == s.order and rebuilt.terms == s.terms
    for exps, coeff in s.terms.items():
        assert type(exps) is tuple and len(exps) == s.context.arity
        assert sum(exps) <= s.order
        assert type(coeff) is GaussianRational and coeff


@settings(max_examples=80, deadline=None)
@given(mixed_order_series(), mixed_order_series(), mixed_order_series(),
       st.sampled_from(CANCELLING_POOL))
def test_results_satisfy_the_validating_constructor(a, b, c, z):
    for result in (a * b, a + b, a - b, -a, a + a, a - a, a + 1, 2 - a):
        assert_valid(result)
    assert_valid(a.partial("u"))
    assert_valid(a.substitute({"u": b - b.constant_term(), "w": c - c.constant_term()}))
    assert_valid(a.scale(z))
    for k in range(a.order + 1):
        assert_valid(a.truncate(k))
    renamed = a.rename_context(VariableContext(("p", "q", "r")))
    assert_valid(renamed)
    assert renamed.terms == a.terms and renamed.terms is not a.terms
    for k in range(b.order + 1):
        low = b.truncate(k)
        for result in (a + low, low + a, a - low, low - a):
            assert result.order == min(a.order, k)
            assert_valid(result)


def test_an_order_beyond_the_packing_limit_is_rejected():
    for build in (lambda k: TruncatedSeries(CTX, k, {}),
                  lambda k: TruncatedSeries.zero(CTX, k),
                  lambda k: TruncatedSeries.constant(CTX, k, 1),
                  lambda k: TruncatedSeries.variable(CTX, k, "z1")):
        assert build(_MAX_ORDER).order == _MAX_ORDER
        with pytest.raises(ValueError, match=f"exceeds the packing limit {_MAX_ORDER}"):
            build(_MAX_ORDER + 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, _MAX_ORDER), st.integers(0, _MAX_ORDER)),
                min_size=1, max_size=CTX.arity))
@example([(_MAX_ORDER, _MAX_ORDER)] * CTX.arity)
def test_sum_of_two_keys_within_the_budget_carries_into_no_field(pairs):
    # the guard bit: any two exponents within the order budget, even
    # summing past it, add field by field
    left = [x for x, _ in pairs] + [0] * (CTX.arity - len(pairs))
    right = [y for _, y in pairs] + [0] * (CTX.arity - len(pairs))
    total = CTX._unpack(CTX._pack(left) + CTX._pack(right))
    assert total == tuple(x + y for x, y in zip(left, right))


def test_truncate_rejects_orders_outside_zero_to_its_own():
    s = series("z1 + z1^2*wb", order=4)
    for order in (-1, 5):
        with pytest.raises(InsufficientOrderError):
            s.truncate(order)


# ----------------------------------------------------------------------
# ring operations against dict arithmetic, empty operands included

UVW = VariableContext(("u", "v", "w"))


@st.composite
def sparse_series(draw):
    """A series of order 0..4, empty in about one draw of five."""
    order = draw(st.integers(0, 4))
    terms = {}
    for _ in range(draw(st.sampled_from([0, 1, 2, 4, 6]))):
        exps = draw(st.tuples(*(st.integers(0, 3) for _ in range(3))))
        terms[exps] = draw(st.sampled_from(CANCELLING_POOL))
    return TruncatedSeries(UVW, order, terms)


def reference_sum(a, b, sign):
    """(order, terms) of a + sign * b by plain dict arithmetic."""
    order = min(a.order, b.order)
    out = {}
    for s, k in ((a, 1), (b, sign)):
        for e, c in s.terms.items():
            if sum(e) <= order:
                out[e] = out.get(e, ZERO) + c * k
    return order, {e: c for e, c in out.items() if c}


def reference_product(a, b):
    order = min(a.order, b.order)
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out.get(e, ZERO) + ca * cb
    return order, {e: c for e, c in out.items() if c}


def order_and_terms(s):
    return s.order, s.terms


EMPTY_HIGH = TruncatedSeries(UVW, 3, {})
LINEAR_LOW = TruncatedSeries(UVW, 1, {(1, 0, 0): ONE, (0, 2, 0): ONE})
CUBIC_HIGH = TruncatedSeries(UVW, 3, {(1, 0, 0): ONE, (1, 1, 1): ONE})
EMPTY_LOW = TruncatedSeries(UVW, 1, {})


@settings(max_examples=150, deadline=None)
@given(sparse_series(), sparse_series())
@example(EMPTY_HIGH, LINEAR_LOW)
@example(CUBIC_HIGH, EMPTY_LOW)
@example(EMPTY_LOW, EMPTY_HIGH)
@example(EMPTY_HIGH, CUBIC_HIGH)
def test_ring_operations_match_dict_arithmetic(a, b):
    # an empty operand shortcuts only at equal orders; at unequal orders
    # the result still has the lower order and the cut terms
    assert order_and_terms(a * b) == reference_product(a, b)
    assert order_and_terms(b * a) == reference_product(b, a)
    assert order_and_terms(a + b) == reference_sum(a, b, 1)
    assert order_and_terms(a - b) == reference_sum(a, b, -1)
    assert order_and_terms(-a) == (a.order, {e: -c for e, c in a.terms.items()})


@pytest.mark.parametrize("value", [3, 0, Fraction(-2, 3), GaussianRational(Fraction(1, 2), -1)])
def test_scalar_operands_are_constant_series(value):
    s = series("1 + z1 - wb^2", order=3)
    const = TruncatedSeries.constant(CTX, 3, value)
    for got, want in (
        (s + value, s + const), (value + s, const + s),
        (s - value, s - const), (value - s, const - s),
        (s * value, s * const), (value * s, const * s),
    ):
        assert order_and_terms(got) == order_and_terms(want)


@pytest.mark.parametrize("value", [1.5, "z1"])
def test_float_and_str_operands_raise_type_error(value):
    s = series("1 + z1", order=3)
    for op in (lambda: s + value, lambda: value + s, lambda: s - value,
               lambda: value - s, lambda: s * value, lambda: value * s,
               lambda: s.scale(value),
               lambda: TruncatedSeries.constant(CTX, 3, value)):
        with pytest.raises(TypeError):
            op()


def test_product_with_an_empty_operand_skips_the_product_loop(monkeypatch):
    calls = []

    def spy(dl, left, dr, right, limit):
        calls.append(limit)
        return _product(dl, left, dr, right, limit)

    s = series("1 + z1*wb", order=5)
    monkeypatch.setattr(series_module, "_product", spy)
    for empty in (TruncatedSeries.zero(CTX, 3), TruncatedSeries.zero(CTX, 7)):
        for product in (s * empty, empty * s):
            assert product.is_zero() and product.order == min(s.order, empty.order)
    assert not calls
    s * s
    assert calls == [5]


# ----------------------------------------------------------------------
# the product kernel and the sum of a scaled series against the scalar
# loops, on coefficients whose denominators are coprime


def reference_product_terms(left, right, limit):
    """The Cauchy product by scalar operations, one product and one sum
    per pair of terms."""
    out = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            if sum(key) <= limit:
                total = out.get(key)
                out[key] = ca * cb if total is None else total + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_add_into(acc, terms, factor):
    out = dict(acc)
    for e, c in terms.items():
        out[e] = out[e] + factor * c if e in out else factor * c
    return {e: c for e, c in out.items() if c}


def assert_canonical_terms(terms):
    for coeff in terms.values():
        a, b, d = coeff._a, coeff._b, coeff._d
        assert d > 0 and (a or b) and math.gcd(a, b, d) == 1


def assert_canonical_storage(s):
    """One denominator d > 0 with gcd(d, every numerator) = 1 (d = 1 for the
    empty series), per-degree dicts that are nonempty and hold their own
    degree's keys, and no zero numerator pair."""
    d, grades = s._den, s._grades
    g = d
    for degree, terms in grades.items():
        assert terms and degree <= s.order
        for key, (a, b) in terms.items():
            assert (a or b) and sum(s.context._unpack(key)) == degree
            g = math.gcd(g, a, b)
    assert d > 0 and g == 1


def as_series(terms):
    """A term dict as a series of the highest order over (u, v, w)."""
    return TruncatedSeries(UVW, _MAX_ORDER, terms)


COPRIME_POOL = [
    ps.gaussian("1/3"),
    ps.gaussian("-2/5"),
    ps.gaussian(0, "1/7"),
    ps.gaussian("3/11", "1/11"),
    ps.gaussian("1/2", "-1/2"),
    ps.gaussian("1/6", "1/6"),
    ps.gaussian(2**70 + 1),
    ps.gaussian(Fraction(-(3**50), 13), 5**20),
    ps.gaussian(-1),
    ps.gaussian(0, 1),
]
KERNEL_EXPONENTS = st.tuples(*(st.integers(0, 3) for _ in range(3)))


@st.composite
def coprime_terms(draw):
    """A term dict of 0-6 terms; one term in about one draw of three."""
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 6]))
    return draw(st.dictionaries(KERNEL_EXPONENTS, st.sampled_from(COPRIME_POOL),
                                min_size=size, max_size=size))


@st.composite
def cancelling_factors(draw):
    """Two term dicts whose product cancels on a key: left has c1 at m1 and
    c2 at m2, right has -s*c1 at m1 and s*c2 at m2, so the two products on
    m1 + m2 sum to zero unless other terms reach it too."""
    m1, m2 = draw(st.lists(KERNEL_EXPONENTS, min_size=2, max_size=2, unique=True))
    c1, c2, s = (draw(st.sampled_from(COPRIME_POOL)) for _ in range(3))
    left = {m1: c1, m2: c2}
    right = {m1: -s * c1, m2: s * c2}
    left.update(draw(coprime_terms()))
    right.update(draw(coprime_terms()))
    return left, right


THIRD, FIFTH = COPRIME_POOL[:2]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(coprime_terms(), coprime_terms()), cancelling_factors()),
       st.integers(0, 10))
# a product exactly at the limit from a one-term operand on either side
@example(({(1, 0, 0): THIRD}, {(0, 1, 0): FIFTH, (2, 0, 0): THIRD}), 3)
@example(({(0, 1, 0): FIFTH, (2, 0, 0): THIRD}, {(1, 0, 0): THIRD}), 3)
# two operands of mixed denominators, each with more than one term
@example(({(1, 0, 0): THIRD, (0, 1, 0): FIFTH}, {(0, 0, 1): FIFTH, (1, 0, 0): ONE}), 2)
def test_product_terms_match_the_scalar_loop(operands, limit):
    left, right = (as_series(terms) for terms in operands)
    out = TruncatedSeries._valid(UVW, limit, *_product(
        left._den, left._grades, right._den, right._grades, limit))
    assert out.terms == reference_product_terms(*operands, limit)
    assert all(sum(e) <= limit for e in out.terms)
    assert_canonical_terms(out.terms)
    assert_canonical_storage(out)


@settings(max_examples=200, deadline=None)
@given(coprime_terms(), coprime_terms(), st.sampled_from(COPRIME_POOL),
       st.lists(st.booleans(), min_size=6, max_size=6))
@example({(0, 0, 1): THIRD}, {(1, 0, 0): FIFTH, (0, 1, 0): ONE}, THIRD, [True] + [False] * 5)
# (1 + i)/6 + (1 - i)/2 * 1/3 = 1/3: a sum over one denominator that reduces
@example({(1, 0, 0): COPRIME_POOL[5]}, {(1, 0, 0): THIRD}, COPRIME_POOL[4], [False] * 6)
# u/3 - (2/15)*v: the left numerators are brought over the lcm 15
@example({(1, 0, 0): THIRD}, {(0, 1, 0): FIFTH}, THIRD, [False] * 6)
def test_add_into_with_a_factor_matches_the_scalar_loop(acc, terms, factor, cancels):
    # a flagged term of ``terms`` meets -factor * itself in ``acc``
    for (e, c), cancel in zip(terms.items(), cancels):
        if cancel:
            acc[e] = -(factor * c)
    expected = reference_add_into(acc, terms, factor)
    out = as_series(acc) + as_series(terms).scale(factor)
    assert out.terms == expected
    assert_canonical_terms(out.terms)
    assert_canonical_storage(out)


@st.composite
def product_operands(draw):
    """A series over (u, v, w) of order 0..6, empty in about one draw of
    four, with coefficients over coprime denominators or that cancel."""
    size = draw(st.sampled_from([0, 1, 2, 4]))
    terms = draw(st.dictionaries(KERNEL_EXPONENTS,
                                 st.sampled_from(COPRIME_POOL + CANCELLING_POOL),
                                 min_size=size, max_size=size))
    return TruncatedSeries(UVW, draw(st.integers(0, 6)), terms)


SIGNED_PRODUCTS = st.lists(
    st.tuples(st.sampled_from([1, -1]), product_operands(), product_operands()), max_size=4)
X_THIRD = as_series({(1, 0, 0): THIRD})
Y_FIFTH = as_series({(0, 1, 0): FIFTH, (0, 0, 2): ONE})


@settings(max_examples=200, deadline=None)
@given(SIGNED_PRODUCTS, st.integers(0, 6))
@example([], 3)
# two products over the coprime denominators 3 and 15, and the same
# product with both signs, which cancels
@example([(1, X_THIRD, X_THIRD), (-1, X_THIRD, Y_FIFTH)], 2)
@example([(1, X_THIRD, Y_FIFTH), (-1, Y_FIFTH, X_THIRD)], 4)
def test_fused_products_match_the_sum_of_single_products(products, order):
    # one accumulator over the lcm of the dl * dr, normalized once, holds
    # the storage of the sum of the single products, each formed by ``*``
    # at its own order, from the zero of ``order``
    fused = _sum_of_products(UVW, order, products)
    expected = TruncatedSeries.zero(UVW, order)
    for sign, a, b in products:
        expected = expected + a * b if sign > 0 else expected - a * b
    assert (fused._den, fused._grades) == (expected._den, expected._grades)
    assert fused.order == expected.order
    assert_canonical_storage(fused)


# ----------------------------------------------------------------------
# substitute against a naive composition


def naive_compose(s, assignment, target):
    """sum_e c_e prod_i value_i^(e_i), multiplied out in full as polynomials
    and truncated once at the end."""
    order = min([s.order] + [v.order for v in assignment.values()])

    def times(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, GaussianRational(0)) + ca * cb
        return out

    values = []
    for name in s.context.names:
        if name in assignment:
            values.append(dict(assignment[name].truncate(order).terms))
        else:
            values.append(TruncatedSeries.variable(target, order, name).terms)
    total = {}
    for exps, coeff in s.terms.items():
        image = {(0,) * target.arity: coeff}
        for value, k in zip(values, exps):
            for _ in range(k):
                image = times(image, value)
        for e, c in image.items():
            total[e] = total.get(e, GaussianRational(0)) + c
    return TruncatedSeries(target, order, total)


SOURCE = VariableContext(("u", "v", "w", "idle"))
TARGET = VariableContext(("s", "w", "u", "t", "v"))  # reordered, with extras


@st.composite
def source_series(draw):
    """A series in (u, v, w, idle) in which ``idle`` never occurs."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = draw(st.tuples(*(st.integers(0, 2) for _ in range(3)))) + (0,)
        terms[exps] = draw(st.sampled_from(CANCELLING_POOL))
    return TruncatedSeries(SOURCE, draw(st.integers(0, 4)), terms)


@st.composite
def target_series(draw, lowest_order=0):
    """A series in TARGET without constant term."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = draw(st.tuples(*(st.integers(0, 2) for _ in range(TARGET.arity))))
        if any(exps):
            terms[exps] = draw(st.sampled_from(CANCELLING_POOL))
    return TruncatedSeries(TARGET, draw(st.integers(lowest_order, 5)), terms)


@settings(max_examples=80, deadline=None)
@given(source_series(), st.sets(st.sampled_from(["u", "v", "w"])), st.data())
def test_substitute_matches_naive_composition(s, assigned, data):
    # unassigned names pass through to the same-named target variable; the
    # unused "idle" must be assigned, since TARGET lacks it, and the target
    # variables "s" and "t" are unused unless an assigned value holds them
    assignment = {name: data.draw(target_series()) for name in sorted(assigned) + ["idle"]}
    result = s.substitute(assignment, target_context=TARGET)
    expected = naive_compose(s, assignment, TARGET)
    assert result == expected
    assert result.order == expected.order
    assert_valid(result)


@settings(max_examples=100, deadline=None)
@given(mixed_order_series(), st.permutations(("u", "v", "w", "s", "t")))
def test_embedded_matches_the_composition_with_an_empty_assignment(s, names):
    # re-indexing into a shuffled superset context is composing with no
    # assigned value: every variable passes through by name
    superset = VariableContext(names)
    sources = [s.context.index(name) if name in s.context else None for name in names]
    embedded = s._embedded(superset, sources)
    composed = s.substitute({}, target_context=superset)
    assert embedded.terms == composed.terms
    assert embedded.order == composed.order
    assert (embedded._den, embedded._grades) == (composed._den, composed._grades)
    assert_valid(embedded)


@st.composite
def source_family(draw):
    """1-4 series in SOURCE of different orders, built from a few shared
    leading exponents (u, v), so their monomials share prefixes within a
    series and across series."""
    prefixes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             min_size=1, max_size=3))
    family = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            exps = draw(st.sampled_from(prefixes)) + (draw(st.integers(0, 2)), 0)
            terms[exps] = draw(st.sampled_from(CANCELLING_POOL))
        family.append(TruncatedSeries(SOURCE, draw(st.integers(0, 4)), terms))
    return family


@settings(max_examples=80, deadline=None)
@given(source_family(), st.sets(st.sampled_from(["u", "v", "w"])), st.data())
def test_compose_matches_naive_composition_of_each_series(family, assigned, data):
    # one walk over a list under one assignment: each output is the naive
    # composition of its own series, at its own order.  Values of order >= 2
    # leave the series' orders 0..4 to tell the outputs' orders apart.
    assignment = {name: data.draw(target_series(lowest_order=2))
                  for name in sorted(assigned) + ["idle"]}
    results = _compose(family, assignment, TARGET)
    assert len(results) == len(family)
    for s, result in zip(family, results):
        expected = naive_compose(s, assignment, TARGET)
        assert result == expected
        assert result.order == expected.order
        assert_valid(result)


@st.composite
def mixed_values(draw, lowest_order=1):
    """A value in TARGET: a bare target variable (of any order from
    ``lowest_order``), which the walk makes a key offset, or a series that
    must still be walked: a variable times 2, a variable plus a term of
    degree 2, or a random series."""
    kind = draw(st.sampled_from(["bare", "bare", "twice", "plus-square", "series"]))
    order = draw(st.integers(lowest_order, 5))
    var = TruncatedSeries.variable(TARGET, order, draw(st.sampled_from(TARGET.names)))
    if kind == "bare":
        return var
    if kind == "twice":
        return var.scale(2)
    if kind == "plus-square":
        other = TruncatedSeries.variable(TARGET, order, draw(st.sampled_from(TARGET.names)))
        return var + other * other
    return draw(target_series(lowest_order=lowest_order))


S_BARE = TruncatedSeries.variable(TARGET, 5, "s")
S_BARE_LOW = TruncatedSeries.variable(TARGET, 1, "s")
U_AND_SQUARE = (TruncatedSeries.variable(TARGET, 5, "u")
                + TruncatedSeries(TARGET, 5, {(0, 0, 0, 2, 0): ONE}))  # u + t^2
UVW_FAMILY = [
    TruncatedSeries(SOURCE, 4, {(1, 1, 1, 0): ONE, (2, 0, 1, 0): THIRD, (0, 2, 0, 0): ONE}),
    TruncatedSeries(SOURCE, 2, {(1, 1, 0, 0): FIFTH, (0, 0, 2, 0): ONE}),
]


@settings(max_examples=120, deadline=None)
@given(source_family(), st.dictionaries(st.sampled_from(["u", "v", "w"]), mixed_values()),
       mixed_values())
# u and v both onto the target's s; w passes through
@example(UVW_FAMILY, {"u": S_BARE, "v": S_BARE}, S_BARE)
# a bare variable of order 1 below the other value's order 5 caps every output
@example(UVW_FAMILY, {"u": S_BARE_LOW, "v": U_AND_SQUARE}, S_BARE)
# walked values: twice a variable, and a variable plus a square; w passes through
@example(UVW_FAMILY, {"u": S_BARE.scale(2), "v": U_AND_SQUARE}, S_BARE)
# at order 2, u*v and v*w keep only the degree-1 part of v's image: the
# bare u and the pass-through w each add a degree
@example([TruncatedSeries(SOURCE, 2, {(1, 0, 1, 0): ONE, (1, 1, 0, 0): ONE})],
         {"u": S_BARE, "v": U_AND_SQUARE}, S_BARE)
@example([TruncatedSeries(SOURCE, 2, {(0, 1, 1, 0): ONE})], {"v": U_AND_SQUARE}, S_BARE)
def test_compose_with_offsets_matches_naive_composition(family, assignment, idle):
    # pass-through names and bare variables become key offsets and degree
    # shifts of the walked part's image; each output is still the naive
    # composition of its own series, cut at its own order
    assignment = dict(assignment, idle=idle)
    results = _compose(family, assignment, TARGET)
    for s, result in zip(family, results):
        expected = naive_compose(s, assignment, TARGET)
        assert result == expected
        assert result.order == expected.order
        assert_valid(result)


def test_compose_cuts_each_output_at_its_own_order():
    # the images are built through the highest output order, 3; the
    # order-1 output keeps only their terms of degree <= 1
    low = TruncatedSeries(SOURCE, 1, {(1, 0, 0, 0): ONE})
    high = TruncatedSeries(SOURCE, 3, {(1, 0, 0, 0): ONE})
    value = series("s + s^2 + s^3", order=3, ctx=TARGET)
    idle = TruncatedSeries.variable(TARGET, 3, "t")
    cut, kept = _compose([low, high], {"u": value, "idle": idle}, TARGET)
    assert (cut.order, cut) == (1, series("s", order=1, ctx=TARGET))
    assert (kept.order, kept) == (3, value)
    assert_valid(cut)


S_TWICE_TWO = TruncatedSeries.variable(TARGET, 2, "s").scale(2)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.just([]), source_family()),
       st.lists(st.integers(0, 4), min_size=1, max_size=3),
       st.dictionaries(st.sampled_from(["u", "v", "w"]), mixed_values()), mixed_values())
# zero members of order 4 and 1 on either side of the lowest assigned order,
# 2, among two nonzero ones: the first is cut to 2, the second keeps 1
@example(UVW_FAMILY, [4, 1], {"u": S_TWICE_TWO, "v": U_AND_SQUARE}, S_BARE)
# a list of zero members only walks nothing
@example([], [3, 0], {"u": S_TWICE_TWO}, S_BARE_LOW)
def test_compose_gives_each_zero_member_the_zero_of_its_output_order(
        family, zero_orders, assignment, idle):
    # a zero member is not walked: its output is the zero series of the
    # smaller of its order and the lowest assigned order, as the naive
    # composition gives it, and the other outputs are as without it
    assignment = dict(assignment, idle=idle)
    zeros = [TruncatedSeries.zero(SOURCE, order) for order in zero_orders]
    mixed = zeros[:1] + family + zeros[1:]
    results = _compose(mixed, assignment, TARGET)
    assert len(results) == len(mixed)
    for s, result in zip(mixed, results):
        expected = naive_compose(s, assignment, TARGET)
        assert result == expected
        assert result.order == expected.order
        assert_valid(result)
    if family:
        assert _compose(family, assignment, TARGET) == results[1:len(family) + 1]


NEAR = VariableContext(("x", "u", "v", "t"))  # x and t pass through


@st.composite
def near_identity(draw, name):
    """The variable ``name`` of NEAR plus terms of degree 2 and 3, at an
    order from 1 to 6."""
    terms = {tuple(int(other == name) for other in NEAR.names): ONE}
    for _ in range(draw(st.integers(0, 4))):
        exps = draw(st.tuples(*(st.integers(0, 2) for _ in NEAR.names)))
        if 2 <= sum(exps) <= 3:
            terms[exps] = draw(st.sampled_from(COPRIME_POOL + CANCELLING_POOL))
    return TruncatedSeries(NEAR, draw(st.integers(1, 6)), terms)


@st.composite
def near_series(draw):
    """A series in NEAR of order 0 to 6, constant term allowed."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = draw(st.tuples(*(st.integers(0, 3) for _ in NEAR.names)))
        terms[exps] = draw(st.sampled_from(COPRIME_POOL + CANCELLING_POOL))
    return TruncatedSeries(NEAR, draw(st.integers(0, 6)), terms)


@settings(max_examples=80, deadline=None)
@given(st.lists(near_series(), min_size=1, max_size=3), near_identity("u"), near_identity("v"))
# a zero member, and one whose solution reaches the top degree through
# parts of every degree, with the x and t passing through
@example([TruncatedSeries.zero(NEAR, 3),
          ps.parse_series("u*v + x*u^2 + t^3 + (1/3)*x*t*v^2", NEAR, 5)],
         ps.parse_series("u + v^2 + x*u", NEAR, 6),
         ps.parse_series("v + (i/3)*u*t + (2/5)*v^3", NEAR, 5))
def test_solve_composition_inverts_the_composition(family, u, v):
    # G_j composed with u := u + ..., v := v + ... is series j through the
    # lower of its order and the assigned ones, the order of G_j; that
    # determines G_j, and it holds nothing above its order
    assignment = {"u": u, "v": v}
    solved = series_module._solve_composition(family, assignment)
    assert len(solved) == len(family)
    for s, g in zip(family, solved):
        order = min(s.order, u.order, v.order)
        assert g.order == order
        assert_valid(g)
        assert naive_compose(g, assignment, NEAR) == s.truncate(order)


def test_compose_rejects_an_empty_or_mixed_list():
    u = TruncatedSeries.variable(TARGET, 3, "s")
    with pytest.raises(ValueError):
        _compose([], {"u": u}, TARGET)
    other = VariableContext(("u", "v", "w"))
    with pytest.raises(ContextMismatchError):
        _compose([TruncatedSeries.variable(SOURCE, 3, "u"),
                  TruncatedSeries.variable(other, 3, "u")], {"u": u}, TARGET)


def test_substitute_rejects_unknown_pass_through_name():
    # "idle" has exponent 0 in every term and is still looked up
    s = TruncatedSeries(SOURCE, 3, {(1, 0, 0, 0): ONE, (0, 2, 0, 0): ONE})
    u = TruncatedSeries.variable(TARGET, 3, "s")
    with pytest.raises(UnknownVariableError):
        s.substitute({"u": u}, target_context=TARGET)
    with pytest.raises(UnknownVariableError):
        s.substitute({"nope": u}, target_context=TARGET)


def test_substitute_rejects_constant_term_assignment():
    # checked even for a variable that no term uses
    s = TruncatedSeries(SOURCE, 3, {(1, 0, 0, 0): ONE})
    with pytest.raises(CompositionError):
        s.substitute({"idle": TruncatedSeries.constant(TARGET, 3, 2)}, target_context=TARGET)


def test_substitute_rejects_context_mismatch():
    s = TruncatedSeries(SOURCE, 3, {(1, 0, 0, 0): ONE})
    other = VariableContext(("s", "w", "u", "t", "v", "idle"))
    with pytest.raises(ContextMismatchError):
        s.substitute({"u": TruncatedSeries.variable(other, 3, "s")}, target_context=TARGET)
    with pytest.raises(ContextMismatchError):
        s.substitute({"u": TruncatedSeries.variable(TARGET, 3, "s"),
                      "v": TruncatedSeries.variable(other, 3, "s")})


def test_a_context_equals_itself_without_reading_its_names():
    # identity comes first: a context whose names cannot be compared still
    # equals itself, and another context with the same names equals it
    class Incomparable(tuple):
        def __eq__(self, other):
            raise AssertionError("names compared")

        __hash__ = tuple.__hash__

    context = VariableContext(("u", "v"))
    context.names = Incomparable(context.names)
    assert context == context
    assert not context != context
    assert VariableContext(("u", "v")) == VariableContext(("u", "v"))
    assert VariableContext(("u", "v")) != VariableContext(("v", "u"))
