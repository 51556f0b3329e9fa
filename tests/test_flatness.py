"""Flatness tensors: direct formula, minors, verdicts, two-route checks."""

import collections
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import PdeSystem, flatness as flatness_module, pde as pde_module
from pseudosphere import cli, implicit as implicit_module, matrices as matrices_module
from pseudosphere import hypersurface as hypersurface_module, series as series_module
from pseudosphere.errors import InsufficientOrderError, LeviDegenerateError
from pseudosphere.scalars import gaussian

from conftest import (
    COEFF_POOL,
    heisenberg_model,
    heisenberg_theta,
    random_gaussian,
    random_graph,
    random_series,
    rigid_perturbation_model,
)

CTX = ps.canonical_context(2)
PCTX = ps.pde_context(2)
# the rigid n = 4 model of the CI, the shape of the pipeline-n4 benchmark
# inputs: a cubic perturbation of a quadric of signature (3, 1)
RIGID_N4 = "-wb + z1*z1b + z2*z2b + z3*z3b - z4*z4b + z3*z1b*z4b + z1*z4*z3b"


def pde(texts, n=2, order=5):
    ctx = ps.pde_context(n)
    return PdeSystem(
        n, order, {key: ps.parse_series(expr, ctx, order) for key, expr in texts.items()}
    )


# ----------------------------------------------------------------------
# independent direct-formula evaluator for the trace-adjusted tensor


def hachtroudi_oracle_component(system, k1, k2, l1, l2):
    """Literal transcription of the displayed flatness condition, with
    explicit Kronecker deltas and no shared assembly code."""
    n = system.n

    def d2(a, b, m1, m2):
        return system.component(a, b).partial(f"yx{m1}").partial(f"yx{m2}")

    expr = d2(k1, k2, l1, l2)
    w1 = Fraction(1, n + 2)
    for lp in range(1, n + 1):
        if k1 == l1:
            expr = expr - d2(lp, k2, lp, l2).scale(w1)
        if k1 == l2:
            expr = expr - d2(lp, k2, l1, lp).scale(w1)
        if k2 == l1:
            expr = expr - d2(k1, lp, lp, l2).scale(w1)
        if k2 == l2:
            expr = expr - d2(k1, lp, l1, lp).scale(w1)
    kron = int(k1 == l1 and k2 == l2) + int(k2 == l1 and k1 == l2)
    if kron:
        w2 = Fraction(kron, (n + 1) * (n + 2))
        acc = None
        for lp in range(1, n + 1):
            for lpp in range(1, n + 1):
                term = d2(lp, lpp, lp, lpp)
                acc = term if acc is None else acc + term
        expr = expr + acc.scale(w2)
    return expr


# ----------------------------------------------------------------------
# tensor of a PDE system


def test_zero_system_gives_zero_tensor():
    tensor = ps.hachtroudi_tensor(PdeSystem(2, 5, {}))
    assert tensor.is_zero()


def test_system_without_first_jet_dependence_gives_zero_tensor():
    system = pde({(1, 1): "x1^2 + y", (1, 2): "x2*y", (2, 2): "y^2"})
    assert ps.hachtroudi_tensor(system).is_zero()


def test_square_jet_example_against_oracle_and_frozen_values():
    system = pde({(1, 1): "yx1^2"})
    tensor = ps.hachtroudi_tensor(system)
    for k1, k2, l1, l2 in itertools.product((1, 2), repeat=4):
        assert tensor.component(k1, k2, l1, l2) == hachtroudi_oracle_component(
            system, k1, k2, l1, l2
        )
    # raw second derivative before trace corrections is the constant 2
    assert system.component(1, 1).partial("yx1").partial("yx1") == ps.parse_series(
        "2", PCTX, 3
    )
    # frozen values confirmed by the oracle
    assert tensor.component(1, 1, 1, 1) == ps.parse_series("1/3", PCTX, 3)
    assert tensor.component(2, 1, 2, 1) == ps.parse_series("-1/3", PCTX, 3)


def test_random_systems_match_oracle(rng):
    for _ in range(5):
        components = {}
        for key in ((1, 1), (1, 2), (2, 2)):
            if rng.random() < 0.8:
                components[key] = random_series(rng, PCTX, 5, max_terms=3)
        system = PdeSystem(2, 5, components)
        tensor = ps.hachtroudi_tensor(system)
        for k1, k2, l1, l2 in itertools.product((1, 2), repeat=4):
            assert tensor.component(k1, k2, l1, l2) == hachtroudi_oracle_component(
                system, k1, k2, l1, l2
            )


@pytest.mark.parametrize("n", [2, 3])
def test_jet_table_of_zero_components_is_the_formulas(n, monkeypatch):
    # zero F_ab give zero rows at the order the second partials give, and
    # no partial of theirs is formed; the nonzero one's rows are its
    # second partials
    ctx = ps.pde_context(n)
    system = PdeSystem(n, 4, {(1, 2): ps.parse_series("yx1^2*yx2 + y*yx1", ctx, 4)})
    want = {(a, b, l1, l2): system.component(a, b).partial(f"yx{l1}").partial(f"yx{l2}")
            for a, b in system.component_keys()
            for l1 in range(1, n + 1) for l2 in range(l1, n + 1)}
    zero = {id(system.component(*key)) for key in system.component_keys()
            if system.component(*key).is_zero()}
    differentiated = []
    partial = ps.TruncatedSeries.partial

    def spy(self, name):
        differentiated.append(id(self) in zero)
        return partial(self, name)

    monkeypatch.setattr(ps.TruncatedSeries, "partial", spy)
    table = flatness_module._jet_table(system)
    assert table.keys() == want.keys()
    for key, series in want.items():
        assert table[key] == series, key
        assert table[key].order == series.order == 2, key
    assert differentiated and not any(differentiated)


@pytest.mark.parametrize("texts", [{}, {(1, 2): "yx1^2"}], ids=["zero", "nonzero"])
def test_tensor_of_a_system_below_order_two_names_its_order(texts):
    # the same error whether the first component is zero or not
    with pytest.raises(InsufficientOrderError, match="system order 1 < 2"):
        ps.hachtroudi_tensor(pde(texts, order=1))


def test_integrability_and_the_tensor_share_the_first_yx_partials(monkeypatch):
    # each nonzero F's first y_x-partials are formed once for both readers
    n = 3
    rng = random.Random(5)
    ctx = ps.pde_context(n)
    system = PdeSystem(n, 4, {key: random_series(rng, ctx, 4, max_terms=3, degree=3)
                              for key in ((1, 1), (1, 3), (2, 3))})
    stored = {id(system.component(*key)) for key in system.component_keys()}
    calls = collections.Counter()
    partial = ps.TruncatedSeries.partial

    def spy(self, name):
        if id(self) in stored:
            calls[id(self), name] += 1
        return partial(self, name)

    monkeypatch.setattr(ps.TruncatedSeries, "partial", spy)
    ps.check_complete_integrability(system)
    ps.hachtroudi_tensor(system)
    yx = [count for (_, name), count in calls.items() if name.startswith("yx")]
    assert len(yx) == 3 * n and set(yx) == {1}


def test_trace_free_identity_random_systems(rng):
    for _ in range(10):
        components = {
            key: random_series(rng, PCTX, 5, max_terms=4)
            for key in ((1, 1), (1, 2), (2, 2))
            if rng.random() < 0.9
        }
        tensor = ps.hachtroudi_tensor(PdeSystem(2, 5, components))
        for k2 in (1, 2):
            for l2 in (1, 2):
                assert tensor.contract(k2, l2).is_zero()


def trace_adjusted_reference(n, raw):
    """The trace-adjusted table of a constant raw table, in scalars.

    ``raw`` maps (a, b, l1, l2) with a <= b and l1 <= l2 to a scalar; the
    result maps each such key to (value, the set of raw keys it reads).
    Written from the displayed formula with explicit Kronecker deltas."""
    idx = range(1, n + 1)

    def key(a, b, l1, l2):
        return (min(a, b), max(a, b), min(l1, l2), max(l1, l2))

    def kron(a, b):
        return int(a == b)

    def trace(k, l):
        keys = {key(m, k, m, l) for m in idx}
        return sum(raw[key(m, k, m, l)] for m in idx), keys

    table = {}
    for k1, k2, l1, l2 in itertools.product(idx, repeat=4):
        if k1 > k2 or l1 > l2:
            continue
        value, read = raw[(k1, k2, l1, l2)], {(k1, k2, l1, l2)}
        for delta, (k, l) in ((kron(k1, l1), (k2, l2)), (kron(k1, l2), (k2, l1)),
                              (kron(k2, l1), (k1, l2)), (kron(k2, l2), (k1, l1))):
            if delta:
                t, keys = trace(k, l)
                value = value - t * Fraction(1, n + 2)
                read |= keys
        pair = kron(k1, l1) * kron(k2, l2) + kron(k1, l2) * kron(k2, l1)
        if pair:
            for l in idx:
                t, keys = trace(l, l)
                value = value + t * Fraction(pair, (n + 1) * (n + 2))
                read |= keys
        table[(k1, k2, l1, l2)] = value, read
    return table


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_adjustment_matches_the_scalar_formula(n, rng):
    # a random symmetric table of constants, some zero, each at its own
    # order: every component is the scalar formula at the lowest order of
    # the table, and every contraction vanishes
    ctx = ps.VariableContext(("u",))
    keys = [k for k in itertools.product(range(1, n + 1), repeat=4)
            if k[0] <= k[1] and k[2] <= k[3]]
    for _ in range(3):
        raw = {k: random_gaussian(rng) if rng.random() < 0.8 else gaussian(0) for k in keys}
        orders = {k: rng.randint(2, 5) for k in keys}
        table = {k: ps.TruncatedSeries.constant(ctx, orders[k], raw[k]) for k in keys}
        components = flatness_module._assemble_trace_adjusted(n, table)
        want = trace_adjusted_reference(n, raw)
        assert components.keys() == want.keys()
        low = min(orders.values())
        for key, (value, _) in want.items():
            expected = ps.TruncatedSeries.constant(ctx, low, value)
            assert components[key] == expected, key
            assert components[key].order == expected.order, key
        tensor = ps.FlatnessTensor(n, 0, components)
        for k2, l2 in itertools.product(range(1, n + 1), repeat=2):
            assert tensor.contract(k2, l2).is_zero(), (k2, l2)


def chained_trace_adjusted(n, raw):
    """The trace adjustment as a chain of series sums and scalings: each
    single trace T_{k,l} = sum_l' raw(l', k, l', l) formed once, weighted
    by 1/(n+2), and the double trace, the sum of the weighted diagonal
    traces times 1/(n+1); the table minus the four single traces plus the
    double trace once per Kronecker term.  The reference for the integer
    weight map of ``flatness._assemble_trace_adjusted``."""

    def s(a, b, l1, l2):
        return raw[(min(a, b), max(a, b), min(l1, l2), max(l1, l2))]

    w = Fraction(1, n + 2)
    trace = {
        (k, l): sum((s(lp, k, lp, l) for lp in range(2, n + 1)), s(1, k, 1, l)).scale(w)
        for k in range(1, n + 1)
        for l in range(1, n + 1)
    }
    double = sum((trace[(lp, lp)] for lp in range(2, n + 1)), trace[(1, 1)])
    double = double.scale(Fraction(1, n + 1))

    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            for l1 in range(1, n + 1):
                for l2 in range(l1, n + 1):
                    comp = s(k1, k2, l1, l2)
                    if k1 == l1:
                        comp = comp - trace[(k2, l2)]
                    if k1 == l2:
                        comp = comp - trace[(k2, l1)]
                    if k2 == l1:
                        comp = comp - trace[(k1, l2)]
                    if k2 == l2:
                        comp = comp - trace[(k1, l1)]
                    if k1 == l1 and k2 == l2:
                        comp = comp + double
                    if k2 == l1 and k1 == l2:
                        comp = comp + double
                    components[(k1, k2, l1, l2)] = comp
    return components


# coefficients over coprime denominators, so the weights' sums run over
# lcms that are no power of 2
COPRIME_POOL = [gaussian(Fraction(a, d), Fraction(b, d)) for a, b, d in
                ((1, 0, 3), (-2, 1, 5), (0, 3, 7), (4, -1, 11), (1, 1, 1), (-1, 2, 13))]


def random_raw_table(rng, n, kind, low_zero):
    """A raw table at n over (u, v): entries of orders 3 to 5, all zero
    (``kind`` "zero"), one nonzero ("single"), about one in ten nonzero
    ("sparse") or nine in ten ("dense"); with ``low_zero`` one zero entry
    has an order below every other entry's."""
    ctx = ps.VariableContext(("u", "v"))
    keys = [k for k in itertools.product(range(1, n + 1), repeat=4)
            if k[0] <= k[1] and k[2] <= k[3]]
    chance = {"zero": 0, "single": 0, "sparse": 0.1, "dense": 0.9}[kind]
    table = {}
    for key in keys:
        order = rng.randint(3, 5)
        if rng.random() < chance:
            pool = rng.choice([COEFF_POOL, COPRIME_POOL])
            table[key] = random_series(rng, ctx, order, max_terms=4, pool=pool)
        else:
            table[key] = ps.TruncatedSeries.zero(ctx, order)
    if kind == "single":
        key = rng.choice(keys)
        table[key] = random_series(rng, ctx, table[key].order, max_terms=4, pool=COPRIME_POOL)
    if low_zero:
        table[rng.choice(keys)] = ps.TruncatedSeries.zero(ctx, 2)
    return table


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 5]),
       kind=st.sampled_from(["zero", "single", "sparse", "dense"]),
       low_zero=st.booleans(),
       rng=st.randoms(use_true_random=False))
@example(n=2, kind="zero", low_zero=False, rng=random.Random(0))
@example(n=3, kind="zero", low_zero=True, rng=random.Random(0))
@example(n=4, kind="single", low_zero=False, rng=random.Random(0))
@example(n=2, kind="single", low_zero=True, rng=random.Random(1))
@example(n=3, kind="dense", low_zero=True, rng=random.Random(2))
@example(n=4, kind="sparse", low_zero=True, rng=random.Random(3))
def test_trace_map_matches_the_chained_adjustment(n, kind, low_zero, rng):
    # every component, in its storage and its order, is the chained
    # reference's cut to the lowest order of the table, zero entries
    # included, so one low zero entry lowers every component; and every
    # contraction of the result vanishes
    raw = random_raw_table(rng, n, kind, low_zero)
    got = flatness_module._assemble_trace_adjusted(n, raw)
    want = chained_trace_adjusted(n, raw)
    low = min(series.order for series in raw.values())
    assert got.keys() == want.keys()
    for key, series in want.items():
        assert got[key] == series.truncate(low), key
        assert got[key].order == low, key
    if low_zero:
        assert {series.order for series in got.values()} == {2}
    tensor = ps.FlatnessTensor(n, 0, got)
    for k2, l2 in itertools.product(range(1, n + 1), repeat=2):
        assert tensor.contract(k2, l2).is_zero(), (k2, l2)


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_map_weights_are_nonzero_on_the_entries_each_component_reads(n):
    # the raw keys that reach each component are those its displayed
    # formula reads, its own among them, so the components have the raw
    # keys; no weight cancels to 0, and the map is built once per n
    columns = flatness_module._trace_map(n)
    keys = [k for k in itertools.product(range(1, n + 1), repeat=4)
            if k[0] <= k[1] and k[2] <= k[3]]
    want = trace_adjusted_reference(n, dict.fromkeys(keys, 0))
    scattered = collections.defaultdict(set)
    for r, reached in columns.items():
        for k, c in reached:
            assert isinstance(c, int) and c, (k, r)
            scattered[k].add(r)
    assert scattered == {k: read for k, (_, read) in want.items()}
    assert columns.keys() == scattered.keys() == set(keys)
    assert flatness_module._trace_map(n) is flatness_module._trace_map(n)


# ----------------------------------------------------------------------
# minors


def test_heisenberg_minor_values():
    family = ps.minors(heisenberg_model(2, 6))
    assert family.delta == ps.parse_series("-1", CTX, 4)
    # hand cofactors of [[z1, z2, -1], [1, 0, 0], [0, 1, 0]] with one
    # column replaced by a unit column
    assert family.unit(1, 1) == ps.parse_series("-1", CTX, 4)
    assert family.unit(2, 2) == ps.parse_series("-1", CTX, 4)
    assert family.unit(1, 2).is_zero()
    assert family.unit(2, 1).is_zero()
    assert family.unit(3, 1) == ps.parse_series("-z1", CTX, 4)
    assert family.unit(3, 2) == ps.parse_series("-z2", CTX, 4)


def test_cramer_consistency(rng):
    # sum_mu unit(mu, l) * column_mu reproduces delta * e_{1+l}
    model = rigid_perturbation_model(rng, 2, 6)
    family = ps.minors(model)
    matrix = family.matrix
    for l in (1, 2):
        for row in range(3):
            acc = None
            for mu in range(1, 4):
                term = family.unit(mu, l) * matrix.entries[row][mu - 1]
                acc = term if acc is None else acc + term
            if row == l:
                assert acc.agrees_with(family.delta)
            else:
                assert acc.is_zero()


def reference_transfer(family, t):
    """Test-only reference for ``MinorFamily.transfer``: the double sum with
    every second minor D^tau_[mu nu] expanded on its own, as the determinant
    of the fundamental matrix with column tau replaced by the a_mu a_nu
    derivative column.  Each entry is its own double sum, and each term is
    grouped as (D^mu_[l1] * D^nu_[l2]) * brace on purpose, unlike
    ``transfer``, which contracts the braces with the unit minors of l2
    into a V shared by all entries of column l2 before the unit minors of
    l1 meet it: exact arithmetic makes the grouping irrelevant to the
    value and the order, so this is the independent check of the
    factoring.  An entry with no term is None here."""
    size = len(family.parameters)
    table = {}
    for l1 in range(1, size):
        for l2 in range(l1, size):
            acc = None
            for mu in range(1, size + 1):
                for nu in range(1, size + 1):
                    unit_mu, unit_nu = family.unit(mu, l1), family.unit(nu, l2)
                    if unit_mu.is_zero() or unit_nu.is_zero():
                        continue
                    term = unit_mu * unit_nu * reference_brace(family, t, mu, nu)
                    acc = term if acc is None else acc + term
            table[(l1, l2)] = acc
    return table


def reference_brace(family, t, mu, nu):
    """delta * t_{mu nu} - sum_tau D^tau_[mu nu] * t_tau, with every second
    minor expanded on its own as a replaced-column determinant."""
    params = family.parameters
    first = [t.partial(a) for a in params]
    col = [row[mu - 1].partial(params[nu - 1]) for row in family.matrix.entries]
    value = family.delta * first[mu - 1].partial(params[nu - 1])
    for tau in range(1, len(params) + 1):
        if not first[tau - 1].is_zero():
            second = family.matrix.with_column(tau - 1, col).determinant()
            value = value - second * first[tau - 1]
    return value


def chern_moser_origin(theta, signs):
    """Test-only closed form of the main theorem tensor at the origin.

    For theta = -wb + sum_k eps_k z_k zb_k, plus a Hermitian quartic of type
    (2, 2), plus terms of degree >= 5, let C be the fourth derivatives
    d^4 theta / dz_k1 dz_k2 dzb_l1 dzb_l2 at 0 and S their trace-free part,
    with traces taken through the Levi form diag(eps) and the weights
    1/(n+2) and 1/((n+1)(n+2)) (Chern & Moser, "Real hypersurfaces in
    complex manifolds", Acta Math. 133 (1974)).  Then

        W_{k1 k2 l1 l2}(0) = (-1)^(n+1) det(eps) eps_l1 eps_l2 S_{k1 k2 l1 l2}.

    This reads theta's quartic coefficients and shares no series code and
    no trace adjustment with the library.  Keys are (k1, k2, l1, l2) with
    k1 <= k2 and l1 <= l2."""
    n = len(signs)
    idx = range(1, n + 1)
    eps = dict(zip(idx, signs))

    def c(k1, k2, l1, l2):
        exps = [0] * theta.context.arity
        for name in (f"z{k1}", f"z{k2}", f"z{l1}b", f"z{l2}b"):
            exps[theta.context.index(name)] += 1
        return theta.coefficient(exps) * math.prod(map(math.factorial, exps))

    def kron(a, b):
        return int(a == b)

    trace = {(k, l): sum(eps[m] * c(m, k, m, l) for m in idx) for k in idx for l in idx}
    double = sum(eps[l] * trace[(l, l)] for l in idx)
    sign = (-1) ** (n + 1) * math.prod(signs)
    table = {}
    for k1, k2, l1, l2 in itertools.product(idx, repeat=4):
        if k1 > k2 or l1 > l2:
            continue
        single = (eps[k1] * kron(k1, l1) * trace[(k2, l2)]
                  + eps[k1] * kron(k1, l2) * trace[(k2, l1)]
                  + eps[k2] * kron(k2, l1) * trace[(k1, l2)]
                  + eps[k2] * kron(k2, l2) * trace[(k1, l1)])
        pair = kron(k1, l1) * kron(k2, l2) + kron(k1, l2) * kron(k2, l1)
        s = (c(k1, k2, l1, l2) - single * Fraction(1, n + 2)
             + eps[k1] * eps[k2] * pair * double * Fraction(1, (n + 1) * (n + 2)))
        table[(k1, k2, l1, l2)] = sign * eps[l1] * eps[l2] * s
    return table


def assert_same_series_tables(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
        assert got[key].order == want[key].order, key


def random_graph_model(rng, n, order):
    return ps.from_graph(random_graph(rng, n, order), n, order)


def random_solution(rng, n, order):
    """A fundamental solution Q = -b + x.a plus 1-4 random terms of degree
    3-4, each with some x and some parameter, so that the minors vary with
    x, a and b; unlike a model's theta, Q obeys no reality condition."""
    fctx = ps.fundamental_context(n)
    monos = [e for e in itertools.product(range(5), repeat=fctx.arity)
             if 3 <= sum(e) <= 4 and any(e[:n]) and any(e[n:])]
    q = ps.parse_series(" + ".join(["-b"] + [f"x{k}*a{k}" for k in range(1, n + 1)]),
                        fctx, order)
    extra = {rng.choice(monos): rng.choice(COEFF_POOL) for _ in range(rng.randint(1, 4))}
    return ps.FundamentalSolution(n, q + ps.TruncatedSeries(fctx, order, extra))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, "rigid"), (2, "graph"), (2, "solution"), (3, "rigid"),
                     (3, "graph"), (3, "solution"), (4, "rigid")]),
    st.sampled_from(["theta_zz", "random", "parameter_free", "zero"]),
    st.integers(-1, 2),
    st.randoms(use_true_random=False),
)
@example((4, "rigid"), "random", 1, random.Random(4))
@example((4, "rigid"), "zero", 0, random.Random(4))
@example((2, "solution"), "random", 0, random.Random(0))
def test_transfer_matches_replaced_column_minors(shape, t_kind, t_shift, rng):
    # n = 4 at order 6 is the shape of the pipeline-n4 benchmark inputs; an
    # exactly zero t is what most of their transfers read, theta_{z_a z_b}
    # of a rigid cubic perturbation.  A fundamental solution's fields X_l
    # do not commute, which tells the two factors of the chain rule's
    # correction term (X_l1 delta) * X_l2 t apart.
    n, kind = shape
    order = 5 if n == 3 else 6
    if kind == "solution":
        obj = random_solution(rng, n, order)
        series = obj.q
    else:
        make = rigid_perturbation_model if kind == "rigid" else random_graph_model
        obj = make(rng, n, order)
        series = obj.theta
    family = ps.minors(obj)
    ctx = series.context
    if t_kind == "theta_zz":
        a, b = sorted(rng.choice(ctx.names[:n]) for _ in range(2))
        t = series.partial(a).partial(b)
    elif t_kind == "zero":
        t = ps.TruncatedSeries.zero(ctx, order + t_shift)
    else:
        t = random_series(rng, ctx, order + t_shift, degree=4)
        if t_kind == "parameter_free":
            t = ps.TruncatedSeries(
                t.context, t.order, {e: c for e, c in t.terms.items() if not any(e[n:])}
            )
    assert_same_series_tables(family.transfer(t), reference_transfer(family, t))


def test_transfer_order_counts_zero_column_entries():
    # theta_{z_k z1b z1b} vanishes identically while theta_{z1b z1b} does
    # not: the zero entries of this a_1 a_1 column have the lower guaranteed
    # order, one below delta's, and it bounds the replaced matrix's
    # determinant as delta's parameter gradient bounds the transfer
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^3 + z1b^3", CTX, 6)
    model = ps.make_model(2, theta, 6)
    family = ps.minors(model)
    col = [row[0].partial("z1b") for row in family.matrix.entries]
    assert not col[0].is_zero() and col[1].is_zero() and col[2].is_zero()
    assert col[1].order < col[0].order
    for t in (
        theta.partial("z1").partial("z1"),
        ps.parse_series("z1b^2 + z1*wb", CTX, 8),
    ):
        table = family.transfer(t)
        assert_same_series_tables(table, reference_transfer(family, t))
    assert table[(1, 1)].order == model.order - 3


def spied_transfers(monkeypatch):
    """(family, t, table, the operand grades of every product inside
    ``transfer``) for the target graph at order 8 and a rigid n = 4 model
    at order 6, the shape of the pipeline-n4 benchmark inputs.  Every
    product of the transfer is an operand pair of a call of the one
    product loop, ``series._products``, which the spy records."""
    graph = ps.parse_series("x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2",
                            ps.graph_context(2), 8)
    loop = series_module._products
    for model in (ps.from_graph(graph, 2, 8),
                  rigid_perturbation_model(random.Random(7), 4, 6)):
        family = ps.minors(model)
        t = model.theta.partial("z1").partial("z1") + ps.parse_series(
            "z1b^2 + z1*wb", model.context, model.order - 2)
        operands = []

        def spy(products, limit):
            products = list(products)
            operands.extend((left, right) for _, _, left, _, right in products)
            return loop(products, limit)

        monkeypatch.setattr(series_module, "_products", spy)
        table = family.transfer(t)
        monkeypatch.undo()
        yield family, t, table, operands


def test_transfer_forms_no_product_of_two_unit_minors(monkeypatch):
    # every product has a parameter derivative of t, of X_l2 t or of delta,
    # or delta, or X_l1 delta, as a factor; the product of two unit minors
    # alone would be formed at the cofactor order, above the entry order.
    # A series shares its grades with the storage the loop multiplies.
    for family, t, table, operands in spied_transfers(monkeypatch):
        units = {id(u._grades) for u in family.cofactor.values()}
        assert any(id(a) in units for a, _ in operands)
        assert not any(id(a) in units and id(b) in units for a, b in operands)
        assert_same_series_tables(table, reference_transfer(family, t))


def test_transfer_multiplies_each_unit_minor_column_once(monkeypatch):
    # the count of the chain rule, from the pattern of nonzero unit minors
    # and of nonzero parameter derivatives: X_l t once per l, one product
    # per live mu of l whose t_mu is nonzero; X_l delta once per family,
    # likewise; then per entry (l1, l2) one product per live mu of l1
    # whose d(X_l2 t)/da_mu is nonzero, delta * X_l1 X_l2 t and
    # (X_l1 delta) * X_l2 t.  With every unit minor and derivative nonzero
    # that is n(n+1)(n+5)/2 per t (90 at n = 4), and n(n+1) per family.
    # A product is one operand pair handed to the product loop; the two
    # of an entry are handed over even when one operand is zero.
    skipped = 0
    for family, t, table, operands in spied_transfers(monkeypatch):
        params = family.parameters
        size = len(params)
        columns = range(1, size)
        live = {l: [mu for mu in range(1, size + 1) if not family.unit(mu, l).is_zero()]
                for l in columns}
        assert all(live.values())

        def terms(l, series):
            """The (mu, d series/da_mu) of X_l series that are products."""
            gradient = [series.partial(a) for a in params]
            return [(mu, gradient[mu - 1]) for mu in live[l]
                    if not gradient[mu - 1].is_zero()]

        def along(l, series):
            return sum((family.unit(mu, l) * d for mu, d in terms(l, series)),
                       start=ps.TruncatedSeries.zero(t.context, t.order))

        pushed = {l: along(l, t) for l in columns}
        entries = [(l1, l2) for l1 in columns for l2 in columns if l1 <= l2]
        per_t = (sum(len(terms(l, t)) for l in columns)
                 + sum(len(terms(l1, pushed[l2])) + 2 for l1, l2 in entries))
        per_family = sum(len(terms(l, family.delta)) for l in columns)
        n = size - 1
        assert len(operands) == per_t + per_family
        assert per_t <= n * (n + 1) * (n + 5) // 2 and per_family <= n * (n + 1)
        assert_same_series_tables(table, reference_transfer(family, t))
        skipped += n * (n + 1) * (n + 5) // 2 - per_t
    # the rigid n = 4 model has zero unit minors, whose products are skipped
    assert skipped


@pytest.mark.parametrize("n", [2, 4])
def test_each_second_partial_of_theta_is_formed_once(n, monkeypatch):
    # the elimination, the direct table and the cross-check read every
    # theta_{z_a z_b}, a <= b, off the minor family, which forms it once
    # from theta_{z_a}: one z_b-derivative of each first partial per b >= a
    model = rigid_perturbation_model(random.Random(n), n, 6)
    family = ps.minors(model)
    firsts = {id(first): a for a, first in enumerate(family.firsts, 1)}
    z_names = model.theta.context.names[:n]
    calls = collections.Counter()
    partial = ps.TruncatedSeries.partial

    def spy(self, name):
        if id(self) in firsts:
            calls[firsts[id(self)], name] += 1
        return partial(self, name)

    monkeypatch.setattr(ps.TruncatedSeries, "partial", spy)
    assert ps.cross_check(model).ok
    assert calls == collections.Counter(
        {(a, z_names[b - 1]): 1 for a in range(1, n + 1) for b in range(a, n + 1)})


def test_transfer_of_a_vanishing_delta_is_zero_at_the_sum_order():
    # delta vanishes identically, and so does every unit minor of l = 1,
    # so X_1 is the zero field; every entry is the zero series of the
    # entry order min(delta.order - 1, t.order - 2): t has order 3, so
    # that is 1, below the unit minors' order 3
    theta = ps.parse_series("-wb + z1*z1b", CTX, 5)
    family = ps.jacobian_minor_family(theta, ["z1", "z2"], ["z1b", "z2b", "wb"])
    assert family.delta.is_zero()
    assert all(family.unit(mu, 1).is_zero() for mu in (1, 2, 3))
    t = theta.partial("z1").partial("z1") + ps.parse_series("z1b^2 + z2b*z1", CTX, 5)
    assert t.order == 3
    table = family.transfer(t)
    assert table.keys() == {(1, 1), (1, 2), (2, 2)}
    for key, series in table.items():
        assert series.is_zero() and series.order == 1, key


@pytest.mark.parametrize("order", range(4))
def test_transfer_of_a_zero_t_forms_no_partial(order, monkeypatch):
    # a zero t transfers to the zero table at min(delta.order, t.order - 2)
    # without one parameter partial; below order 2 it raises what the
    # formula raises: ``partial`` refuses order 0, and order 1 gives the
    # entries a negative order
    model = rigid_perturbation_model(random.Random(4), 4, 6)
    family = ps.minors(model)
    assert family.delta.order == 4
    t = ps.TruncatedSeries.zero(model.context, order)
    formed = []
    partial = ps.TruncatedSeries.partial

    def spy(self, name):
        formed.append(name)
        return partial(self, name)

    monkeypatch.setattr(ps.TruncatedSeries, "partial", spy)
    if order < 2:
        message = "guaranteed order 0" if order == 0 else "got -1"
        with pytest.raises(InsufficientOrderError, match=message):
            family.transfer(t)
        return
    table = family.transfer(t)
    assert formed == []
    monkeypatch.undo()
    assert len(table) == 10
    for key, series in table.items():
        assert series.is_zero() and series.order == order - 2, key
    assert_same_series_tables(table, reference_transfer(family, t))


def test_transfer_of_a_column_without_unit_minors_is_zero_at_the_sum_order():
    # only D^1_[1] is nonzero, so l = 1 has a live unit minor and l = 2
    # none: X_2 t is an empty sum, and (1, 2) and (2, 2) are the zero
    # series of the entry order, 2 below the unit minors' 4; (1, 1) has
    # its terms, which cancel to zero of order 2
    theta = ps.parse_series("-wb + z2*z2b", CTX, 6)
    family = ps.jacobian_minor_family(theta, ["z1", "z2"], ["z1b", "z2b", "wb"])
    assert [mu for mu in (1, 2, 3) if not family.unit(mu, 1).is_zero()] == [1]
    assert all(family.unit(mu, 2).is_zero() for mu in (1, 2, 3))
    t = theta.partial("z1").partial("z2") + ps.parse_series("z1b^2 + z2b*z1 + wb*z2b", CTX, 4)
    assert t.order == 4
    table = family.transfer(t)
    assert table.keys() == {(1, 1), (1, 2), (2, 2)}
    for key, series in table.items():
        assert series.is_zero() and series.order == 2, key


def test_minors_require_nondegeneracy():
    theta = ps.parse_series("-wb + z1*z1b", CTX, 5)
    bad = ps.HypersurfaceModel(n=2, theta=theta)
    with pytest.raises(LeviDegenerateError):
        ps.minors(bad)


# ----------------------------------------------------------------------
# direct tensor


def test_heisenberg_tensor_vanishes_all_signatures():
    for signs in itertools.product((1, -1), repeat=2):
        model = heisenberg_model(2, 8, signs)
        tensor = ps.main_theorem_tensor(model)
        assert tensor.certified_order == 4
        assert tensor.is_zero(), signs


def test_sheared_model_tensor_vanishes():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2 + z1b^2", CTX, 8)
    tensor = ps.main_theorem_tensor(ps.make_model(2, theta, 8))
    assert tensor.is_zero()


def test_quartic_model_has_frozen_witness():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX, 6)
    model = ps.make_model(2, theta, 6)
    tensor = ps.main_theorem_tensor(model)
    witness = tensor.first_nonzero_witness()
    assert witness.component == (1, 1, 1, 1)
    assert witness.monomial == "1"
    # hand value: with delta(0) = -1, only the unit minors (1,1) and (2,2)
    # survive at 0, the bracket is -theta_{z1 z1 z1b z1b}(0) = -4, and the
    # trace adjustment gives -4 + 4 - 2/3
    assert witness.coefficient == gaussian(Fraction(-2, 3))
    # confirmed through the independent transported route
    report = ps.cross_check(model)
    assert report.ok
    assert not report.direct.is_zero()
    assert any(not s.is_zero() for s in report.transported.values())


def test_tensor_symmetries(rng):
    model = rigid_perturbation_model(rng, 2, 6)
    tensor = ps.main_theorem_tensor(model)
    for k1, k2, l1, l2 in itertools.product((1, 2), repeat=4):
        base = tensor.component(k1, k2, l1, l2)
        assert base == tensor.component(k2, k1, l1, l2)
        assert base == tensor.component(k1, k2, l2, l1)


def test_tensor_trace_free_on_models(rng):
    for _ in range(3):
        model = rigid_perturbation_model(rng, 2, 6)
        tensor = ps.main_theorem_tensor(model)
        for k2 in (1, 2):
            for l2 in (1, 2):
                assert tensor.contract(k2, l2).is_zero()


def test_insufficient_order_rejected():
    model = heisenberg_model(2, 3)
    with pytest.raises(InsufficientOrderError):
        ps.main_theorem_tensor(model)


# ----------------------------------------------------------------------
# two-route agreement


def test_cross_check_heisenberg_both_routes_zero():
    report = ps.cross_check(heisenberg_model(2, 6))
    assert report.ok
    assert report.direct.is_zero()
    assert all(series.is_zero() for series in report.transported.values())


def test_cross_check_random_perturbations(rng):
    for _ in range(3):
        model = rigid_perturbation_model(rng, 2, 6)
        report = ps.cross_check(model)
        assert report.ok, report.mismatches[:2]


@pytest.mark.parametrize("n", [2, 3])
def test_both_routes_vanish_on_all_sign_patterns(n):
    for signs in itertools.product((1, -1), repeat=n):
        report = ps.cross_check(heisenberg_model(n, 5, signs))
        assert report.ok, (n, signs)
        assert report.direct.is_zero()
        assert all(series.is_zero() for series in report.transported.values())


COEFFICIENTS = st.builds(
    gaussian, st.fractions(-2, 2, max_denominator=3), st.fractions(-2, 2, max_denominator=3)
)


@st.composite
def quartic_models(draw, n, positive):
    """(signs, model) for theta = -wb + sum_k eps_k z_k zb_k at order 5, with
    ``positive`` signs +1 in a drawn order, plus a Hermitian (2, 2) quartic
    and maybe rigid (3, 2) + (2, 3) pairs."""
    signs = tuple(draw(st.permutations((1,) * positive + (-1,) * (n - positive))))
    quartic, quintic = (
        [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]
        for degree in (2, 3)
    )
    pairs = draw(st.lists(st.tuples(st.sampled_from(quartic), st.sampled_from(quartic),
                                    COEFFICIENTS), min_size=1, max_size=3))
    pairs += draw(st.lists(st.tuples(st.sampled_from(quintic), st.sampled_from(quartic),
                                     COEFFICIENTS), max_size=2))
    terms = dict(heisenberg_theta(n, 5, signs).terms)
    for a, b, c in pairs:
        # c z^a zb^b + conj(c) z^b zb^a is real; for a == b it is 2 Re(c)
        for key, value in ((a + b + (0,), c), (b + a + (0,), c.conjugate())):
            terms[key] = terms.get(key, gaussian(0)) + value
    theta = ps.TruncatedSeries(ps.canonical_context(n), 5, {e: v for e, v in terms.items() if v})
    return signs, ps.make_model(n, theta, 5)


SIGNATURES = [(n, positive) for n in (2, 3, 4) for positive in range(n, -1, -1)]


@pytest.mark.parametrize("n, positive", SIGNATURES,
                         ids=[f"{p},{n - p}" for n, p in SIGNATURES])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_tensor_at_the_origin_is_the_chern_moser_closed_form(n, positive, data):
    # the third oracle: both routes' constant terms against the closed form,
    # which shares neither the series code nor the trace adjustment
    signs, model = data.draw(quartic_models(n, positive))
    want = chern_moser_origin(model.theta, signs)
    direct = ps.main_theorem_tensor(model)
    transported = ps.cross_check(model).transported
    assert want.keys() == direct.components.keys()
    for key, value in want.items():
        assert direct.components[key].constant_term() == value, key
        assert transported[key].constant_term() == value, key


def test_cross_check_reports_a_perturbed_transported_route():
    # the oracle's failure path: a wrong derived system, planted in the
    # model's memo, must make the two routes disagree; the first mismatch
    # names the raw entry, the monomial and both raw coefficients, and no
    # transported tensor is formed
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX, 7)
    model = ps.make_model(2, theta, 7)
    system = ps.derive_associated_system(model)
    components = {key: system.component(*key) for key in system.component_keys()}
    components[(1, 1)] += ps.parse_series("yx1^2*yx2^2", ps.pde_context(2), system.order)
    model._memo[pde_module.derive_associated_system.__wrapped__] = PdeSystem(
        2, system.order, components
    )
    report = ps.cross_check(model)
    assert not report.ok
    assert report.certified_order == 3
    assert report.mismatches[0] == ((1, 1, 1, 1), "z2b^2", gaussian(0), gaussian(-2))
    assert report.transported == {}


# n = 2 graphs at order 8: the CI's order-10 target, a signature (1, 1)
# quadric with v*x1*y1 + x1^4, and a definite one with v*y2^2 + x1^3*y2
PLANTED_GRAPHS = [
    "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2",
    "x1^2 + y1^2 - x2^2 - y2^2 + v*x1*y1 + x1^4",
    "x1^2 + y1^2 + x2^2 + y2^2 + v*y2^2 + x1^3*y2",
]
PLANTED_DEFECTS = {
    "cofactors doubled": lambda family: dataclasses.replace(
        family, cofactor={key: c.scale(2) for key, c in family.cofactor.items()}),
    "delta doubled": lambda family: dataclasses.replace(family, delta=family.delta.scale(2)),
    "cofactors transposed": lambda family: dataclasses.replace(
        family, cofactor={(j, i): c for (i, j), c in family.cofactor.items()}),
}


@pytest.mark.parametrize("defect", list(PLANTED_DEFECTS))
@pytest.mark.parametrize("graph", PLANTED_GRAPHS)
def test_cross_check_fails_on_a_planted_minor_family(graph, defect):
    # a wrong Levi minor family, planted in the model's memo before either
    # route reads it, makes the raw tables differ; the first mismatch is a
    # raw entry of the direct table, with that entry's coefficient at its
    # monomial, and no transported tensor is formed
    model = ps.from_graph(ps.parse_series(graph, ps.graph_context(2), 8), 2, 8)
    model._memo[hypersurface_module.minors.__wrapped__] = PLANTED_DEFECTS[defect](
        ps.minors(model))
    report = ps.cross_check(model)
    assert not report.ok
    assert report.transported == {}
    key, monomial, direct, transported = report.mismatches[0]
    raw = flatness_module._direct_table(model)
    assert key in raw
    (exps,) = ps.parse_series(monomial, CTX, 8).terms
    assert raw[key].coefficient(exps) == direct != transported


def test_cross_check_order_is_bounded_by_a_shorter_derived_system():
    # a correct derived system one order short, planted in the model's
    # memo: the routes still agree, and the transported route's order, not
    # the direct tensor's, bounds the certified one
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX, 7)
    model = ps.make_model(2, theta, 7)
    system = ps.derive_associated_system(model)
    short = system.order - 1
    components = {key: system.component(*key).truncate(short)
                  for key in system.component_keys()}
    model._memo[pde_module.derive_associated_system.__wrapped__] = PdeSystem(
        2, short, components
    )
    report = ps.cross_check(model)
    assert report.ok
    assert report.direct.certified_order == 3
    assert report.certified_order == 2
    assert_transported_is_the_uncut_delta_cube(model, report)


def test_cross_check_compares_a_longer_derived_system_at_the_common_order():
    # the correct derived system of the same theta at order 11 (system
    # order 9), planted in an order-7 model's memo: its jets, of order 7,
    # outlast delta's order 5 and the direct entries' order 3, so the jets
    # are pulled back at the common order 3, and the routes agree there;
    # the cubic terms give the pulled-back entries terms of degree 4,
    # which a comparison past the common order would read
    text = "-wb + z1*z1b + z2*z2b + z1^2*z1b^2 + z1*z2b^2 + z2^2*z1b"
    longer = ps.derive_associated_system(ps.make_model(2, ps.parse_series(text, CTX, 11), 11))
    assert longer.order == 9
    model = ps.make_model(2, ps.parse_series(text, CTX, 7), 7)
    model._memo[pde_module.derive_associated_system.__wrapped__] = longer
    report = ps.cross_check(model)
    assert report.ok
    assert report.certified_order == 3
    assert {series.order for series in report.transported.values()} == {3}


def test_cross_check_order_is_bounded_when_the_raw_tables_differ_only_in_order():
    # the flat model with its derived system planted one order short: both
    # raw tables are zero, the direct one at order 3 and the transported
    # one at order 2, so they differ only in order, and the lower order
    # bounds the certified one and every transported component
    model = heisenberg_model(2, 7)
    system = ps.derive_associated_system(model)
    short = system.order - 1
    components = {key: system.component(*key).truncate(short)
                  for key in system.component_keys()}
    model._memo[pde_module.derive_associated_system.__wrapped__] = PdeSystem(
        2, short, components
    )
    assert all(entry.is_zero() and entry.order == 3
               for entry in flatness_module._direct_table(model).values())
    report = ps.cross_check(model)
    assert report.ok
    assert report.certified_order == 2
    assert all(series.is_zero() for series in report.transported.values())
    assert {series.order for series in report.transported.values()} == {2}


def test_cross_check_adjusts_no_table_when_the_raw_tables_agree(monkeypatch):
    # the direct tensor is memoized, and agreeing raw tables make the
    # transported components the direct ones without a second adjustment;
    # raw tables that differ, through a wrong derived system planted in a
    # second model's memo, are compared raw and adjusted nowhere either
    model = rigid_perturbation_model(random.Random(7), 4, 6)
    planted = rigid_perturbation_model(random.Random(7), 4, 6)
    system = ps.derive_associated_system(planted)
    components = {key: system.component(*key) for key in system.component_keys()}
    components[(1, 2)] += ps.parse_series("yx1^2*yx3^2", ps.pde_context(4), system.order)
    planted._memo[pde_module.derive_associated_system.__wrapped__] = PdeSystem(
        4, system.order, components
    )
    ps.main_theorem_tensor(model)
    ps.main_theorem_tensor(planted)
    calls = []
    assemble = flatness_module._assemble_trace_adjusted

    def counted(n, raw):
        calls.append(n)
        return assemble(n, raw)

    monkeypatch.setattr(flatness_module, "_assemble_trace_adjusted", counted)
    report = ps.cross_check(model)
    assert report.ok
    assert not report.direct.is_zero()
    assert calls == []
    assert_same_series_tables(report.transported, report.direct.components)
    wrong = ps.cross_check(planted)
    assert not wrong.ok
    assert wrong.mismatches[0][0] == (1, 2, 1, 1)
    assert wrong.transported == {}
    assert calls == []


def test_pull_back_gives_each_zero_jet_the_order_of_its_composition():
    # one order, 2, at most every jet's, assigned value's and delta's: each
    # entry, zero or not, is the uncut delta cube times its jet composed,
    # cut to 2, and every zero jet, of order 5 or 2, shares one zero series
    jet_ctx = ps.pde_context(2)
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX, 6)
    delta = ps.parse_series("1 + z1*z1b + wb^2", CTX, 6)
    assignment = {"y": theta.truncate(4), "x1": ps.TruncatedSeries.variable(CTX, 6, "z1"),
                  "x2": ps.TruncatedSeries.variable(CTX, 6, "z2"),
                  "yx1": theta.partial("z1").truncate(3), "yx2": theta.partial("z2")}
    jets = {
        "zero above": ps.TruncatedSeries.zero(jet_ctx, 5),
        "nonzero": ps.parse_series("yx1^2 + x1*y", jet_ctx, 2),
        "zero at": ps.TruncatedSeries.zero(jet_ctx, 2),
        "nonzero above": ps.parse_series("yx2*x2 - y^2", jet_ctx, 6),
    }
    table = flatness_module._pulled_back(jets, assignment, delta, 2)
    assert list(table) == list(jets)
    for key, jet in jets.items():
        want = (delta**3 * jet.substitute(assignment, CTX)).truncate(2)
        assert table[key] == want, key
        assert table[key].order == 2, key
    assert table["zero above"] is table["zero at"]
    assert not table["nonzero above"].is_zero()


def test_cross_check_pulls_back_only_the_nonzero_jets(monkeypatch):
    # the CI's rigid n = 4 model: most jets are 0, and each transported
    # entry, zero or not, is delta^3 times its jet composed, in terms and
    # order, though only the nonzero jets are composed and multiplied
    theta = ps.parse_series(RIGID_N4, ps.canonical_context(4), 6)
    model = ps.make_model(4, theta, 6)
    jets = flatness_module._jet_table(ps.derive_associated_system(model))
    composed, tables = [], []
    compose, pulled_back = flatness_module._compose, flatness_module._pulled_back

    def spy_compose(series_list, *args):
        composed.extend(series_list)
        return compose(series_list, *args)

    def spy_pulled_back(*args):
        tables.append(pulled_back(*args))
        return tables[-1]

    monkeypatch.setattr(flatness_module, "_compose", spy_compose)
    monkeypatch.setattr(flatness_module, "_pulled_back", spy_pulled_back)
    assert ps.cross_check(model).ok
    monkeypatch.undo()
    zero = [key for key, jet in jets.items() if jet.is_zero()]
    assert 0 < len(zero) < len(jets)
    assert len(composed) == len(jets) - len(zero)
    (table,) = tables
    assignment = {"y": theta}
    for k in range(1, 5):
        assignment[f"x{k}"] = ps.TruncatedSeries.variable(theta.context, 6, f"z{k}")
        assignment[f"yx{k}"] = theta.partial(f"z{k}")
    delta_cubed = ps.minors(model).delta ** 3
    for key, jet in jets.items():
        want = delta_cubed * jet.substitute(assignment, theta.context)
        assert table[key] == want, key
        assert table[key].order == want.order, key


def test_no_zero_operand_reaches_a_kernel_on_a_rigid_n4_model(monkeypatch):
    # every check of the CI's rigid n = 4 model: the Laplace memo, Newton's
    # table and update, the elimination's last composition, the transfer
    # and the pull-back leave their zero series out, so no zero series is
    # composed, and every call of the product loop has a product of two
    # nonzero operands
    zeros, dead = [], []
    compose, products = series_module._compose, series_module._products

    def spy_compose(series_list, *args):
        series_list = list(series_list)
        zeros.extend(s for s in series_list if s.is_zero())
        return compose(series_list, *args)

    def spy_products(terms, limit):
        terms = list(terms)
        if not any(left and right for _, _, left, _, right in terms):
            dead.append(terms)
        return products(terms, limit)

    for module in (series_module, matrices_module, implicit_module, pde_module, flatness_module):
        if hasattr(module, "_compose"):
            monkeypatch.setattr(module, "_compose", spy_compose)
        if hasattr(module, "_products"):
            monkeypatch.setattr(module, "_products", spy_products)
    report = cli.run(cli.JobSpec(n=4, order=6, kind="theta", theta_text=RIGID_N4,
                                 checks=cli.ALL_CHECKS, witness=True))
    assert (report["integrability"], report["cross_check"], report["pseudospherical"]) == (
        "pass", "pass", "NonVanishing(component=(1, 1, 1, 1), monomial=1, coefficient=-8/15)")
    assert zeros == []
    assert dead == []


def test_no_context_is_compared_by_name_with_itself_on_a_rigid_n4_model(monkeypatch):
    # every check of the CI's rigid n = 4 model: the context comparisons of
    # the series, the system, the matrices and the composition test
    # identity first, so no call of VariableContext.__eq__ compares the
    # name tuples of one context object with themselves
    same = []
    equal = series_module.VariableContext.__eq__

    def spy(self, other):
        same.append(other is self)
        return equal(self, other)

    monkeypatch.setattr(series_module.VariableContext, "__eq__", spy)
    report = cli.run(cli.JobSpec(n=4, order=6, kind="theta", theta_text=RIGID_N4,
                                 checks=cli.ALL_CHECKS, witness=True))
    assert (report["integrability"], report["cross_check"]) == ("pass", "pass")
    assert not any(same)


def assert_direct_table_is_the_pulled_back_jet_table(model):
    """Entry by entry, the direct table is delta^3 times the derived
    system's second y_x-derivative pulled back by (x, y, y_x) = (z, theta,
    theta_z), in terms and order: the identity that lets cross_check
    compare the two routes before the trace adjustment.  Returns the
    number of nonzero entries."""
    theta, ctx, n = model.theta, model.context, model.n
    system = ps.derive_associated_system(model)
    assignment = {"y": theta}
    for k in range(1, n + 1):
        assignment[f"x{k}"] = ps.TruncatedSeries.variable(ctx, theta.order, f"z{k}")
        assignment[f"yx{k}"] = theta.partial(f"z{k}")
    delta_cubed = ps.minors(model).delta ** 3
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    table = flatness_module._direct_table(model)
    assert sorted(table) == sorted(p + q for p in pairs for q in pairs)
    for (a, b, l1, l2), entry in table.items():
        jet = system.component(a, b).partial(f"yx{l1}").partial(f"yx{l2}")
        want = delta_cubed * jet.substitute(assignment, ctx)
        assert entry == want, (a, b, l1, l2)
        assert entry.order == want.order, (a, b, l1, l2)
    return sum(not entry.is_zero() for entry in table.values())


@pytest.mark.parametrize("n, order", [(2, 7), (3, 6), (4, 6)])
def test_direct_table_is_the_pulled_back_jet_table_on_rigid_models(n, order, rng):
    nonzero = [assert_direct_table_is_the_pulled_back_jet_table(
                   rigid_perturbation_model(rng, n, order))
               for _ in range(2)]
    assert any(nonzero)


def test_direct_table_is_the_pulled_back_jet_table_on_the_target_graph():
    phi = ps.parse_series("x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2",
                          ps.graph_context(2), 8)
    assert assert_direct_table_is_the_pulled_back_jet_table(ps.from_graph(phi, 2, 8))


def assert_transported_is_the_uncut_delta_cube(model, report):
    """Each transported component is delta^3 times its pulled-back jet-tensor
    component, delta cubed at its full order: cutting delta to the pulled
    order first changes no term and no order."""
    theta = model.theta
    tensor = ps.hachtroudi_tensor(ps.derive_associated_system(model))
    assignment = {"y": theta}
    for k in range(1, model.n + 1):
        assignment[f"x{k}"] = ps.TruncatedSeries.variable(CTX, theta.order, f"z{k}")
        assignment[f"yx{k}"] = theta.partial(f"z{k}")
    delta = ps.minors(model).delta
    assert report.transported.keys() == tensor.components.keys()
    for key, series in tensor.components.items():
        want = delta**3 * series.substitute(assignment, CTX)
        assert report.transported[key] == want, key
        assert report.transported[key].order == want.order


def test_transported_route_is_the_uncut_delta_cube_on_a_graph():
    phi = ps.parse_series("x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2",
                          ps.graph_context(2), 8)
    model = ps.from_graph(phi, 2, 8)
    report = ps.cross_check(model)
    assert not all(series.is_zero() for series in report.transported.values())
    assert_transported_is_the_uncut_delta_cube(model, report)


@pytest.mark.parametrize("kind", ["rigid", "graph"])
def test_transported_route_order_is_sound(kind):
    # the transported tensors of one model at orders d and d + 2 agree
    # through the lower run's certified order
    def model(order):
        if kind == "rigid":
            text = "-wb + z1*z1b + z2*z2b + z1^2*z1b^2 + z1*z2b^2 + z2^2*z1b"
            return ps.make_model(2, ps.parse_series(text, CTX, order), order)
        phi = ps.parse_series(
            "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2", ps.graph_context(2), order
        )
        return ps.from_graph(phi, 2, order)

    low, high = ps.cross_check(model(6)), ps.cross_check(model(8))
    assert low.ok and high.ok
    assert (low.certified_order, high.certified_order) == (2, 4)
    assert low.transported.keys() == high.transported.keys()
    for key, series in low.transported.items():
        assert series.agrees_with(high.transported[key], low.certified_order), key
    assert any(not series.is_zero(low.certified_order)
               for series in low.transported.values())


def test_cross_check_n3_nonzero_tensor():
    model = rigid_perturbation_model(random.Random(99), 3, 6)
    report = ps.cross_check(model)
    assert report.ok, report.mismatches[:2]
    assert not report.direct.is_zero()


def test_n4_pipeline_uses_cofactor_minors():
    # side-5 Levi matrices: every minor comes from one cofactor table
    flat = heisenberg_model(4, 6, (1, 1, -1, 1))
    assert ps.main_theorem_tensor(flat).is_zero()
    assert ps.levi(flat).signature == (3, 1)
    curved = rigid_perturbation_model(random.Random(7), 4, 6)
    report = ps.cross_check(curved)
    assert report.ok
    assert not report.direct.is_zero()


def test_cross_check_nonrigid_model():
    # a graphed equation with v-dependence: theta depends on wb beyond its
    # linear term, and the tensor carries coefficients in every degree
    gctx = ps.graph_context(2)
    phi = ps.parse_series(
        "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2", gctx, 7
    )
    model = ps.from_graph(phi, 2, 7)
    report = ps.cross_check(model)
    assert report.ok, report.mismatches[:2]
    assert not report.direct.is_zero()
    component = report.direct.component(1, 1, 1, 1)
    degrees = {sum(e) for e in component.terms}
    assert degrees == {0, 1, 2, 3}
    wb_index = model.context.index("wb")
    assert any(e[wb_index] for e in component.terms)


def test_squared_holomorphic_image_detected_as_flat():
    # -wb + |z1|^2 + |z2 + z1^2|^2 is the model transported through
    # z2 -> z2 + z1^2, so its tensor must vanish identically
    theta = ps.parse_series(
        "-wb + z1*z1b + z2*z2b + z1^2*z1b^2 + z1^2*z2b + z2*z1b^2", CTX, 8
    )
    tensor = ps.main_theorem_tensor(ps.make_model(2, theta, 8))
    assert tensor.is_zero()


# ----------------------------------------------------------------------
# verdicts


def test_heisenberg_verdict():
    verdict = ps.is_pseudospherical(heisenberg_model(2, 8))
    assert verdict.vanishes
    assert verdict.certified_order == 4
    assert str(verdict) == "VanishesToOrder(4)"


def test_signature_does_not_affect_flatness():
    verdict = ps.is_pseudospherical(heisenberg_model(2, 8, (1, -1)))
    assert verdict.vanishes


def test_nonvanishing_verdict_has_witness():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX, 6)
    verdict = ps.is_pseudospherical(ps.make_model(2, theta, 6))
    assert not verdict.vanishes
    assert verdict.witness.component == (1, 1, 1, 1)
    assert "NonVanishing" in str(verdict)


def test_verdict_at_reduced_order():
    verdict = ps.is_pseudospherical(heisenberg_model(2, 6))
    assert verdict.vanishes
    assert verdict.certified_order == 2


def test_model_order_is_read_off_theta():
    # a model has no order beside theta's, so nothing certifies beyond it
    model = ps.HypersurfaceModel(n=2, theta=heisenberg_model(2, 6).theta)
    tensor = ps.main_theorem_tensor(model)
    assert model.order == 6
    assert tensor.certified_order == 2
    assert min(c.order for c in tensor.components.values()) == 2
    with pytest.raises(TypeError):
        ps.HypersurfaceModel(n=2, order=8, theta=model.theta)


def test_verdict_invariant_under_shear():
    # the shear image of the model is constructed pseudospherical
    base = ps.is_pseudospherical(heisenberg_model(2, 7))
    mctx = ps.map_context(2)
    image = ps.apply_biholomorphism(
        heisenberg_model(2, 7),
        [ps.parse_series("z1", mctx, 7), ps.parse_series("z2", mctx, 7)],
        ps.parse_series("w + z1^2", mctx, 7),
    )
    transported = ps.is_pseudospherical(image)
    assert base.vanishes and transported.vanishes
    assert base.certified_order == transported.certified_order
