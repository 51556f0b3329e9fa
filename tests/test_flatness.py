"""Flatness tensors: direct formula, minors, verdicts, two-route checks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import PdeSystem
from pseudosphere.errors import InsufficientOrderError, LeviDegenerateError
from pseudosphere.scalars import gaussian

from conftest import (
    heisenberg_model,
    random_series,
    rigid_perturbation_model,
)

CTX = ps.canonical_context(2)
PCTX = ps.pde_context(2)


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
    from pseudosphere.hypersurface import levi_matrix

    family = ps.minors(model)
    matrix = levi_matrix(model)
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
    derivative column."""
    params = family.parameters
    size = len(params)
    rows = family.matrix.entries
    first = [t.partial(a) for a in params]

    def brace(mu, nu):
        col = [row[mu - 1].partial(params[nu - 1]) for row in rows]
        value = family.delta * first[mu - 1].partial(params[nu - 1])
        for tau in range(1, size + 1):
            if not first[tau - 1].is_zero():
                second = family.matrix.with_column(tau - 1, col).determinant()
                value = value - second * first[tau - 1]
        return value

    table = {}
    for l1 in range(1, size):
        for l2 in range(l1, size):
            acc = None
            for mu in range(1, size + 1):
                for nu in range(1, size + 1):
                    unit_mu, unit_nu = family.unit(mu, l1), family.unit(nu, l2)
                    if unit_mu.is_zero() or unit_nu.is_zero():
                        continue
                    term = unit_mu * unit_nu * brace(mu, nu)
                    acc = term if acc is None else acc + term
            table[(l1, l2)] = acc
    return table


def assert_same_series_tables(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
        assert got[key].order == want[key].order, key


def random_graph_model(rng, n, order):
    """from_graph of sum_k +-(x_k^2 + y_k^2) plus real terms of degree 3-4,
    v-dependent ones included."""
    gctx = ps.graph_context(n)
    monos = [
        e for e in itertools.product(range(5), repeat=gctx.arity) if 3 <= sum(e) <= 4
    ]
    terms = {}
    for k in range(n):
        sign = rng.choice([1, -1])
        for var in (k, n + k):
            exps = [0] * gctx.arity
            exps[var] = 2
            terms[tuple(exps)] = gaussian(sign)
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(monos)] = gaussian(rng.choice([1, -1, Fraction(1, 2)]))
    return ps.from_graph(ps.TruncatedSeries(gctx, order, terms), n, order)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.sampled_from(["rigid", "graph"]),
    st.sampled_from(["theta_zz", "random", "parameter_free"]),
    st.integers(-1, 2),
    st.randoms(use_true_random=False),
)
def test_transfer_matches_replaced_column_minors(n, kind, t_kind, t_shift, rng):
    order = 6 if n == 2 else 5
    if kind == "rigid":
        model = rigid_perturbation_model(rng, n, order)
    else:
        model = random_graph_model(rng, n, order)
    family = ps.minors(model)
    if t_kind == "theta_zz":
        a, b = sorted(rng.choice(range(1, n + 1)) for _ in range(2))
        t = model.theta.partial(f"z{a}").partial(f"z{b}")
    else:
        t = random_series(rng, model.context, order + t_shift, degree=4)
        if t_kind == "parameter_free":
            t = ps.TruncatedSeries(
                model.context, t.order, {e: c for e, c in t.terms.items() if not any(e[n:])}
            )
    assert_same_series_tables(family.transfer(t), reference_transfer(family, t))


def test_transfer_order_counts_zero_column_entries():
    # theta_{z_k z1b z1b} vanishes identically while theta_{z1b z1b} does
    # not: the zero entries have the lower guaranteed order, and it bounds
    # the transfer's order as it does the replaced matrix's determinant
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^3 + z1b^3", CTX, 6)
    model = ps.make_model(2, theta, 6)
    family = ps.minors(model)
    col = family.hessian[(1, 1)]
    assert not col[0].is_zero() and col[1].is_zero() and col[2].is_zero()
    assert col[1].order < col[0].order
    for t in (
        theta.partial("z1").partial("z1"),
        ps.parse_series("z1b^2 + z1*wb", CTX, 8),
    ):
        table = family.transfer(t)
        assert_same_series_tables(table, reference_transfer(family, t))
    assert table[(1, 1)].order == model.order - 3


def test_minors_require_nondegeneracy():
    theta = ps.parse_series("-wb + z1*z1b", CTX, 5)
    bad = ps.HypersurfaceModel(n=2, order=5, theta=theta)
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
    model = heisenberg_model(2, 8)
    verdict = ps.is_pseudospherical(model, order=6)
    assert verdict.vanishes
    assert verdict.certified_order == 2


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
