"""Defining functions: validation, reality, Levi data, transport."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries
from pseudosphere.errors import (
    LeviDegenerateError,
    NonInvertibleMapError,
    NormalizationError,
    RealityError,
    UnsupportedDimensionError,
)
from pseudosphere.hypersurface import hermitian_signature, levi_matrix
from pseudosphere.scalars import GaussianRational, gaussian
from pseudosphere.series import graded_lex

from conftest import COEFF_POOL, heisenberg_model, rigid_perturbation_model

CTX = ps.canonical_context(2)


def model_from(text, order=6, n=2):
    return ps.make_model(n, ps.parse_series(text, ps.canonical_context(n), order), order)


# ----------------------------------------------------------------------
# construction


def test_heisenberg_model_valid():
    m = model_from("-wb + z1*z1b + z2*z2b")
    assert m.n == 2 and m.order == 6


def test_mixed_signature_model_valid():
    m = model_from("-wb + z1*z1b - z2*z2b")
    assert ps.levi(m).signature == (1, 1)


def test_reality_violation_rejected():
    with pytest.raises(RealityError) as excinfo:
        model_from("-wb + z1*z2b")
    assert excinfo.value.monomial == "z2*z1b"


def test_normalization_violations_rejected():
    with pytest.raises(NormalizationError):
        model_from("wb + z1*z1b")  # wrong sign on wb
    with pytest.raises(NormalizationError):
        model_from("-wb + z1 + z1*z1b")  # stray linear term
    with pytest.raises(NormalizationError):
        model_from("1 - wb + z1*z1b")  # constant term


def test_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        ps.make_model(1, ps.parse_series("-wb + z1*z1b", ps.canonical_context(1), 4), 4)


# ----------------------------------------------------------------------
# conjugation and reality


def test_conjugate_heisenberg():
    m = heisenberg_model(2, 6)
    conj = ps.conjugate_theta(m)
    assert conj.context.names == ("z1", "z2", "z1b", "z2b", "w")
    expected = ps.parse_series("-w + z1b*z1 + z2b*z2", conj.context, 6)
    assert conj == expected


def test_conjugate_with_imaginary_coefficient():
    m = model_from("-wb + z1*z1b + z2*z2b + i*z1^2*z1b - i*z1*z1b^2")
    conj = ps.conjugate_theta(m)
    # coefficient of zb^2 z picks up the conjugated coefficient
    assert conj.coefficient_of(z1b=2, z1=1) == gaussian(0, -1)


def test_conjugate_is_involution():
    m = rigid_perturbation_model(random.Random(5), 2, 6)
    conj = ps.conjugate_theta(m)
    # apply the same flip again by wrapping in a fresh model-like structure
    n = m.n
    twice_terms = {}
    for exps, coeff in conj.terms.items():
        z_part, zb_part = exps[:n], exps[n : 2 * n]
        twice_terms[zb_part + z_part + (exps[2 * n],)] = coeff.conjugate()
    twice = TruncatedSeries(m.context, conj.order, twice_terms)
    assert twice == m.theta


def test_check_reality_passes_on_valid_models():
    assert ps.check_reality(heisenberg_model(2, 6)).ok
    quartic = model_from("-wb + z1*z1b + z2*z2b + z1^2*z1b^2")
    assert ps.check_reality(quartic).ok


def test_check_reality_reports_first_failure():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2", CTX, 6)
    bad = ps.HypersurfaceModel(n=2, order=6, theta=theta)
    report = ps.check_reality(bad)
    assert not report.ok
    assert report.identity in (1, 2)
    assert report.monomial is not None


def reference_check_reality(model):
    """Test-only reference for ``check_reality``: both identities by their
    own substitution."""
    theta = model.theta
    cbar = ps.conjugate_theta(model)
    ctx, cctx = theta.context, cbar.context
    lhs1 = cbar.substitute({"w": theta}, target_context=ctx)
    diff1 = lhs1 - TruncatedSeries.variable(ctx, lhs1.order, "wb")
    lhs2 = theta.substitute({"wb": cbar}, target_context=cctx)
    diff2 = lhs2 - TruncatedSeries.variable(cctx, lhs2.order, "w")
    bad1, bad2 = diff1.first_term(), diff2.first_term()
    if bad1 is None and bad2 is None:
        return ps.RealityReport(ok=True)
    if bad2 is None or (bad1 is not None and graded_lex(bad1[0]) <= graded_lex(bad2[0])):
        exps, coeff = bad1
        return ps.RealityReport(False, 1, diff1.monomial_text(exps), coeff)
    exps, coeff = bad2
    return ps.RealityReport(False, 2, diff2.monomial_text(exps), coeff)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(3, 5), st.booleans(),
       st.randoms(use_true_random=False))
def test_check_reality_matches_two_substitutions(n, order, paired, rng):
    # random normalized thetas; with ``paired`` each term comes with its
    # conjugate partner, which makes a rigid theta pass
    ctx = ps.canonical_context(n)
    monos = [e for e in itertools.product(range(3), repeat=ctx.arity) if 2 <= sum(e) <= 3]
    terms = {(0,) * (2 * n) + (1,): gaussian(-1)}  # -wb
    for _ in range(rng.randint(1, 4)):
        exps = rng.choice(monos)
        coeff = rng.choice(COEFF_POOL)
        terms[exps] = terms.get(exps, gaussian(0)) + coeff
        if paired:
            mirror = exps[n : 2 * n] + exps[:n] + exps[2 * n :]
            terms[mirror] = terms.get(mirror, gaussian(0)) + coeff.conjugate()
    theta = TruncatedSeries(ctx, order, {e: c for e, c in terms.items() if c})
    model = ps.HypersurfaceModel(n=n, order=order, theta=theta)
    assert ps.check_reality(model) == reference_check_reality(model)


# ----------------------------------------------------------------------
# graphed equations


def test_from_graph_squared_modulus():
    gctx = ps.graph_context(2)
    phi = ps.parse_series("x1^2 + y1^2 + x2^2 + y2^2", gctx, 6)
    m = ps.from_graph(phi, 2, 6)
    expected = ps.parse_series("-wb + 2*z1*z1b + 2*z2*z2b", CTX, 6)
    assert m.theta == expected


def test_from_graph_flat():
    gctx = ps.graph_context(2)
    m = ps.from_graph(TruncatedSeries.zero(gctx, 5), 2, 5)
    assert m.theta == ps.parse_series("-wb", CTX, 5)


def test_from_graph_v_dependence_passes_reality():
    gctx = ps.graph_context(2)
    phi = ps.parse_series("x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2", gctx, 6)
    m = ps.from_graph(phi, 2, 6)
    assert ps.check_reality(m).ok
    assert any(exps[CTX.index("wb")] and sum(exps) > 1 for exps in m.theta.terms)


def test_from_graph_rejects_bad_phi():
    gctx = ps.graph_context(2)
    with pytest.raises(ValueError):
        ps.from_graph(ps.parse_series("x1", gctx, 4), 2, 4)  # linear part
    with pytest.raises(ValueError):
        ps.from_graph(ps.parse_series("i*x1^2", gctx, 4), 2, 4)  # not real


# ----------------------------------------------------------------------
# Levi data


def test_levi_heisenberg():
    data = ps.levi(heisenberg_model(2, 6))
    assert data.delta_at_origin == gaussian(-1)
    assert data.delta == ps.parse_series("-1", CTX, 4)
    assert data.signature == (2, 0)


def test_levi_degenerate_raises():
    theta = ps.parse_series("-wb + z1*z1b", CTX, 5)
    m = ps.HypersurfaceModel(n=2, order=5, theta=theta)  # bypass validation
    assert ps.check_reality(m).ok
    with pytest.raises(LeviDegenerateError):
        ps.levi(m)


def test_levi_matrix_row_convention():
    m = heisenberg_model(2, 6)
    matrix = levi_matrix(m)
    # first row: dtheta/d(z1b, z2b, wb) = (z1, z2, -1)
    assert matrix.entries[0][0] == ps.parse_series("z1", CTX, 5)
    assert matrix.entries[0][2] == ps.parse_series("-1", CTX, 5)
    # then rows of mixed second derivatives
    assert matrix.entries[1][0] == ps.parse_series("1", CTX, 4)
    assert matrix.entries[2][1] == ps.parse_series("1", CTX, 4)


def test_hermitian_signature_cases():
    one = gaussian(1)
    zero = gaussian(0)
    i = gaussian(0, 1)
    assert hermitian_signature([[one, zero], [zero, one]]) == (2, 0)
    assert hermitian_signature([[one, zero], [zero, -one]]) == (1, 1)
    assert hermitian_signature([[zero, one], [one, zero]]) == (1, 1)
    assert hermitian_signature([[zero, i], [-i, zero]]) == (1, 1)
    with pytest.raises(LeviDegenerateError):
        hermitian_signature([[one, zero], [zero, zero]])
    with pytest.raises(ValueError):
        hermitian_signature([[one, i], [i, one]])  # not Hermitian


# ----------------------------------------------------------------------
# biholomorphic transport


def _map_series(texts, n, order):
    mctx = ps.map_context(n)
    return [ps.parse_series(t, mctx, order) for t in texts]


def test_identity_map():
    m = heisenberg_model(2, 7)
    z1, z2, w = _map_series(["z1", "z2", "w"], 2, 7)
    image = ps.apply_biholomorphism(m, [z1, z2], w)
    assert image.theta == m.theta


def test_shear_map():
    m = heisenberg_model(2, 7)
    z1, z2, w = _map_series(["z1", "z2", "w + z1^2"], 2, 7)
    image = ps.apply_biholomorphism(m, [z1, z2], w)
    expected = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2 + z1b^2", CTX, 7)
    assert image.theta == expected


def test_linear_rescaling():
    m = heisenberg_model(2, 7)
    z1, z2, w = _map_series(["2*z1", "2*z2", "4*w"], 2, 7)
    image = ps.apply_biholomorphism(m, [z1, z2], w)
    assert image.theta == m.theta  # the model is scale-invariant


def test_map_must_fix_origin_and_be_invertible():
    m = heisenberg_model(2, 6)
    with pytest.raises(NonInvertibleMapError):
        ps.apply_biholomorphism(m, _map_series(["z1 + 1", "z2"], 2, 6), _map_series(["w"], 2, 6)[0])
    with pytest.raises(NonInvertibleMapError):
        ps.apply_biholomorphism(m, _map_series(["z1", "z1"], 2, 6), _map_series(["w"], 2, 6)[0])


def test_axis_swap_image_not_graphable():
    # swapping the z1 and w axes leaves the image tangent to the new
    # vertical axis, so no graph over the canonical axes exists
    m = heisenberg_model(2, 6)
    z1, z2, w = _map_series(["w", "z2", "z1"], 2, 6)
    with pytest.raises(ps.NotGraphableError):
        ps.apply_biholomorphism(m, [z1, z2], w)


def test_normalization_breaking_map_rejected():
    # w -> i*w turns the linear part into +wb, which the validated
    # constructor refuses
    m = heisenberg_model(2, 6)
    z1, z2, w = _map_series(["z1", "z2", "i*w"], 2, 6)
    with pytest.raises(NormalizationError):
        ps.apply_biholomorphism(m, [z1, z2], w)


def test_signature_invariant_under_random_linear_maps(rng):
    m = ps.make_model(
        2, ps.parse_series("-wb + z1*z1b - z2*z2b", CTX, 6), 6
    )
    base_signature = ps.levi(m).signature
    for _ in range(5):
        # invertible complex-linear z-block and positive rational w-scale
        while True:
            entries = [
                [rng.choice([1, 2, 0, 1]), rng.choice([0, 1, -1])],
                [rng.choice([0, 1, -1]), rng.choice([1, 2, 1])],
            ]
            if entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0] != 0:
                break
        r = rng.choice([1, 2, Fraction(1, 2), 4])
        z1 = f"{entries[0][0]}*z1 + {entries[0][1]}*z2"
        z2 = f"{entries[1][0]}*z1 + {entries[1][1]}*z2"
        w = f"{r}*w" if r != Fraction(1, 2) else "w/2"
        image = ps.apply_biholomorphism(m, _map_series([z1, z2], 2, 6), _map_series([w], 2, 6)[0])
        data = ps.levi(image)
        assert data.signature == base_signature
        assert data.delta_at_origin  # nondegeneracy preserved


def test_from_graph_outputs_pass_reality(rng):
    # random real graphs of degree <= 4 produce reality-exact models
    gctx = ps.graph_context(2)
    import itertools

    monos = [
        e
        for e in itertools.product(range(5), repeat=5)
        if 2 <= sum(e) <= 4
    ]
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.choice(monos)] = GaussianRational(rng.choice(pool))
        phi = TruncatedSeries(gctx, 5, terms)
        m = ps.from_graph(phi, 2, 5)
        assert ps.check_reality(m).ok
