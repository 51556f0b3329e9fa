"""Defining functions: validation, reality, Levi data, transport."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries, hypersurface
from pseudosphere.errors import (
    InsufficientOrderError,
    LeviDegenerateError,
    NonInvertibleMapError,
    NormalizationError,
    RealityError,
    UnsupportedDimensionError,
)
from pseudosphere.hypersurface import conjugate_context, hermitian_signature
from pseudosphere.scalars import GaussianRational, gaussian
from pseudosphere.series import graded_lex

from conftest import COEFF_POOL, heisenberg_model, random_graph, rigid_perturbation_model

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


def test_order_zero_rejected():
    # an order-0 series has no linear part to normalize or to solve for w
    with pytest.raises(InsufficientOrderError):
        model_from("-wb", order=0)
    gctx = ps.graph_context(2)
    with pytest.raises(InsufficientOrderError):
        ps.from_graph(ps.parse_series("x1^2", gctx, 0), 2, 0)
    assert model_from("-wb", order=1).theta == ps.parse_series("-wb", CTX, 1)
    graphed = ps.from_graph(ps.parse_series("x1^2", gctx, 1), 2, 1)
    assert graphed.theta == ps.parse_series("-wb", CTX, 1)


def test_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        ps.make_model(1, ps.parse_series("-wb + z1*z1b", ps.canonical_context(1), 4), 4)


@pytest.mark.parametrize("context_of", [
    ps.canonical_context, conjugate_context, ps.graph_context, ps.map_context,
    ps.pde_context, ps.fundamental_context])
def test_each_context_is_one_object_per_n(context_of):
    # series of one n share their context object, so the context check of
    # every operation between them is an identity test
    for n in (2, 3, 4):
        assert context_of(n) is context_of(n)
        assert context_of(n) is not context_of(n + 1)


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
    bad = ps.HypersurfaceModel(n=2, theta=theta)
    report = ps.check_reality(bad)
    assert not report.ok
    assert report.identity == 1
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


def random_theta(n, order, paired, rng, degrees=(2, 3)):
    """A normalized theta with 1-4 random terms of the given degrees; with
    ``paired`` each term comes with its conjugate partner, which makes a
    rigid theta pass."""
    ctx = ps.canonical_context(n)
    monos = [e for e in itertools.product(range(3), repeat=ctx.arity) if sum(e) in degrees]
    terms = {(0,) * (2 * n) + (1,): gaussian(-1)}  # -wb
    for _ in range(rng.randint(1, 4)):
        exps = rng.choice(monos)
        coeff = rng.choice(COEFF_POOL)
        terms[exps] = terms.get(exps, gaussian(0)) + coeff
        if paired:
            mirror = exps[n : 2 * n] + exps[:n] + exps[2 * n :]
            terms[mirror] = terms.get(mirror, gaussian(0)) + coeff.conjugate()
    return TruncatedSeries(ctx, order, {e: c for e, c in terms.items() if c})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(3, 5), st.booleans(),
       st.randoms(use_true_random=False))
def test_check_reality_matches_two_substitutions(n, order, paired, rng):
    model = ps.HypersurfaceModel(n=n, theta=random_theta(n, order, paired, rng))
    assert ps.check_reality(model) == reference_check_reality(model)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(3, 6), st.sampled_from([2, 3, 4]),
       st.randoms(use_true_random=False))
def test_reality_discrepancy_is_conjugate_to_its_reflection(n, order, degree, rng):
    # why check_reality reports identity 1 only: if D is the lowest-degree
    # part of identity 1's discrepancy, the conjugation map of
    # conjugate_theta sends D to -D(z, zb, -t), which has D's support
    theta = random_theta(n, order, True, rng, degrees=(2, 3, 4))
    ctx = theta.context
    exps = rng.choice([e for e in itertools.product(range(3), repeat=ctx.arity) if sum(e) == degree])
    theta = theta + TruncatedSeries(ctx, order, {exps: rng.choice(COEFF_POOL)})
    model = ps.HypersurfaceModel(n=n, theta=theta)
    lhs = ps.conjugate_theta(model).substitute({"w": theta}, target_context=ctx)
    diff = lhs - TruncatedSeries.variable(ctx, lhs.order, "wb")
    first = diff.first_term()
    assume(first is not None)
    lowest = diff.homogeneous_part(sum(first[0]))
    conjugated = ps.conjugate_theta(
        ps.HypersurfaceModel(n=n, theta=TruncatedSeries(ctx, diff.order, lowest))
    )
    reflected = {e: c if e[-1] % 2 else -c for e, c in lowest.items()}
    assert conjugated == TruncatedSeries(conjugate_context(n), diff.order, reflected)


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
    model = heisenberg_model(2, 6)
    data = ps.levi(model)
    assert data.delta_at_origin == gaussian(-1)
    assert data.signature == (2, 0)
    # the determinant itself is the minor family's, at the matrix order
    assert ps.minors(model).delta == ps.parse_series("-1", CTX, 4)


def test_levi_degenerate_raises():
    theta = ps.parse_series("-wb + z1*z1b", CTX, 5)
    m = ps.HypersurfaceModel(n=2, theta=theta)  # bypass validation
    assert ps.check_reality(m).ok
    with pytest.raises(LeviDegenerateError):
        ps.levi(m)


def test_levi_matrix_row_convention():
    m = heisenberg_model(2, 6)
    matrix = ps.minors(m).matrix
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


def test_characteristic_matrix_is_the_constructor_built_one(monkeypatch):
    # tI - H is built as storages over one context of t: each entry and
    # the characteristic polynomial are, in storage and order, those of the
    # matrix the validating constructor builds on a fresh context, on
    # random Hermitian matrices of sides 1 to 6, degenerate ones included
    built = []
    original = hypersurface.SeriesMatrix

    class Spy(original):
        def determinant(self):
            built.append((self, super().determinant()))
            return built[-1][1]

    monkeypatch.setattr(hypersurface, "SeriesMatrix", Spy)
    rng = random.Random(5)
    diagonal = [0, 1, -1, Fraction(2, 3), Fraction(-1, 5)]
    off = [gaussian(0), gaussian(1), gaussian(-2), gaussian(Fraction(1, 3), 1),
           gaussian(0, Fraction(-1, 2)), gaussian(Fraction(5, 7))]
    contexts = set()
    for n in range(1, 7):
        for _ in range(4):
            h = [[gaussian(rng.choice(diagonal)) if j == k else None for k in range(n)]
                 for j in range(n)]
            for j, k in itertools.combinations(range(n), 2):
                h[j][k] = rng.choice(off)
                h[k][j] = h[j][k].conjugate()
            fresh = ps.VariableContext(["t"])
            want = original(
                [[TruncatedSeries(fresh, n, {(1,): 1, (0,): -x} if j == k else {(0,): -x})
                  for k, x in enumerate(row)] for j, row in enumerate(h)])
            want_p = want.determinant()
            try:
                signature = hermitian_signature(h)
            except LeviDegenerateError:
                signature = None
            (matrix, p), = built
            built.clear()
            contexts.add(id(matrix.context))
            for row, want_row in zip(matrix.entries, want.entries):
                for got, entry in zip(row, want_row):
                    assert (got._den, got._grades, got.order) == (
                        entry._den, entry._grades, entry.order)
            assert (p._den, p._grades, p.order) == (want_p._den, want_p._grades, want_p.order)
            assert (signature is None) == (not want_p.constant_term())
    assert len(contexts) == 1


small_gaussians = st.builds(gaussian, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def inertia_forms(draw):
    """(P, D, inertia of D): P a permuted unit-triangular matrix over Q(i),
    D block-diagonal with real entries +-1..3 and hyperbolic blocks
    [[0, c], [conj(c), 0]], each of inertia (1, 1)."""
    n = draw(st.integers(1, 5))
    d = [[gaussian(0)] * n for _ in range(n)]
    pos = neg = 0
    i = 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            c = draw(small_gaussians.filter(bool))
            d[i][i + 1], d[i + 1][i] = c, c.conjugate()
            pos, neg, i = pos + 1, neg + 1, i + 2
        else:
            v = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            d[i][i] = gaussian(v)
            pos, neg, i = pos + (v > 0), neg + (v < 0), i + 1
    lower = [[gaussian(1) if j == k else draw(small_gaussians) if j > k else gaussian(0)
              for k in range(n)] for j in range(n)]
    perm = draw(st.permutations(range(n)))
    return [lower[r] for r in perm], d, (pos, neg)


def congruent(p, d):
    """P D P*, with P* the conjugate transpose."""
    n = len(p)
    pd = [[sum((p[j][m] * d[m][k] for m in range(n)), gaussian(0)) for k in range(n)]
          for j in range(n)]
    return [[sum((pd[j][m] * p[k][m].conjugate() for m in range(n)), gaussian(0))
             for k in range(n)] for j in range(n)]


@settings(max_examples=200, deadline=None)
@given(inertia_forms())
def test_hermitian_signature_is_sylvester_inertia(form):
    # congruence preserves inertia (Sylvester's law), and D's is known
    p, d, inertia = form
    assert hermitian_signature(congruent(p, d)) == inertia


@settings(max_examples=100, deadline=None)
@given(inertia_forms(), st.data())
def test_hermitian_signature_degenerate_congruence(form, data):
    p, d, _ = form
    r = data.draw(st.integers(0, len(d) - 1))
    for k in range(len(d)):
        d[r][k] = d[k][r] = gaussian(0)
    with pytest.raises(LeviDegenerateError):
        hermitian_signature(congruent(p, d))


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
    # singular linear part under a Jacobian determinant 2*z2 that is not zero
    with pytest.raises(NonInvertibleMapError, match="linear part of the map is singular"):
        ps.apply_biholomorphism(m, _map_series(["z1", "z1 + z2^2"], 2, 6), _map_series(["w"], 2, 6)[0])


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


# non-real nonlinear terms for the z- and w-components of a random map:
# z_k goes to c*z_k plus two of them, with c from ZSCALES, and w to w plus
# one, so the map is invertible and keeps theta's linear part -wb
NONREAL_TERMS = {
    "z": ["i*z1*w", "(1/2*i)*z1^2", "(1 - i)*z2*w", "(-1/2*i)*w^2", "i*z1*z2^2"],
    "w": ["(1/2*i)*z1^2", "(-1 + i)*z1*z2", "i*z2*w", "(1/2*i)*z1^2*z2"],
}
ZSCALES = ["1", "i", "(1 + i)", "(1/2 - i)"]


def random_nonreal_map(rng, n, order):
    """A random map (zmaps, wmap) built from NONREAL_TERMS and ZSCALES."""
    texts = [f"{rng.choice(ZSCALES)}*z{k} + " + " + ".join(rng.sample(NONREAL_TERMS["z"], 2))
             for k in range(1, n + 1)]
    texts.append("w + " + rng.choice(NONREAL_TERMS["w"]))
    comps = _map_series(texts, n, order)
    return comps[:n], comps[n]


def inverse_map(zmaps, wmap):
    """The formal inverse of a map, by solve_implicit, as a map."""
    mctx = wmap.context
    inverse = ps.solve_implicit(list(zmaps) + [wmap], unknowns=list(mctx.names),
                                targets=[f"t{k}" for k in range(len(mctx))])
    comps = [inverse[name].rename_context(mctx) for name in mctx.names]
    return comps[:-1], comps[-1]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(5, 6), st.randoms(use_true_random=False))
def test_transport_round_trip_gives_back_theta(n, order, rng):
    # a curved real graph model through F, then through F^-1: theta comes
    # back through the order of the final image
    model = ps.from_graph(random_graph(rng, n, order), n, order)
    zmaps, wmap = random_nonreal_map(rng, n, order)
    image = ps.apply_biholomorphism(model, zmaps, wmap)
    assert image.theta != model.theta
    back = ps.apply_biholomorphism(image, *inverse_map(zmaps, wmap))
    assert back.order == order
    assert back.theta == model.theta


def test_from_graph_outputs_pass_reality(rng):
    # random real graphs of degree <= 4 with a term of odd degree in y, and
    # their images under maps with non-real coefficients, are reality-exact
    gctx = ps.graph_context(2)
    monos = [
        e
        for e in itertools.product(range(5), repeat=5)
        if 2 <= sum(e) <= 4
    ]
    odd_y = [e for e in monos if (e[2] + e[3]) % 2]
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(10):
        terms = {rng.choice(odd_y): GaussianRational(rng.choice(pool))}
        for _ in range(rng.randint(1, 4)):
            terms[rng.choice(monos)] = GaussianRational(rng.choice(pool))
        phi = TruncatedSeries(gctx, 5, terms)
        m = ps.from_graph(phi, 2, 5)
        assert ps.check_reality(m).ok
        image = ps.apply_biholomorphism(m, *random_nonreal_map(rng, 2, 5))
        assert ps.check_reality(image).ok


def test_reality_is_checked_only_where_theta_is_given(monkeypatch, rng):
    # make_model checks the theta it is given; from_graph and
    # apply_biholomorphism solve for a theta that is real by construction,
    # which test_from_graph_outputs_pass_reality pins, and check no reality
    checked = []
    check_reality = hypersurface.check_reality

    def spy(model):
        checked.append(model)
        return check_reality(model)

    monkeypatch.setattr(hypersurface, "check_reality", spy)
    quartic = model_from("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", order=5)
    assert checked == [quartic]
    graphed = ps.from_graph(random_graph(rng, 2, 5), 2, 5)
    for model in (quartic, graphed):
        ps.apply_biholomorphism(model, *random_nonreal_map(rng, 2, 5))
    assert checked == [quartic]
