"""Complex defining functions of real-analytic hypersurfaces.

A hypersurface through the origin is stored via its complex graphing
series theta in the variables (z1..zn, z1b..znb, wb), normalized so that
theta = -wb + (terms of degree >= 2).  Construction verifies the two
conjugate functional identities that make the single complex equation
w = theta(z, zb, wb) cut out one real hypersurface; inputs failing them
are rejected rather than repaired.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    LeviDegenerateError,
    NonInvertibleMapError,
    NormalizationError,
    NotGraphableError,
    RealityError,
    SingularJacobianError,
    UnsupportedDimensionError,
)
from .implicit import solve_formal_system, solve_implicit
from .matrices import MinorFamily, SeriesMatrix, jacobian_minor_family, scalar_determinant
from .scalars import GaussianRational, ONE, ZERO, brief_str, gaussian
from .series import TruncatedSeries, VariableContext, graded_lex


def canonical_context(n: int) -> VariableContext:
    """(z1..zn, z1b..znb, wb): holomorphic, conjugate, conjugate-vertical."""
    names = [f"z{k}" for k in range(1, n + 1)]
    names += [f"z{k}b" for k in range(1, n + 1)]
    names.append("wb")
    return VariableContext(names)


def conjugate_context(n: int) -> VariableContext:
    names = [f"z{k}" for k in range(1, n + 1)]
    names += [f"z{k}b" for k in range(1, n + 1)]
    names.append("w")
    return VariableContext(names)


def graph_context(n: int) -> VariableContext:
    """(x1..xn, y1..yn, v): real coordinates of a graphed hypersurface."""
    names = [f"x{k}" for k in range(1, n + 1)]
    names += [f"y{k}" for k in range(1, n + 1)]
    names.append("v")
    return VariableContext(names)


def map_context(n: int) -> VariableContext:
    """(z1..zn, w): source coordinates of a holomorphic point map."""
    return VariableContext([f"z{k}" for k in range(1, n + 1)] + ["w"])


@dataclass(frozen=True)
class HypersurfaceModel:
    """A validated defining function theta with its dimension and order.

    Objects derived from theta by the ``per_model`` functions are kept in
    the model's memo, so each is computed once for the model's lifetime.
    """

    n: int
    order: int
    theta: TruncatedSeries
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def context(self) -> VariableContext:
        return self.theta.context


def per_model(fn):
    """Decorate a function of one object with a ``_memo`` dict, a model or
    a fundamental solution, so that it runs once per object."""

    @functools.wraps(fn)
    def memoized(model):
        memo = model._memo
        if fn not in memo:
            memo[fn] = fn(model)
        return memo[fn]

    return memoized


@dataclass(frozen=True)
class LeviData:
    """Levi determinant, its value at 0, and the exact form signature."""

    delta: TruncatedSeries
    delta_at_origin: GaussianRational
    signature: tuple


@dataclass(frozen=True)
class RealityReport:
    ok: bool
    identity: int | None = None      # 1 or 2 when failing
    monomial: str | None = None      # first failing monomial, graded-lex
    discrepancy: GaussianRational | None = None


def make_model(n: int, theta: TruncatedSeries, order: int | None = None) -> HypersurfaceModel:
    """Validate and wrap a defining series.

    Checks, in this sequence: the dimension bound n >= 2, the canonical
    context, the normalization theta = -wb + O(2), and both reality
    identities through the guaranteed order.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"CR dimension must be >= 2, got {n}")
    ctx = canonical_context(n)
    if theta.context != ctx:
        raise ValueError(
            f"theta must live in context {ctx.names}, got {theta.context.names}"
        )
    if order is None:
        order = theta.order
    theta = theta.truncate(order)

    if theta.constant_term():
        raise NormalizationError("theta has a nonzero constant term")
    for name in ctx.names:
        coeff = theta.coefficient_of(**{name: 1})
        expected = gaussian(-1) if name == "wb" else ZERO
        if coeff != expected:
            raise NormalizationError(
                f"linear part must be exactly -wb; coefficient of {name} is {brief_str(coeff)}"
            )

    model = HypersurfaceModel(n=n, order=order, theta=theta)
    report = check_reality(model)
    if not report.ok:
        raise RealityError(
            f"reality identity {report.identity} fails at monomial "
            f"{report.monomial} (discrepancy {brief_str(report.discrepancy)})",
            identity=report.identity,
            monomial=report.monomial,
        )
    return model


def conjugate_theta(model: HypersurfaceModel) -> TruncatedSeries:
    """thetabar(zb, z, w): conjugate coefficients, swap z <-> zb, wb -> w.

    The result lives in the context (z1..zn, z1b..znb, w); applying the
    construction twice gives back the original series.
    """
    return _conjugate(model.theta, model.n)


def _conjugate(series: TruncatedSeries, n: int) -> TruncatedSeries:
    """The map of ``conjugate_theta`` on any series in (z, zb, wb)."""
    terms = {}
    for exps, coeff in series.terms.items():
        terms[exps[n : 2 * n] + exps[:n] + exps[2 * n :]] = coeff.conjugate()
    return TruncatedSeries(conjugate_context(n), series.order, terms)


def check_reality(model: HypersurfaceModel) -> RealityReport:
    """Verify wb == thetabar(zb, z, theta) and w == theta(z, zb, thetabar).

    The second identity is the conjugate of the first: the map of
    ``conjugate_theta`` (conjugate coefficients, swap z <-> zb, wb -> w)
    takes the first identity's discrepancy to the second's, so one
    substitution serves both.
    """
    theta = model.theta
    ctx = theta.context
    lhs1 = conjugate_theta(model).substitute({"w": theta}, target_context=ctx)
    diff1 = lhs1 - TruncatedSeries.variable(ctx, lhs1.order, "wb")
    bad1 = diff1.first_term()
    if bad1 is None:
        return RealityReport(ok=True)
    diff2 = _conjugate(diff1, model.n)
    bad2 = diff2.first_term()
    if graded_lex(bad1[0]) <= graded_lex(bad2[0]):
        exps, coeff = bad1
        return RealityReport(False, 1, diff1.monomial_text(exps), coeff)
    exps, coeff = bad2
    return RealityReport(False, 2, diff2.monomial_text(exps), coeff)


def from_graph(phi: TruncatedSeries, n: int, order: int | None = None) -> HypersurfaceModel:
    """Convert a real graphed equation u = phi(x, y, v) to a complex model.

    phi must be real-valued (all coefficients real) with phi(0) = 0 and
    dphi(0) = 0.  Writing u = (w + wb)/2, x = (z + zb)/2, y = (z - zb)/2i,
    v = (w - wb)/2i and solving for w yields theta; the result satisfies
    the reality identities by construction, which make_model re-verifies.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"CR dimension must be >= 2, got {n}")
    gctx = graph_context(n)
    if phi.context != gctx:
        raise ValueError(
            f"phi must live in context {gctx.names}, got {phi.context.names}"
        )
    if order is None:
        order = phi.order
    phi = phi.truncate(order)
    for exps, coeff in phi.terms.items():
        if coeff.im:
            raise NormalizationError(
                f"phi must be real-valued; coefficient of {phi.monomial_text(exps)} "
                f"is {brief_str(coeff)}"
            )
        if sum(exps) < 2:
            raise NormalizationError("phi must vanish to second order at the origin")

    ctx = canonical_context(n)
    big = VariableContext(ctx.names + ("w",))
    half = gaussian(Fraction(1, 2))
    minus_half_i = gaussian(0, Fraction(-1, 2))

    def var(name):
        return TruncatedSeries.variable(big, order, name)

    assignment = {}
    for k in range(1, n + 1):
        zk, zkb = var(f"z{k}"), var(f"z{k}b")
        assignment[f"x{k}"] = (zk + zkb).scale(half)
        assignment[f"y{k}"] = (zk - zkb).scale(minus_half_i)
    assignment["v"] = (var("w") - var("wb")).scale(minus_half_i)

    equation = (var("w") + var("wb")).scale(half) - phi.substitute(
        assignment, target_context=big
    )
    try:
        solution = solve_formal_system([equation], ["w"], order=order)
    except SingularJacobianError as exc:  # cannot happen for valid phi
        raise NotGraphableError(str(exc)) from exc
    theta = solution["w"].rename_context(ctx)
    return make_model(n, theta, order)


@per_model
def _levi_family(model: HypersurfaceModel) -> MinorFamily:
    n = model.n
    x_names = [f"z{k}" for k in range(1, n + 1)]
    a_names = [f"z{k}b" for k in range(1, n + 1)] + ["wb"]
    return jacobian_minor_family(model.theta, x_names, a_names)


def levi_matrix(model: HypersurfaceModel) -> SeriesMatrix:
    """Rows: dtheta/d(tbar_mu); then one row d2theta/dz_k d(tbar_mu) per k."""
    return _levi_family(model).matrix


def minors(model: HypersurfaceModel) -> MinorFamily:
    """Levi determinant of the model and all of its Cramer minors.

    Row convention: first row dtheta/d(tbar), then one row of mixed
    second derivatives per z_k; columns ordered (z1b..znb, wb).  Raises
    LeviDegenerateError when the determinant vanishes at the origin.
    """
    family = _levi_family(model)
    if not family.delta.constant_term():
        raise LeviDegenerateError("Levi determinant vanishes at the origin")
    return family


def hermitian_signature(matrix) -> tuple:
    """Exact signature (positives, negatives) of a nondegenerate Hermitian
    matrix over Q(i), by congruence elimination (no eigenvalues needed)."""
    n = len(matrix)
    h = [[entry for entry in row] for row in matrix]
    for j in range(n):
        for k in range(n):
            if h[j][k].conjugate() != h[k][j]:
                raise ValueError("matrix is not Hermitian")
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if h[i][i]), None)
        if pivot is None:
            # all active diagonal entries vanish; mix in an off-diagonal one
            pair = next(
                ((i, j) for i in active for j in active if i != j and h[i][j]),
                None,
            )
            if pair is None:
                raise LeviDegenerateError("Hermitian form is degenerate")
            i, j = pair
            c = ONE if h[i][j].re else gaussian(0, 1)
            # congruence x_i := x_i + c x_j: col_i += c col_j, row_i += conj(c) row_j
            for r in range(n):
                h[r][i] = h[r][i] + c * h[r][j]
            for s in range(n):
                h[i][s] = h[i][s] + c.conjugate() * h[j][s]
            pivot = i
        d = h[pivot][pivot]
        if d.im:
            raise ValueError("Hermitian diagonal entry is not real")
        if d.re > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for k in list(active):
            if not h[k][pivot]:
                continue
            factor = -(h[k][pivot] / d)
            # clear column/row `pivot` against index k
            for r in range(n):
                h[r][k] = h[r][k] + factor.conjugate() * h[r][pivot]
            for s in range(n):
                h[k][s] = h[k][s] + factor * h[pivot][s]
    return (pos, neg)


def levi(model: HypersurfaceModel) -> LeviData:
    """Levi determinant, its origin value, and the exact signature.

    Raises LeviDegenerateError when the determinant vanishes at 0 (the
    signature is undefined there).
    """
    delta = minors(model).delta
    n = model.n
    hermitian = [
        [model.theta.coefficient_of(**{f"z{j}": 1, f"z{k}b": 1}) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    signature = hermitian_signature(hermitian)
    return LeviData(delta=delta, delta_at_origin=delta.constant_term(), signature=signature)


def apply_biholomorphism(model: HypersurfaceModel, zmaps, wmap) -> HypersurfaceModel:
    """Transport the model through (z, w) |-> (zmaps(z, w), wmap(z, w)).

    The map must fix the origin and have an invertible linear part.  The
    image equation is obtained by substituting the formal inverse into
    w = theta and re-solving for the new vertical variable; the output is
    re-validated, so a map that destroys the normalization or the graph
    property raises rather than returning a broken model.
    """
    n = model.n
    mctx = map_context(n)
    components = list(zmaps) + [wmap]
    if len(components) != n + 1:
        raise ValueError(f"expected {n} z-components and one w-component")
    for comp in components:
        if comp.context != mctx:
            raise ValueError(f"map components must live in context {mctx.names}")
        if comp.constant_term():
            raise NonInvertibleMapError("map must fix the origin")

    jac = [[comp.coefficient_of(**{name: 1}) for name in mctx.names] for comp in components]
    if not scalar_determinant(jac):
        raise NonInvertibleMapError("linear part of the map is singular")

    order = min(model.order, min(comp.order for comp in components))
    primed = [f"zp{k}" for k in range(1, n + 1)] + ["wp"]
    inverse = solve_implicit(
        [comp.truncate(order) for comp in components],
        unknowns=list(mctx.names),
        targets=primed,
        order=order,
    )

    big = VariableContext(
        [f"zp{k}" for k in range(1, n + 1)]
        + [f"zp{k}b" for k in range(1, n + 1)]
        + ["wpb", "wp"]
    )

    def lift(series):
        return series.substitute({}, target_context=big)

    def lift_conjugate(series):
        # conjugate coefficients and move to the barred primed variables
        barred = VariableContext([f"zp{k}b" for k in range(1, n + 1)] + ["wpb"])
        conj = TruncatedSeries(
            barred, series.order, {e: c.conjugate() for e, c in series.terms.items()}
        )
        return conj.substitute({}, target_context=big)

    assignment = {}
    for k in range(1, n + 1):
        g = inverse[f"z{k}"]
        assignment[f"z{k}"] = lift(g)
        assignment[f"z{k}b"] = lift_conjugate(g)
    assignment["wb"] = lift_conjugate(inverse["w"])

    equation = model.theta.substitute(assignment, target_context=big) - lift(
        inverse["w"]
    )
    try:
        solution = solve_formal_system([equation], ["wp"], order=order)
    except SingularJacobianError as exc:
        raise NotGraphableError(
            "image hypersurface is not graphable over the canonical axes"
        ) from exc
    theta_prime = solution["wp"].rename_context(canonical_context(n))
    return make_model(n, theta_prime, theta_prime.order)
