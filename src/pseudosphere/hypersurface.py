"""Complex defining functions of real-analytic hypersurfaces.

A hypersurface through the origin is stored via its complex graphing
series theta in the variables (z1..zn, z1b..znb, wb), normalized so that
theta = -wb + (terms of degree >= 2).  A theta given from outside must
pass the two conjugate functional identities that make the single complex
equation w = theta(z, zb, wb) cut out one real hypersurface; inputs
failing them are rejected rather than repaired.  A theta the library
solves for, from a real graph or through a holomorphic map, satisfies
them by construction and is checked for its normalization alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InsufficientOrderError,
    LeviDegenerateError,
    NonInvertibleMapError,
    NormalizationError,
    NotGraphableError,
    RealityError,
    SingularJacobianError,
    UnsupportedDimensionError,
)
from .implicit import solve_formal_system, solve_implicit
from .matrices import MinorFamily, SeriesMatrix, jacobian_minor_family
from .scalars import GaussianRational, ZERO, brief_str, gaussian
from .series import TruncatedSeries, VariableContext


@functools.cache
def canonical_context(n: int) -> VariableContext:
    """(z1..zn, z1b..znb, wb): holomorphic, conjugate, conjugate-vertical."""
    names = [f"z{k}" for k in range(1, n + 1)]
    names += [f"z{k}b" for k in range(1, n + 1)]
    names.append("wb")
    return VariableContext(names)


@functools.cache
def conjugate_context(n: int) -> VariableContext:
    names = [f"z{k}" for k in range(1, n + 1)]
    names += [f"z{k}b" for k in range(1, n + 1)]
    names.append("w")
    return VariableContext(names)


@functools.cache
def graph_context(n: int) -> VariableContext:
    """(x1..xn, y1..yn, v): real coordinates of a graphed hypersurface."""
    names = [f"x{k}" for k in range(1, n + 1)]
    names += [f"y{k}" for k in range(1, n + 1)]
    names.append("v")
    return VariableContext(names)


@functools.cache
def map_context(n: int) -> VariableContext:
    """(z1..zn, w): source coordinates of a holomorphic point map."""
    return VariableContext([f"z{k}" for k in range(1, n + 1)] + ["w"])


@dataclass(frozen=True)
class HypersurfaceModel:
    """A validated defining function theta with its dimension.

    Objects derived from theta by the ``per_model`` functions are kept in
    the model's memo, so each is computed once for the model's lifetime.
    """

    n: int
    theta: TruncatedSeries
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def context(self) -> VariableContext:
        return self.theta.context

    @property
    def order(self) -> int:
        return self.theta.order


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
    """Levi determinant at 0 and exact form signature; the series is minors(model).delta."""

    delta_at_origin: GaussianRational
    signature: tuple


@dataclass(frozen=True)
class RealityReport:
    ok: bool
    identity: int | None = None      # 1 when failing (see check_reality)
    monomial: str | None = None      # first failing monomial, graded-lex
    discrepancy: GaussianRational | None = None


def _checked_input(n: int, series: TruncatedSeries, order, name: str, context_of):
    """``series`` truncated to ``order`` (default: its own), after checking
    n >= 2, that it lives in ``context_of(n)`` and that order >= 1."""
    if n < 2:
        raise UnsupportedDimensionError(f"CR dimension must be >= 2, got {n}")
    ctx = context_of(n)
    if series.context is not ctx and series.context != ctx:
        raise ValueError(
            f"{name} must live in context {ctx.names}, got {series.context.names}"
        )
    if order is None:
        order = series.order
    if order < 1:
        raise InsufficientOrderError(
            f"a model needs order >= 1 to fix its linear part, got {order}"
        )
    return series.truncate(order)


def _normalized_model(n: int, theta: TruncatedSeries) -> HypersurfaceModel:
    """``theta`` wrapped as a model, after checking the normalization
    theta = -wb + O(2)."""
    if theta.constant_term():
        raise NormalizationError("theta has a nonzero constant term")
    for name in theta.context.names:
        coeff = theta.coefficient_of(**{name: 1})
        expected = gaussian(-1) if name == "wb" else ZERO
        if coeff != expected:
            raise NormalizationError(
                f"linear part must be exactly -wb; coefficient of {name} is {brief_str(coeff)}"
            )
    return HypersurfaceModel(n=n, theta=theta)


def make_model(n: int, theta: TruncatedSeries, order: int | None = None) -> HypersurfaceModel:
    """Validate and wrap a defining series given from outside.

    Checks, in this sequence: the dimension bound n >= 2, the canonical
    context, order >= 1, the normalization theta = -wb + O(2), and both
    reality identities through the guaranteed order.
    """
    model = _normalized_model(n, _checked_input(n, theta, order, "theta", canonical_context))
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
    n = model.n
    swapped = list(range(n, 2 * n)) + list(range(n)) + [2 * n]
    return model.theta._embedded(conjugate_context(n), swapped, conjugate=True)


def check_reality(model: HypersurfaceModel) -> RealityReport:
    """Verify wb == thetabar(zb, z, theta) and w == theta(z, zb, thetabar).

    One substitution decides both, and identity 1 is the one reported.
    Write sigma for the map of ``conjugate_theta``, phi = theta(z, zb, .)
    and psi = sigma(phi) = thetabar(zb, z, .).  Identity 2's discrepancy
    phi o psi - id is sigma(psi o phi - id), identity 1's under sigma, so
    they vanish together.  If psi o phi = id + E and D is the lowest-degree
    part of E, of degree d, then since phi(t) = -t + (degree >= 2),

        phi o psi - id = phi o (id + E) o phi^-1 - id = -D(z, zb, -t) + (degree > d),

    so sigma(D) = -D(z, zb, -t) has exactly D's support: both identities
    fail first at the same graded-lex monomial.
    """
    theta = model.theta
    ctx = theta.context
    lhs = conjugate_theta(model).substitute({"w": theta}, target_context=ctx)
    diff = lhs - TruncatedSeries.variable(ctx, lhs.order, "wb")
    bad = diff.first_term()
    if bad is None:
        return RealityReport(ok=True)
    exps, coeff = bad
    return RealityReport(False, 1, diff.monomial_text(exps), coeff)


def _solved_model(n: int, equation: TruncatedSeries) -> HypersurfaceModel:
    """The model w = theta(z, zb, wb) that solves ``equation`` = 0, an
    equation in (z1..zn, z1b..znb, wb, w) of order >= 1 and n >= 2.

    The equation is real by construction, a real graph or the image of a
    real model under a holomorphic map, so theta satisfies the reality
    identities and only its normalization is checked: a map can break that.
    """
    try:
        theta = solve_formal_system([equation], ["w"])["w"]
    except SingularJacobianError as exc:
        raise NotGraphableError(
            "image hypersurface is not graphable over the canonical axes"
        ) from exc
    return _normalized_model(n, theta)


def from_graph(phi: TruncatedSeries, n: int, order: int | None = None) -> HypersurfaceModel:
    """Convert a real graphed equation u = phi(x, y, v) to a complex model.

    phi must be real-valued (all coefficients real) with phi(0) = 0 and
    dphi(0) = 0.  Writing u = (w + wb)/2, x = (z + zb)/2, y = (z - zb)/2i,
    v = (w - wb)/2i and solving for w yields theta; the result satisfies
    the reality identities by construction, so only its normalization is
    checked.
    """
    phi = _checked_input(n, phi, order, "phi", graph_context)
    order = phi.order
    for exps, coeff in phi.terms.items():  # graded-lex: the lowest is named
        if coeff.im:
            raise NormalizationError(
                f"phi must be real-valued; coefficient of {phi.monomial_text(exps)} "
                f"is {brief_str(coeff)}"
            )
        if sum(exps) < 2:
            raise NormalizationError("phi must vanish to second order at the origin")

    big = VariableContext(canonical_context(n).names + ("w",))
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
    # at order >= 1 the w-derivative of the equation at 0 is 1/2
    return _solved_model(n, equation)


def _roles(obj):
    """(series, base names, parameter names) of a model or a fundamental
    solution: theta over (z1..zn; z1b..znb, wb), or Q over (x1..xn; a1..an,
    b).  Both contexts list the n base variables first."""
    series = obj.theta if isinstance(obj, HypersurfaceModel) else obj.q
    names = list(series.context.names)
    return series, names[: obj.n], names[obj.n :]


@per_model
def minors(obj) -> MinorFamily:
    """The fundamental matrix of theta or Q with all of its Cramer minors;
    a model's is its Levi matrix, and its determinant the Levi determinant.

    Row convention: first row dtheta/d(tbar), then one row of mixed
    second derivatives per z_k; columns ordered (z1b..znb, wb).  Raises
    LeviDegenerateError when the determinant vanishes at the origin: this
    is the Levi check, and a fundamental solution's rank condition, which
    its construction maps to RankConditionError.
    """
    family = jacobian_minor_family(*_roles(obj))
    if not family.delta.constant_term():
        raise LeviDegenerateError("Levi determinant vanishes at the origin")
    return family


# The one variable of every characteristic polynomial hermitian_signature forms.
_T = VariableContext(["t"])


def hermitian_signature(matrix) -> tuple:
    """Exact signature (positives, negatives) of a nondegenerate Hermitian
    matrix H over Q(i), by Descartes' rule of signs on p(t) = det(tI - H).

    Every root of p is a real eigenvalue of H, so the positive ones are
    counted exactly by the sign changes of p's coefficients (zeros
    skipped); when p(0) = det(-H) is nonzero the rest are negative.  Each
    entry of tI - H is built as its storage over the one context of t: the
    constant -h, and on the diagonal t over the same denominator.
    """
    n = len(matrix)
    for j in range(n):
        for k in range(n):
            if matrix[j][k].conjugate() != matrix[k][j]:
                raise ValueError("matrix is not Hermitian")
    rows = [[TruncatedSeries.constant(_T, n, -h) for h in row] for row in matrix]
    for j, row in enumerate(rows):
        c = row[j]
        row[j] = TruncatedSeries._valid(_T, n, c._den, {**c._grades, 1: {1: (c._den, 0)}})
    p = SeriesMatrix(rows).determinant()
    if not p.constant_term():
        raise LeviDegenerateError("Hermitian form is degenerate")
    signs = [c.re > 0 for c in (p.coefficient((k,)) for k in range(n + 1)) if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return (pos, n - pos)


def levi(model: HypersurfaceModel) -> LeviData:
    """The Levi determinant at 0 and the exact signature, from minors(model).

    Raises LeviDegenerateError when the determinant vanishes at 0 (the
    signature is undefined there).
    """
    family = minors(model)
    # the Levi form theta_{z_j z_kb}(0): the mixed block of the matrix at 0
    hermitian = [
        [entry.constant_term() for entry in row[: model.n]]
        for row in family.matrix.entries[1:]
    ]
    return LeviData(family.delta.constant_term(), hermitian_signature(hermitian))


def apply_biholomorphism(model: HypersurfaceModel, zmaps, wmap) -> HypersurfaceModel:
    """Transport the model through (z, w) |-> (zmaps(z, w), wmap(z, w)).

    The map must fix the origin and have an invertible linear part.  The
    image equation is obtained by substituting the formal inverse into
    w = theta, written in the image's own (z, zb, wb, w); ``_solved_model``,
    the step that also ends ``from_graph``, solves it for the new vertical
    variable and checks the result's normalization, so a map that destroys
    the normalization or the graph property raises rather than returning a
    broken model.  The image of a real model is real by construction.
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

    order = min(model.order, min(comp.order for comp in components))
    primed = [f"zp{k}" for k in range(1, n + 1)] + ["wp"]
    try:
        inverse = solve_implicit(
            [comp.truncate(order) for comp in components],
            unknowns=list(mctx.names),
            targets=primed,
        )
    except SingularJacobianError:
        raise NonInvertibleMapError("linear part of the map is singular") from None

    big = VariableContext(canonical_context(n).names + ("w",))

    def lift(g, conjugate=False):
        """g(z, w) in the image equation's context, or its conjugate gbar(zb, wb)."""
        zs, none = list(range(n)), [None] * n
        if conjugate:
            return g._embedded(big, none + zs + [n, None], conjugate=True)
        return g._embedded(big, zs + none + [None, n])

    assignment = {}
    for k in range(1, n + 1):
        g = inverse[f"z{k}"]
        assignment[f"z{k}"] = lift(g)
        assignment[f"z{k}b"] = lift(g, conjugate=True)
    assignment["wb"] = lift(inverse["w"], conjugate=True)
    equation = model.theta.substitute(assignment, target_context=big) - lift(inverse["w"])
    return _solved_model(n, equation)
