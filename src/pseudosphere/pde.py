"""Completely integrable second-order PDE systems and their geometry.

The systems handled here are symmetric families y_{x^k1 x^k2} =
F_{k1,k2}(x, y, y_x) in n >= 2 independent variables.  A fundamental
solution Q(x, a, b) determines the system it solves: F is the unique
series with F(x, Q, Q_x) = Q_{x^k1 x^k2}, the transfer of jets to the
submanifold of solutions.  It is found against the forward jet map (a,
b) -> (Q, Q_x), which is known in closed form, degree by degree, after
its linear part is normalized to the identity; no inverse of that map
is formed (``_eliminate``).  A hypersurface model's theta is its own
fundamental solution, with (x, a, b) = (z, zb, wb), so both objects
share one memoized elimination and one memoized minor family, exported
under both names.  The jet-transfer helper rewrites second derivatives
with respect to the y_x variables as exact expressions in the (x, a, b)
chart via Cramer minors of the fundamental determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .errors import LeviDegenerateError, RankConditionError, UnsupportedDimensionError
from .hypersurface import _checked_input, _roles, minors, per_model
from .scalars import ZERO
from .series import (TruncatedSeries, VariableContext, _canonical, _compose, _solve_composition,
                     _sum_of_products)


@cache
def pde_context(n: int) -> VariableContext:
    names = [f"x{k}" for k in range(1, n + 1)]
    names.append("y")
    names += [f"yx{k}" for k in range(1, n + 1)]
    return VariableContext(names)


@cache
def fundamental_context(n: int) -> VariableContext:
    """(x1..xn, a1..an, b): the base variables, then the parameters of Q."""
    return VariableContext([f"x{k}" for k in range(1, n + 1)]
                           + [f"a{k}" for k in range(1, n + 1)] + ["b"])


class PdeSystem:
    """Symmetric family F_{k1,k2} of series in (x1..xn, y, yx1..yxn).

    Components are stored once per unordered index pair; the accessor
    symmetrizes.  Unspecified pairs default to zero.  The system's order
    is the lowest of ``order`` and the components' own orders, and every
    component is truncated to it.
    """

    def __init__(self, n: int, order: int, components):
        if n < 2:
            raise UnsupportedDimensionError(f"CR dimension must be >= 2, got {n}")
        self.n = n
        self.order = min([order] + [series.order for series in components.values()])
        self.context = pde_context(n)
        stored = {}
        for (k1, k2), series in components.items():
            if not (1 <= k1 <= n and 1 <= k2 <= n):
                raise ValueError(f"component index {(k1, k2)} out of range")
            if series.context is not self.context and series.context != self.context:
                raise ValueError(
                    f"component {(k1, k2)} must live in {self.context.names}"
                )
            key = (min(k1, k2), max(k1, k2))
            if key in stored:
                if not (stored[key] - series).is_zero():
                    raise ValueError(f"conflicting values for component {key}")
            else:
                stored[key] = series.truncate(self.order)
        zero = TruncatedSeries.zero(self.context, self.order)
        for k1 in range(1, n + 1):
            for k2 in range(k1, n + 1):
                stored.setdefault((k1, k2), zero)
        self._components = stored

    def component(self, k1: int, k2: int) -> TruncatedSeries:
        return self._components[(min(k1, k2), max(k1, k2))]

    @cached_property
    def _yx_partials(self) -> dict:
        """{(k1, k2): (dF/d(y_{x^1}), ..., dF/d(y_{x^n}))} for each nonzero
        stored component F, formed once and read by both the integrability
        totals and the flatness tensor's jet table."""
        names = [f"yx{l}" for l in range(1, self.n + 1)]
        return {key: tuple(f.partial(name) for name in names)
                for key, f in self._components.items() if not f.is_zero()}

    def component_keys(self):
        return sorted(self._components)

    def __repr__(self):
        return f"<PdeSystem n={self.n} order={self.order}>"


@dataclass(frozen=True)
class FundamentalSolution:
    """A graphing series Q(x, a, b) whose x-jet map has full rank at 0.

    ``normalized`` records whether Q(0,a,b) = -b and dQ/dx^k(0,a,b) = a^k
    hold exactly, i.e. whether the parameters are the standard initial
    conditions.  The rank condition itself is mandatory: it is the Levi
    check of Q's minor family, ``minors(self)``, which construction
    therefore builds, and a determinant vanishing at 0 raises
    RankConditionError.  Objects derived from Q by the ``per_model``
    functions are kept in the memo, as for a ``HypersurfaceModel``.
    """

    n: int
    q: TruncatedSeries
    normalized: bool = field(init=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        # a model's input checks: n >= 2, the context, then order >= 1
        _checked_input(self.n, self.q, None, "Q", fundamental_context)
        try:
            minors(self)
        except LeviDegenerateError:
            raise RankConditionError(
                "the map (a, b) -> (Q, Q_x)(0, a, b) is rank-deficient at 0"
            ) from None
        object.__setattr__(self, "normalized", self._is_normalized())

    def _is_normalized(self) -> bool:
        """Whether the part of Q of degree <= 1 in x is -b + sum_k x^k a^k."""
        q = self.q

        def var(name):
            return TruncatedSeries.variable(q.context, q.order, name)

        standard = -var("b")
        for k in range(1, self.n + 1):
            standard = standard + var(f"x{k}") * var(f"a{k}")
        # x1..xn lead the fundamental context
        low = {e: c for e, c in q.terms.items() if sum(e[: self.n]) <= 1}
        return low == standard.terms

    @property
    def order(self) -> int:
        return self.q.order


def _eliminate(q: TruncatedSeries, x_names, parameters, family) -> PdeSystem:
    """The second-order system solved by the family y = q(x, parameters).

    F_{k1,k2}(x, y, y_x) is the unique series with F(x, q, q_x) =
    q_{x^k1 x^k2}, through degree d = q.order - 2, the order of the
    second derivatives.  It is solved against the forward map Phi = (q,
    q_x1 .. q_xn) of the parameters a, whose linear part is M0 a + C x,
    with M0 the family's matrix at 0 and C the x-linear coefficients; no
    inverse of Phi is formed.  ``family`` is q's minor family, which holds
    the q_x (``firsts``), the q_{x^k1 x^k2} (``seconds``) and M0^-1, the
    transposed cofactor table's constant terms over delta(0).  Three steps:

    * Normalize: Phi~ = M0^-1 (Phi - C x) = a + (terms of degree >= 2),
      cut at d, with the x passing through.
    * Solve: F~ with F~(x, Phi~) = q_{x^k1 x^k2}, degree by degree
      (``series._solve_composition``), for every nonzero second
      derivative under one walk state.
    * Map back: F = F~ o L^-1, L^-1(x, y, y_x) = (x, M0^-1((y, y_x) -
      C x)), one linear composition into ``pde_context(n)``.

    Every step reads q and q_x through degree d only, though q_x would
    allow d + 1.  A zero second derivative is not solved: the system's
    default zero component has the order d its solution would have had.
    """
    n = len(x_names)
    order = q.order - 2
    rows = [q, *family.firsts]
    for i, row in enumerate(rows):
        if row.constant_term():
            raise ValueError(f"equation {i} does not vanish at the origin")
    seconds = {key: f for key, f in family.seconds.items() if f._grades}
    components = {}
    if seconds:
        ctx, out_ctx = q.context, pde_context(n)
        delta = family.delta.constant_term()
        # row j of M0^-1: (i, the cofactor (i, j) at 0 over delta(0)) for
        # each nonzero entry
        inverse = [[(i, c / delta) for i in range(n + 1)
                    if (c := family.cofactor[(i, j)].constant_term())] for j in range(n + 1)]
        # C by rows: (k, the coefficient of x_k in row i) for each nonzero one
        x_keys = {1 << ctx._shifts[ctx.index(name)]: k for k, name in enumerate(x_names)}
        slopes = [[(x_keys[key], row._scalar(pair)) for key, pair in row._grades.get(1, {}).items()
                   if key in x_keys] for row in rows]
        highs = [TruncatedSeries._valid(ctx, order, *_canonical(row._den, {
            degree: terms for degree, terms in row._grades.items() if 2 <= degree <= order}))
            for row in rows]
        normalized, back = {}, {}
        for j, a in enumerate(parameters):
            value = TruncatedSeries.variable(ctx, order, a)  # Phi~_j
            linear = {}  # L^-1's a_j: {position in (x, y, y_x): coefficient}
            for i, c in inverse[j]:
                if highs[i]._grades:
                    value = value + highs[i].scale(c)
                linear[n + i] = c  # row i's jet variable
                for k, slope in slopes[i]:
                    linear[k] = linear.get(k, ZERO) - c * slope
            normalized[a] = value
            back[a] = TruncatedSeries(out_ctx, order, {
                tuple(int(p == q) for q in range(2 * n + 1)): c for p, c in linear.items()})
        for k, name in enumerate(x_names, 1):
            back[name] = TruncatedSeries.variable(out_ctx, order, f"x{k}")
        solved = _solve_composition(seconds.values(), normalized)
        components = dict(zip(seconds, _compose(solved, back, out_ctx)))
    return PdeSystem(n, order, components)


@per_model
def derive_associated_system(obj) -> PdeSystem:
    """The second-order system solved by a model's theta or by Q.

    Deriving to order d needs the series to order d + 2.  The elimination
    normalizes the linear part of (Q, Q_x) in the parameters by the
    inverse of a model's Levi matrix, or of a fundamental solution's
    fundamental matrix, at 0, so it reads the memoized Levi minors,
    ``minors(obj)``: a fundamental solution built them at construction,
    and a model builds them here when nothing has yet; their check is the
    Levi check, and a degenerate model raises LeviDegenerateError there.
    A (Q, Q_x) that does not vanish at the origin raises ValueError.
    """
    return _eliminate(*_roles(obj), minors(obj))


recover_system_from_solution = derive_associated_system


def _total_derivatives(system: PdeSystem, g: TruncatedSeries, firsts, ks) -> dict:
    """{k: D_k g for k in ks}, given ``firsts``, g's partials in yx1..yxn,
    and forming g's y-partial once; the products of each D_k g are summed
    in one pass of the product loop.  A zero g has every total zero at
    g.order - 1, the order the formula gives, and ``firsts`` is not read."""
    dy = g.partial("y")
    if g.is_zero():
        return dict.fromkeys(ks, dy)
    dyx = [(l, d) for l, d in enumerate(firsts, 1) if not d.is_zero()]
    return {k: g.partial(f"x{k}") + _sum_of_products(system.context, g.order, [
        (1, TruncatedSeries.variable(system.context, g.order, f"yx{k}"), dy),
        *((1, system.component(k, l), d) for l, d in dyx)]) for k in ks}


def total_derivative(system: PdeSystem, k: int, g: TruncatedSeries) -> TruncatedSeries:
    """D_k g = dg/dx^k + y_{x^k} dg/dy + sum_l F_{k,l} dg/d(y_{x^l}).

    The one-k call of ``_total_derivatives``.
    """
    if not 1 <= k <= system.n:
        raise ValueError(f"index {k} out of range 1..{system.n}")
    if g.context != system.context:
        raise ValueError("g must live in the system's jet context")
    firsts = [g.partial(f"yx{l}") for l in range(1, system.n + 1)]
    return _total_derivatives(system, g, firsts, [k])[k]


@dataclass(frozen=True)
class IntegrabilityReport:
    ok: bool
    checked_order: int
    failures: tuple  # of (k1, k2, k3, monomial_text, discrepancy)


def check_complete_integrability(system: PdeSystem) -> IntegrabilityReport:
    """Verify D_{k3} F_{k1,k2} == D_{k2} F_{k1,k3} for all index triples.

    Each stored component F_{i,j} is differentiated once in y, by one
    ``_total_derivatives`` call that forms D_k F_{i,j} for every k but
    k = i = j: since k2 < k3, no triple reads D_k F_{k,k}.  Its y_x-partials
    are the system's memoized ones, which the flatness tensor reads too.
    The triples read that table.
    """
    failures = []
    checked = system.order - 1
    partials = system._yx_partials
    totals = {(i, j): _total_derivatives(system, system.component(i, j), partials.get((i, j)),
                                         [k for k in range(1, system.n + 1) if not i == j == k])
              for i, j in system.component_keys()}
    for k1 in range(1, system.n + 1):
        for k2 in range(1, system.n + 1):
            for k3 in range(k2 + 1, system.n + 1):
                diff = (totals[min(k1, k2), max(k1, k2)][k3]
                        - totals[min(k1, k3), max(k1, k3)][k2])
                if diff.is_zero():
                    continue
                exps, coeff = diff.first_term()
                failures.append((k1, k2, k3, diff.monomial_text(exps), coeff))
    return IntegrabilityReport(not failures, checked, tuple(failures))


fundamental_minors = minors


def jet_transfer_second(sol, t: TruncatedSeries, l1: int, l2: int) -> TruncatedSeries:
    """Second y_x-derivative of the (x, y, y_x)-counterpart of t, in (x, a, b).

    For T(x, a, b) corresponding to G(x, y, y_x) under y = Q, y_x = Q_x,
    computes d^2 G / d(y_{x^l1}) d(y_{x^l2}) expressed back in (x, a, b):
    the chain-rule transfer (``MinorFamily.transfer``) of T along the
    unit-minor fields of the fundamental determinant box of Q, over box^3.
    This reads one entry of the transfer table; a caller who needs every
    (l1, l2) calls ``fundamental_minors(sol).transfer(t)`` once instead.
    A model is accepted as its own fundamental solution Q = theta, if it
    is Levi-nondegenerate.
    """
    n = sol.n
    if not (1 <= l1 <= n and 1 <= l2 <= n):
        raise ValueError(f"indices {(l1, l2)} out of range 1..{n}")
    if t.context != _roles(sol)[0].context:
        raise ValueError("t must live in the (x, a, b) context of Q")
    entry = minors(sol).transfer(t)[(min(l1, l2), max(l1, l2))]
    # an exactly-zero entry keeps its own order, which may be box's
    return entry if entry.is_zero() else entry * _inverse_box_cubed(sol)


@per_model
def _inverse_box_cubed(sol) -> TruncatedSeries:
    """box^-3 for the fundamental determinant box of Q, at box.order - 1:
    a nonzero transfer entry has order min(box.order - 1, t.order - 2),
    so a product with it drops every degree above."""
    box = minors(sol).delta
    inv_box = box.truncate(box.order - 1).invert_unit()
    return inv_box * inv_box * inv_box
