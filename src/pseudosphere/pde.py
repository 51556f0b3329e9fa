"""Completely integrable second-order PDE systems and their geometry.

The systems handled here are symmetric families y_{x^k1 x^k2} =
F_{k1,k2}(x, y, y_x) in n >= 2 independent variables.  A fundamental
solution Q(x, a, b) determines the system it solves: eliminating the
parameters (a, b) from {y = Q, y_x = Q_x} gives F.  A hypersurface
model's theta is its own fundamental solution, with (x, a, b) =
(z, zb, wb), so its associated system is the same elimination; one
private kernel does it for both.  The jet-transfer helper rewrites
second derivatives with respect to the y_x variables as exact
expressions in the (x, a, b) chart via Cramer minors of the fundamental
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RankConditionError
from .hypersurface import HypersurfaceModel, minors, per_model
from .implicit import solve_implicit
from .matrices import MinorFamily, jacobian_minor_family, scalar_determinant
from .series import TruncatedSeries, VariableContext


def pde_context(n: int) -> VariableContext:
    names = [f"x{k}" for k in range(1, n + 1)]
    names.append("y")
    names += [f"yx{k}" for k in range(1, n + 1)]
    return VariableContext(names)


def fundamental_context(n: int) -> VariableContext:
    names = [f"x{k}" for k in range(1, n + 1)]
    names += [f"a{k}" for k in range(1, n + 1)]
    names.append("b")
    return VariableContext(names)


class PdeSystem:
    """Symmetric family F_{k1,k2} of series in (x1..xn, y, yx1..yxn).

    Components are stored once per unordered index pair; the accessor
    symmetrizes.  Unspecified pairs default to zero.
    """

    def __init__(self, n: int, order: int, components):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        self.n = n
        self.order = order
        self.context = pde_context(n)
        stored = {}
        for (k1, k2), series in components.items():
            if not (1 <= k1 <= n and 1 <= k2 <= n):
                raise ValueError(f"component index {(k1, k2)} out of range")
            if series.context != self.context:
                raise ValueError(
                    f"component {(k1, k2)} must live in {self.context.names}"
                )
            key = (min(k1, k2), max(k1, k2))
            if key in stored:
                if not (stored[key] - series).is_zero():
                    raise ValueError(f"conflicting values for component {key}")
            else:
                stored[key] = series.truncate(min(order, series.order))
        zero = TruncatedSeries.zero(self.context, order)
        for k1 in range(1, n + 1):
            for k2 in range(k1, n + 1):
                stored.setdefault((k1, k2), zero)
        self._components = stored

    def component(self, k1: int, k2: int) -> TruncatedSeries:
        return self._components[(min(k1, k2), max(k1, k2))]

    def component_keys(self):
        return sorted(self._components)

    def __repr__(self):
        return f"<PdeSystem n={self.n} order={self.order}>"


@dataclass(frozen=True)
class FundamentalSolution:
    """A graphing series Q(x, a, b) whose x-jet map has full rank at 0.

    ``normalized`` records whether Q(0,a,b) = -b and dQ/dx^k(0,a,b) = a^k
    hold exactly, i.e. whether the parameters are the standard initial
    conditions.  The rank condition itself is mandatory.  Objects derived
    from Q by the ``per_model`` functions are kept in the memo, as for a
    ``HypersurfaceModel``.
    """

    n: int
    q: TruncatedSeries
    normalized: bool = field(init=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        ctx = fundamental_context(self.n)
        if self.q.context != ctx:
            raise ValueError(f"Q must live in context {ctx.names}")
        a_names = [f"a{k}" for k in range(1, self.n + 1)] + ["b"]
        rows = [self.q] + [self.q.partial(f"x{k}") for k in range(1, self.n + 1)]
        jac = [[row.coefficient_of(**{a: 1}) for a in a_names] for row in rows]
        if not scalar_determinant(jac):
            raise RankConditionError(
                "the map (a, b) -> (Q, Q_x)(0, a, b) is rank-deficient at 0"
            )
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


def _eliminate(q: TruncatedSeries, x_names, parameters) -> PdeSystem:
    """The second-order system solved by the family y = q(x, parameters).

    Solves {y = q, y_{x^k} = q_{x^k}} for the parameters as series in
    (x, y, y_x), substitutes them into the pure second derivatives
    q_{x^k1 x^k2} in the solver's own context, and renames the result
    into ``pde_context(n)``.  The caller guarantees that the constant
    Jacobian of (q, q_x) in the parameters is invertible.  Deriving to
    order d needs q to order d + 2.
    """
    n = len(x_names)
    system = [q] + [q.partial(x) for x in x_names]
    targets = ["y"] + [f"yx{k}" for k in range(1, n + 1)]
    solution = solve_implicit(system, parameters, targets)
    jet_ctx = solution[parameters[-1]].context  # (x1..xn, y, yx1..yxn)
    out_ctx = pde_context(n)
    order = q.order - 2
    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            second = q.partial(x_names[k1 - 1]).partial(x_names[k2 - 1])
            f = second.substitute(solution, target_context=jet_ctx)
            components[(k1, k2)] = f.truncate(min(order, f.order)).rename_context(out_ctx)
    return PdeSystem(n, order, components)


@per_model
def derive_associated_system(model: HypersurfaceModel) -> PdeSystem:
    """The second-order system attached to a Levi-nondegenerate model.

    theta is its own fundamental solution with (x, a, b) = (z, zb, wb):
    eliminating (zb, wb) from {w = theta, w_{z_k} = theta_{z_k}} gives the
    system in (x, y, y_x).  Deriving to order d needs theta to order d + 2.
    """
    n = model.n
    minors(model)  # raises LeviDegenerateError when delta(0) = 0
    z_names = [f"z{k}" for k in range(1, n + 1)]
    return _eliminate(model.theta, z_names, [f"{z}b" for z in z_names] + ["wb"])


def total_derivative(system: PdeSystem, k: int, g: TruncatedSeries) -> TruncatedSeries:
    """D_k g = dg/dx^k + y_{x^k} dg/dy + sum_l F_{k,l} dg/d(y_{x^l})."""
    if not 1 <= k <= system.n:
        raise ValueError(f"index {k} out of range 1..{system.n}")
    if g.context != system.context:
        raise ValueError("g must live in the system's jet context")
    ctx = system.context
    order = g.order - 1
    out = g.partial(f"x{k}")
    out = out + TruncatedSeries.variable(ctx, order, f"yx{k}") * g.partial("y")
    for l in range(1, system.n + 1):
        dg = g.partial(f"yx{l}")
        if dg.is_zero():
            continue
        out = out + system.component(k, l) * dg
    return out


@dataclass(frozen=True)
class IntegrabilityReport:
    ok: bool
    checked_order: int
    failures: tuple  # of (k1, k2, k3, monomial_text, discrepancy)


def check_complete_integrability(system: PdeSystem) -> IntegrabilityReport:
    """Verify D_{k3} F_{k1,k2} == D_{k2} F_{k1,k3} for all index triples."""
    failures = []
    checked = system.order - 1
    for k1 in range(1, system.n + 1):
        for k2 in range(1, system.n + 1):
            for k3 in range(k2 + 1, system.n + 1):
                lhs = total_derivative(system, k3, system.component(k1, k2))
                rhs = total_derivative(system, k2, system.component(k1, k3))
                diff = lhs - rhs
                if diff.is_zero():
                    continue
                exps, coeff = diff.first_term()
                failures.append((k1, k2, k3, diff.monomial_text(exps), coeff))
    return IntegrabilityReport(not failures, checked, tuple(failures))


@per_model
def recover_system_from_solution(sol: FundamentalSolution) -> PdeSystem:
    """Recover the system a fundamental solution solves.

    Solves {y = Q, y_{x^k} = Q_{x^k}} for (a, b) as series in (x, y, y_x)
    and substitutes into the pure second derivatives of Q.
    """
    n = sol.n
    return _eliminate(sol.q, [f"x{k}" for k in range(1, n + 1)],
                      [f"a{k}" for k in range(1, n + 1)] + ["b"])


@per_model
def fundamental_minors(sol: FundamentalSolution) -> MinorFamily:
    """The fundamental determinant of Q and all of its Cramer minors."""
    n = sol.n
    x_names = [f"x{k}" for k in range(1, n + 1)]
    a_names = [f"a{k}" for k in range(1, n + 1)] + ["b"]
    return jacobian_minor_family(sol.q, x_names, a_names)


def jet_transfer_second(sol: FundamentalSolution, t: TruncatedSeries,
                        l1: int, l2: int) -> TruncatedSeries:
    """Second y_x-derivative of the (x, y, y_x)-counterpart of t, in (x, a, b).

    For T(x, a, b) corresponding to G(x, y, y_x) under y = Q, y_x = Q_x,
    computes d^2 G / d(y_{x^l1}) d(y_{x^l2}) expressed back in (x, a, b):
    the Cramer transfer (``MinorFamily.transfer``) of T through the minors
    of the fundamental determinant box of Q, divided by box^3.  This reads
    one entry of the transfer table; a caller who needs every (l1, l2)
    calls ``fundamental_minors(sol).transfer(t)`` once instead.
    """
    n = sol.n
    if not (1 <= l1 <= n and 1 <= l2 <= n):
        raise ValueError(f"indices {(l1, l2)} out of range 1..{n}")
    if t.context != sol.q.context:
        raise ValueError("t must live in the (x, a, b) context of Q")
    entry = fundamental_minors(sol).transfer(t)[(min(l1, l2), max(l1, l2))]
    return entry * _inverse_box_cubed(sol)


@per_model
def _inverse_box_cubed(sol: FundamentalSolution) -> TruncatedSeries:
    """box^-3 for the fundamental determinant box of Q."""
    inv_box = fundamental_minors(sol).delta.invert_unit()
    return inv_box * inv_box * inv_box
