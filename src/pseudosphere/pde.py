"""Completely integrable second-order PDE systems and their geometry.

The systems handled here are symmetric families y_{x^k1 x^k2} =
F_{k1,k2}(x, y, y_x) in n >= 2 independent variables.  A hypersurface
model induces one by eliminating the conjugate variables from its
defining equation; conversely a fundamental solution Q(x, a, b) recovers
the system it solves.  The jet-transfer helper rewrites second
derivatives with respect to the y_x variables as exact expressions in
the (x, a, b) chart via Cramer minors of the fundamental determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    LeviDegenerateError,
    RankConditionError,
    SingularJacobianError,
)
from .hypersurface import HypersurfaceModel, minors, per_model
from .implicit import solve_implicit
from .matrices import MinorFamily, jacobian_minor_family
from .scalars import ONE, gaussian
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
    conditions.  The rank condition itself is mandatory.
    """

    n: int
    q: TruncatedSeries
    normalized: bool = field(init=False)

    def __post_init__(self):
        ctx = fundamental_context(self.n)
        if self.q.context != ctx:
            raise ValueError(f"Q must live in context {ctx.names}")
        a_names = [f"a{k}" for k in range(1, self.n + 1)] + ["b"]
        jac = []
        first = self.q
        rows = [first] + [self.q.partial(f"x{k}") for k in range(1, self.n + 1)]
        for row_series in rows:
            row = []
            for a in a_names:
                exps = [0] * ctx.arity
                exps[ctx.index(a)] = 1
                row.append(row_series.coefficient(exps))
            jac.append(row)
        from .matrices import scalar_determinant

        if not scalar_determinant(jac):
            raise RankConditionError(
                "the map (a, b) -> (Q, Q_x)(0, a, b) is rank-deficient at 0"
            )
        object.__setattr__(self, "normalized", self._is_normalized())

    def _is_normalized(self) -> bool:
        ctx = self.q.context
        n = self.n
        x_positions = [ctx.index(f"x{k}") for k in range(1, n + 1)]
        for exps, coeff in self.q.terms.items():
            x_degree = sum(exps[i] for i in x_positions)
            if x_degree >= 2:
                continue
            expected = None
            if x_degree == 0:
                b_exps = [0] * ctx.arity
                b_exps[ctx.index("b")] = 1
                if exps == tuple(b_exps) and coeff == gaussian(-1):
                    continue
            else:
                for k in range(1, n + 1):
                    lin = [0] * ctx.arity
                    lin[ctx.index(f"x{k}")] = 1
                    lin[ctx.index(f"a{k}")] = 1
                    if exps == tuple(lin) and coeff == ONE:
                        expected = True
                        break
                if expected:
                    continue
            return False
        return True

    @property
    def order(self) -> int:
        return self.q.order


@per_model
def derive_associated_system(model: HypersurfaceModel) -> PdeSystem:
    """The second-order system attached to a Levi-nondegenerate model.

    Solves {w = theta, w_{z_k} = theta_{z_k}} for (zb, wb) as series in
    (z, w, w_z) and substitutes into the pure second derivatives
    theta_{z_k1 z_k2}; the result is renamed into (x, y, y_x).  Deriving
    to order d needs theta to order d + 2.
    """
    n = model.n
    theta = model.theta
    minors(model)  # raises LeviDegenerateError when delta(0) = 0

    system = [theta] + [theta.partial(f"z{k}") for k in range(1, n + 1)]
    unknowns = [f"z{k}b" for k in range(1, n + 1)] + ["wb"]
    targets = ["w"] + [f"wz{k}" for k in range(1, n + 1)]
    try:
        solution = solve_implicit(system, unknowns, targets)
    except SingularJacobianError as exc:
        raise LeviDegenerateError(str(exc)) from exc

    jet_ctx = solution["wb"].context  # (z1..zn, w, wz1..wzn)
    assignment = {name: solution[name] for name in unknowns}
    out_ctx = pde_context(n)
    order = model.order - 2
    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            second = theta.partial(f"z{k1}").partial(f"z{k2}")
            phi = second.substitute(assignment, target_context=jet_ctx)
            components[(k1, k2)] = phi.truncate(min(order, phi.order)).rename_context(out_ctx)
    return PdeSystem(n, order, components)


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
                exps = min(diff.terms, key=lambda e: (sum(e), e))
                failures.append(
                    (k1, k2, k3, diff.monomial_text(exps), diff.terms[exps])
                )
    return IntegrabilityReport(not failures, checked, tuple(failures))


def recover_system_from_solution(sol: FundamentalSolution) -> PdeSystem:
    """Recover the system a fundamental solution solves.

    Solves {y = Q, y_{x^k} = Q_{x^k}} for (a, b) as series in (x, y, y_x)
    and substitutes into the pure second derivatives of Q.
    """
    n = sol.n
    q = sol.q
    system = [q] + [q.partial(f"x{k}") for k in range(1, n + 1)]
    unknowns = [f"a{k}" for k in range(1, n + 1)] + ["b"]
    targets = ["y"] + [f"yx{k}" for k in range(1, n + 1)]
    try:
        solution = solve_implicit(system, unknowns, targets)
    except SingularJacobianError as exc:
        raise RankConditionError(str(exc)) from exc

    raw_ctx = solution["b"].context  # (x1..xn, y, yx1..yxn)
    out_ctx = pde_context(n)
    assignment = {
        name: solution[name].rename_context(out_ctx) for name in unknowns
    }
    order = q.order - 2
    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            second = q.partial(f"x{k1}").partial(f"x{k2}")
            f = second.substitute(assignment, target_context=out_ctx)
            components[(k1, k2)] = f.truncate(min(order, f.order))
    return PdeSystem(n, order, components)


def fundamental_minors(sol: FundamentalSolution) -> MinorFamily:
    """The fundamental determinant of Q and all of its Cramer minors."""
    n = sol.n
    x_names = [f"x{k}" for k in range(1, n + 1)]
    a_names = [f"a{k}" for k in range(1, n + 1)] + ["b"]
    return jacobian_minor_family(sol.q, x_names, a_names)


def jet_transfer_second(sol: FundamentalSolution, t: TruncatedSeries,
                        l1: int, l2: int,
                        minors: MinorFamily | None = None) -> TruncatedSeries:
    """Second y_x-derivative of the (x, y, y_x)-counterpart of t, in (x, a, b).

    For T(x, a, b) corresponding to G(x, y, y_x) under y = Q, y_x = Q_x,
    computes d^2 G / d(y_{x^l1}) d(y_{x^l2}) expressed back in (x, a, b):
    the Cramer transfer (``MinorFamily.transfer``) of T through the minors
    of the fundamental determinant box of Q, divided by box^3.
    """
    n = sol.n
    if not (1 <= l1 <= n and 1 <= l2 <= n):
        raise ValueError(f"indices {(l1, l2)} out of range 1..{n}")
    if t.context != sol.q.context:
        raise ValueError("t must live in the (x, a, b) context of Q")
    if minors is None:
        minors = fundamental_minors(sol)
    box = minors.delta
    if not box.constant_term():
        raise RankConditionError("fundamental determinant vanishes at the origin")
    inv_box = box.invert_unit()
    return minors.transfer(t)(l1, l2) * (inv_box * inv_box * inv_box)
