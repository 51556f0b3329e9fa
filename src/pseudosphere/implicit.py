"""Degree-by-degree formal implicit solving.

Given equations E_i(p, u) = 0 whose constant terms vanish and whose
Jacobian in the unknowns u is invertible at the origin, there is a unique
tuple of formal series u(p) with u(0) = 0 solving the system.  Each pass
kills the lowest remaining degree of the residual with one exact linear
solve against the constant Jacobian, so correctness needs no analysis
beyond induction on the degree.
"""

from __future__ import annotations

from .errors import SingularJacobianError
from .matrices import invert_scalar_matrix
from .scalars import ZERO
from .series import TruncatedSeries, VariableContext


def solve_formal_system(equations, unknowns, order=None):
    """Solve E_i(p, u) = 0 for the unknowns as series in the parameters.

    ``equations`` share one context that contains every name in
    ``unknowns``; the remaining context variables are the parameters.
    Returns {unknown: series in the parameter context}.
    """
    equations = list(equations)
    unknowns = list(unknowns)
    if len(equations) != len(unknowns):
        raise ValueError(
            f"{len(equations)} equations for {len(unknowns)} unknowns"
        )
    ctx = equations[0].context
    for eq in equations:
        if eq.context != ctx:
            raise ValueError("equations live in different contexts")
    for u in unknowns:
        ctx.index(u)

    params = [name for name in ctx.names if name not in set(unknowns)]
    out_ctx = VariableContext(params)

    n = min(eq.order for eq in equations)
    if order is not None:
        n = min(n, order)

    for i, eq in enumerate(equations):
        if eq.constant_term():
            raise ValueError(f"equation {i} does not vanish at the origin")

    jac = [[eq.coefficient_of(**{u: 1}) for u in unknowns] for eq in equations]
    try:
        jac_inv = invert_scalar_matrix(jac)
    except SingularJacobianError:
        raise SingularJacobianError(
            "constant Jacobian in the unknowns is singular at the origin"
        ) from None

    solution = {u: TruncatedSeries.zero(out_ctx, n) for u in unknowns}

    for degree in range(1, n + 1):
        assignment = {u: solution[u].truncate(degree) for u in unknowns}
        residual_parts = []
        for eq in equations:
            r = eq.truncate(degree).substitute(assignment, target_context=out_ctx)
            residual_parts.append(r.homogeneous_part(degree))
        if not any(residual_parts):
            continue
        for j, u in enumerate(unknowns):
            correction = {}
            for i, part in enumerate(residual_parts):
                factor = jac_inv[j][i]
                if not factor or not part:
                    continue
                for exps, coeff in part.items():
                    acc = correction.get(exps, ZERO) - factor * coeff
                    if acc:
                        correction[exps] = acc
                    else:
                        correction.pop(exps, None)
            if correction:
                merged = dict(solution[u].terms)
                for exps, coeff in correction.items():
                    acc = merged.get(exps, ZERO) + coeff
                    if acc:
                        merged[exps] = acc
                    else:
                        merged.pop(exps, None)
                solution[u] = TruncatedSeries(out_ctx, n, merged)

    return solution


def solve_implicit(system, unknowns, targets, order=None):
    """Solve system_i(p, u) = t_i for u as series in (p, targets).

    ``system`` is a list of series in a context made of parameters and
    unknowns; ``targets`` are fresh variable names, one per equation.
    The i-th equation pins the i-th target.  Preconditions: the system
    components vanish at the origin and the Jacobian in the unknowns is
    invertible there.  The returned series satisfy the system identically
    to the guaranteed order, which makes the round trip

        system_i(p, u(p, t)) == t_i

    an exact identity through that order.
    """
    system = list(system)
    unknowns = list(unknowns)
    targets = list(targets)
    if len(system) != len(targets):
        raise ValueError(f"{len(system)} equations for {len(targets)} targets")
    ctx = system[0].context
    for t in targets:
        if t in ctx:
            raise ValueError(f"target name {t!r} already used in the context")

    n = min(eq.order for eq in system)
    if order is not None:
        n = min(n, order)

    params = [name for name in ctx.names if name not in set(unknowns)]
    ext_ctx = VariableContext(params + targets + unknowns)
    equations = []
    for eq, t in zip(system, targets):
        lifted = eq.truncate(n).substitute({}, target_context=ext_ctx)
        equations.append(lifted - TruncatedSeries.variable(ext_ctx, n, t))
    return solve_formal_system(equations, unknowns, order=n)
