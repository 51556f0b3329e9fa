"""Formal implicit solving by Newton-Hensel lifting.

Given equations E_i(p, u) = 0 whose constant terms vanish and whose
Jacobian in the unknowns u is invertible at the origin, there is a unique
tuple of formal series u(p) with u(0) = 0 solving the system.

The solver lifts the precision by Newton's method with precision
doubling (Brent & Kung, "Fast algorithms for manipulating formal power
series", J. ACM 25, 1978).  Let the polynomial iterate u agree with the
solution u* through degree k.  Then the residual E(u) has valuation at
least k + 1, and the step

    u  ->  u - J(u)^-1 E(u),    J = dE/du,

agrees with u* through degree 2k + 1, because its error is quadratic in
u - u*.  A step from k to N <= 2k + 1 therefore needs E(u) only through
degree N and J^-1 only through degree M = N - k - 1: every product with
E(u) adds at least k + 1 to the degree, so what J^-1 holds above M lands
above N.  J^-1 is the adjugate of J (one cofactor table) over its
determinant, a unit; for M = 0 it is the constant inverse at the origin.
The precisions run 1, ..., floor(n/4), floor(n/2), n, and each satisfies
N <= 2k + 1 over the one before, so a solve to order n evaluates each
equation floor(log2 n) + 1 times.

The order stays sound: the iterate is a polynomial, so its residual is
exact at any order, and the result claims order n only after the last
step has made it agree with u* through degree n.
"""

from __future__ import annotations

from .errors import SingularJacobianError
from .matrices import SeriesMatrix, invert_scalar_matrix
from .series import TruncatedSeries, VariableContext, _add_into, _product_terms


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

    precisions = [n >> s for s in reversed(range(n.bit_length()))]  # 1, ..., n//2, n

    size = len(unknowns)
    origin = (0,) * out_ctx.arity
    iterate = [{} for _ in unknowns]  # term dicts, exact through degree k
    partials = None  # dE_i/du_j, None where identically zero
    k = 0
    for top in precisions:
        point = {u: TruncatedSeries._valid(out_ctx, top, terms)
                 for u, terms in zip(unknowns, iterate)}
        residuals = [eq.substitute(point, target_context=out_ctx).terms
                     for eq in equations]
        low = top - k - 1  # the degree through which J^-1 is needed
        if low == 0:
            inverse = [[{origin: x} if x else {} for x in row] for row in jac_inv]
        else:
            if partials is None:
                # the last step needs J through the largest low, n - n//2 - 1
                cut = n - n // 2
                partials = [[d if d.terms else None
                             for d in (eq.truncate(cut).partial(u) for u in unknowns)]
                            for eq in equations]
            point = {u: TruncatedSeries._valid(
                         out_ctx, low, {e: c for e, c in terms.items() if sum(e) <= low})
                     for u, terms in zip(unknowns, iterate)}
            zero = TruncatedSeries.zero(out_ctx, low)
            det, cofactor = SeriesMatrix(
                [[zero if d is None else d.substitute(point, target_context=out_ctx)
                  for d in row] for row in partials]
            ).cofactors()
            det_inv = det.invert_unit().terms
            # J^-1 is the adjugate, the transposed cofactor table, over det J
            inverse = [[_product_terms(det_inv, cofactor[(i, j)].terms, low)
                        for i in range(size)] for j in range(size)]
        for j, terms in enumerate(iterate):
            correction = {}
            for i, r in enumerate(residuals):
                if r and inverse[j][i]:
                    _add_into(correction, _product_terms(inverse[j][i], r, top))
            # the correction starts at degree k + 1, past every iterate term
            terms.update((e, -c) for e, c in correction.items())
        k = top

    return {u: TruncatedSeries._valid(out_ctx, n, terms)
            for u, terms in zip(unknowns, iterate)}


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
