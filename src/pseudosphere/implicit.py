"""Formal implicit solving by Newton-Hensel lifting.

Given equations E_i(p, u) = t_i whose left sides vanish at the origin
and whose Jacobian in the unknowns u is invertible there, there is a
unique tuple of formal series u(p, t) with u(0) = 0 solving the system.
The targets t_i are fresh variables of the solution's context (p, t),
none of the equations': the equations are composed in their own context
(p, u), and each step subtracts t_i from residual i.  The targets do not
enter J = dE/du.  With no targets this is E(p, u) = 0, solved for u(p).

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
above N.  The precisions run 1, ..., floor(n/4), floor(n/2), n, and each
satisfies N <= 2k + 1 over the one before, so a solve to order n
evaluates each equation floor(log2 n) + 1 times.

J^-1 is the adjugate of J, the transposed cofactor table, over det J, a
unit exactly when J is invertible at the origin.  Both are polynomials in
the entries of J(p, u), and composition is a ring homomorphism, so
det J(u) and the cofactors of J(u) are det J and the cofactors of J
composed with the iterate.  One table (det J, cofactors) in (p, u) is
therefore built per solve and composed with the iterate at each step, cut
to degree M first; no matrix is expanded per step.  A caller that holds
the table already hands it over: the elimination of the parameters of a
fundamental solution reads the Levi minors (``pde``).  Otherwise the one
expansion of the partials dE_i/du_j, through the largest M of the solve,
n - n//2 - 1, builds it.  A step whose M equals the previous step's
reuses that J^-1: it was built from the iterate's terms of degree
<= M <= k, which no later step changes.

Each step is one walk of ``series._compose``: the equations and, when
J^-1 is renewed, det J and the cofactors that are not zero through
degree M, under one assignment of the iterate to the unknowns.  The
parameters p pass through by name, so the walk covers the unknowns
alone: a monomial's p exponents shift the keys of its unknowns' image,
and monomials that differ only in p, or that the equations and the table
share, share that image.  A cofactor that is zero through degree M stays
absent from J^-1: it forms no product with det^-1, and no update reads
it.  The update sum_i (J^-1)_ji E_i of unknown j is one call of the
product loop ``series._products`` on its products with a nonzero entry
and a nonzero residual, one per equation at most, summed into one
accumulator and normalized once, and the iterate less that update is
one call of the weighted-sum loop ``series._combination``; with none,
the iterate is kept.

The order stays sound: the iterate is a polynomial, so its residual is
exact at any order, and the result claims order n only after the last
step has made it agree with u* through degree n.
"""

from __future__ import annotations

from .errors import SingularJacobianError
from .matrices import SeriesMatrix
from .series import TruncatedSeries, VariableContext, _combination, _compose, _product, _products


def _context(equations):
    """The one context of a nonempty list of equations."""
    if not equations:
        raise ValueError("no equations to solve")
    ctx = equations[0].context
    for eq in equations:
        if eq.context is not ctx and eq.context != ctx:
            raise ValueError("equations live in different contexts")
    return ctx


def solve_formal_system(equations, unknowns):
    """Solve E_i(p, u) = 0 for the unknowns as series in the parameters.

    ``equations`` share one context that contains every name in
    ``unknowns``; the remaining context variables are the parameters.
    Returns {unknown: series in the parameter context}, guaranteed to the
    lowest order among the equations.
    """
    return _newton(equations, unknowns)


def _newton(equations, unknowns, jacobian=None, targets=()):
    """Solve E_i(p, u) = t_i for u as series in (p, t), the parameters
    followed by ``targets``, one fresh name per equation or none at all.

    J^-1 is read from ``jacobian``, the pair (det J, cofactor table of J)
    of ``SeriesMatrix.cofactors`` for J = dE/du in the equations' context,
    whose names other than the unknowns are parameters, passed through by
    name; each must hold the degrees through n - n//2 - 1.  None builds
    the table from the equations."""
    equations = list(equations)
    unknowns = list(unknowns)
    if len(equations) != len(unknowns):
        raise ValueError(
            f"{len(equations)} equations for {len(unknowns)} unknowns"
        )
    if len(set(unknowns)) != len(unknowns):
        raise ValueError(f"repeated unknown names in {unknowns}")
    ctx = _context(equations)
    for u in unknowns:
        ctx.index(u)

    params = [name for name in ctx.names if name not in set(unknowns)]
    out_ctx = VariableContext(params + list(targets))

    n = min(eq.order for eq in equations)
    for i, eq in enumerate(equations):
        if eq.constant_term():
            raise ValueError(f"equation {i} does not vanish at the origin")

    if jacobian is None:
        # dE_i/du_j through the largest degree of J^-1 needed; at n = 0
        # there is no linear part, and ``partial`` raises InsufficientOrderError
        cut = n - n // 2
        jacobian = SeriesMatrix(
            [[eq.truncate(cut).partial(u) for u in unknowns] for eq in equations]
        ).cofactors()
    det, cofactor = jacobian
    if not det.constant_term():
        raise SingularJacobianError(
            "constant Jacobian in the unknowns is singular at the origin"
        )
    size = len(unknowns)
    precisions = [n >> s for s in reversed(range(n.bit_length()))]  # 1, ..., n//2, n

    # the iterates as (denominator, grades) storages, exact through degree k
    iterate = [(1, {}) for _ in unknowns]
    k = 0
    low = None  # the degree through which ``inverse`` holds J^-1
    for top in precisions:
        point = {u: TruncatedSeries._valid(out_ctx, top, *storage)
                 for u, storage in zip(unknowns, iterate)}
        walked = list(equations)
        renew = top - k - 1 != low
        if renew:
            low = top - k - 1
            # det, then the cofactors that are not zero through degree low
            entries = [(key, c.truncate(low)) for key, c in cofactor.items()]
            entries = [(key, c) for key, c in entries if c._grades]
            walked += [det.truncate(low)] + [c for _, c in entries]
        images = _compose(walked, point, out_ctx)
        residuals = images[:size]
        for i, t in enumerate(targets):
            residuals[i] = residuals[i] - TruncatedSeries.variable(out_ctx, top, t)
        if renew:
            det_inv = images[size].invert_unit()
            # J^-1 is the adjugate, the transposed cofactor table, over det
            # J: inverse[j] holds (i, its entry (j, i)) for each cofactor
            # (i, j) that is not zero
            inverse = [[] for _ in unknowns]
            for ((i, j), _), c in zip(entries, images[size + 1:]):
                if c._grades:
                    inverse[j].append((i, _product(det_inv._den, det_inv._grades,
                                                   c._den, c._grades, low)))
        for j, storage in enumerate(iterate):
            step = [(1, *entry, r._den, r._grades)
                    for i, entry in inverse[j] if (r := residuals[i])._grades]
            if step:
                iterate[j] = _combination([(1, *storage), (-1, *_products(step, top))], top)
        k = top

    return {u: TruncatedSeries._valid(out_ctx, n, *storage)
            for u, storage in zip(unknowns, iterate)}


def solve_implicit(system, unknowns, targets):
    """Solve system_i(p, u) = t_i for u as series in (p, targets).

    ``system`` is a list of series in a context made of parameters and
    unknowns; ``targets`` are fresh variable names, one per equation.
    The i-th equation pins the i-th target; an unknown outside the
    system's context raises UnknownVariableError.  Preconditions: the
    system components vanish at the origin and the Jacobian in the
    unknowns is invertible there.  The returned series satisfy the
    system identically to the guaranteed order, the system's lowest,
    which makes the round trip

        system_i(p, u(p, t)) == t_i

    an exact identity through that order.
    """
    system = list(system)
    targets = list(targets)
    if len(system) != len(targets):
        raise ValueError(f"{len(system)} equations for {len(targets)} targets")
    ctx = _context(system)
    for t in targets:
        if t in ctx:
            raise ValueError(f"target name {t!r} already used in the context")
    return _newton(system, unknowns, targets=targets)
