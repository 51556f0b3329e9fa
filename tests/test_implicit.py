"""Formal implicit solving: hand-checked models and round-trip identities."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import pseudosphere as ps
import pseudosphere.implicit as implicit_module
from pseudosphere import SeriesMatrix, TruncatedSeries, VariableContext
from pseudosphere.errors import InsufficientOrderError, SingularJacobianError, UnknownVariableError
from pseudosphere.scalars import ONE, ZERO

from conftest import COEFF_POOL, heisenberg_theta, random_gaussian, random_series

CTX = VariableContext(("z1", "z2", "z1b", "z2b", "wb"))


def test_flat_linear_model():
    # solve  w = -wb,  wz_k = z_kb  for (z1b, z2b, wb)
    system = [
        ps.parse_series("-wb", CTX, 6),
        ps.parse_series("z1b", CTX, 6),
        ps.parse_series("z2b", CTX, 6),
    ]
    solution = ps.solve_implicit(system, ["z1b", "z2b", "wb"], ["w", "wz1", "wz2"])
    out_ctx = solution["wb"].context
    assert out_ctx.names == ("z1", "z2", "w", "wz1", "wz2")
    assert solution["z1b"] == ps.parse_series("wz1", out_ctx, 6)
    assert solution["z2b"] == ps.parse_series("wz2", out_ctx, 6)
    assert solution["wb"] == ps.parse_series("-w", out_ctx, 6)


def test_heisenberg_model_solution():
    theta = heisenberg_theta(2, 6)
    system = [theta, theta.partial("z1"), theta.partial("z2")]
    solution = ps.solve_implicit(system, ["z1b", "z2b", "wb"], ["w", "wz1", "wz2"])
    out_ctx = solution["wb"].context
    assert solution["z1b"] == ps.parse_series("wz1", out_ctx, 5)
    assert solution["z2b"] == ps.parse_series("wz2", out_ctx, 5)
    assert solution["wb"] == ps.parse_series("-w + z1*wz1 + z2*wz2", out_ctx, 5)


def test_round_trip_on_heisenberg():
    theta = heisenberg_theta(2, 6)
    system = [theta, theta.partial("z1"), theta.partial("z2")]
    targets = ["w", "wz1", "wz2"]
    solution = ps.solve_implicit(system, ["z1b", "z2b", "wb"], targets)
    out_ctx = solution["wb"].context
    for eq, t in zip(system, targets):
        back = eq.substitute(
            {"z1b": solution["z1b"], "z2b": solution["z2b"], "wb": solution["wb"]},
            target_context=out_ctx,
        )
        assert back.agrees_with(TruncatedSeries.variable(out_ctx, back.order, t))


def test_singular_jacobian_detected():
    system = [
        ps.parse_series("z1b + wb", CTX, 4),
        ps.parse_series("z1b + wb", CTX, 4),
    ]
    with pytest.raises(SingularJacobianError):
        ps.solve_implicit(system, ["z1b", "wb"], ["t1", "t2"])
    # det J = p is a nonzero series, but it vanishes at the origin
    ctx = VariableContext(("p", "u1", "u2"))
    equations = [ps.parse_series("u1 + p*u2", ctx, 4), ps.parse_series("u1 + 2*p*u2", ctx, 4)]
    with pytest.raises(SingularJacobianError, match="singular at the origin"):
        ps.solve_formal_system(equations, ["u1", "u2"])


def test_order_zero_system_rejected():
    # order 0 keeps no linear term, so no Jacobian is there to invert
    ctx = VariableContext(("p", "u"))
    with pytest.raises(InsufficientOrderError):
        ps.solve_formal_system([ps.parse_series("u - p", ctx, 0)], ["u"])
    with pytest.raises(InsufficientOrderError):
        ps.solve_implicit([ps.parse_series("u", ctx, 0)], ["u"], ["t"])


def test_empty_systems_rejected():
    with pytest.raises(ValueError, match="no equations to solve"):
        ps.solve_formal_system([], [])
    with pytest.raises(ValueError, match="no equations to solve"):
        ps.solve_implicit([], [], [])


def test_repeated_unknown_names_rejected():
    # two copies of one unknown would reach the Jacobian as two equal columns
    ctx = VariableContext(("p", "u"))
    eq = ps.parse_series("u + p*u", ctx, 4)
    with pytest.raises(ValueError, match="repeated unknown names"):
        ps.solve_formal_system([eq, eq], ["u", "u"])
    with pytest.raises(ValueError, match="repeated unknown names"):
        ps.solve_implicit([eq, eq], ["u", "u"], ["t1", "t2"])


def test_unknown_outside_the_context_is_named():
    # an unknown the equations do not contain would give the Jacobian a
    # zero column; both solvers name it instead
    eq = ps.parse_series("u + p*u", VariableContext(("p", "u")), 4)
    with pytest.raises(UnknownVariableError, match="'q'"):
        ps.solve_formal_system([eq], ["q"])
    with pytest.raises(UnknownVariableError, match="'q'"):
        ps.solve_implicit([eq], ["q"], ["t"])


def test_implicit_system_in_different_contexts_rejected():
    # each equation is re-indexed by the positions of the first one's context
    one = ps.parse_series("u", VariableContext(("p", "u", "v")), 4)
    other = ps.parse_series("v", VariableContext(("v", "u", "p")), 4)
    with pytest.raises(ValueError, match="different contexts"):
        ps.solve_implicit([one, other], ["u", "v"], ["t1", "t2"])


def test_nonvanishing_equation_rejected():
    system = [ps.parse_series("1 + z1b", CTX, 4)]
    with pytest.raises(ValueError):
        ps.solve_implicit(system, ["z1b"], ["t1"])


def _random_invertible_system(rng, order=5):
    """Two equations in params (p1, p2) and unknowns (u1, u2)."""
    ctx = VariableContext(("p1", "p2", "u1", "u2"))
    while True:
        jac = [[random_gaussian(rng, span=2) for _ in range(2)] for _ in range(2)]
        if jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]:
            break
    system = []
    for i in range(2):
        base = {}
        base[(0, 0, 1, 0)] = jac[i][0]
        base[(0, 0, 0, 1)] = jac[i][1]
        eq = TruncatedSeries(ctx, order, base)
        extra = random_series(rng, ctx, order, max_terms=4, degree=3)
        # strip constant and pure-linear-unknown collisions by shifting degree
        extra = extra * ps.parse_series("p1", ctx, order)
        system.append(eq + extra)
    return ctx, system


def test_round_trip_random_instances(rng):
    for trial in range(20):
        ctx, system = _random_invertible_system(rng)
        solution = ps.solve_implicit(system, ["u1", "u2"], ["t1", "t2"])
        out_ctx = solution["u1"].context
        assert out_ctx.names == ("p1", "p2", "t1", "t2")
        assignment = {"u1": solution["u1"], "u2": solution["u2"]}
        for eq, t in zip(system, ["t1", "t2"]):
            back = eq.substitute(assignment, target_context=out_ctx)
            target = TruncatedSeries.variable(out_ctx, back.order, t)
            assert back.agrees_with(target), f"trial {trial} failed"


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("params", [(), ("p1",), ("p1", "p2")])
def test_solve_implicit_is_the_target_system_in_one_context(params, order):
    # the reference builds system_i - t_i by hand in (p, t, u), where each
    # target is a variable of the equations, and solves that with t as
    # parameters; solve_implicit composes the system in its own (p, u)
    rng = random.Random(100 * order + len(params))
    unknowns, targets = ["u1", "u2"], ["t1", "t2"]
    ctx = VariableContext(list(params) + unknowns)
    ext_ctx = VariableContext(list(params) + targets + unknowns)
    width = len(params)
    while True:
        jac = [[random_gaussian(rng, span=2) for _ in range(2)] for _ in range(2)]
        if jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]:
            break
    system = []
    for i, row in enumerate(jac):
        # random terms of degree 1 to 3, with the linear part in u set to jac
        terms = dict(random_series(rng, ctx, order + i, max_terms=5, degree=3).terms)
        terms.pop((0,) * ctx.arity, None)
        for j, c in enumerate(row):
            terms[(0,) * (width + j) + (1,) + (0,) * (1 - j)] = c
        system.append(TruncatedSeries(ctx, order + i, terms))
    by_hand = [
        TruncatedSeries(ext_ctx, eq.order, {
            exps[:width] + (0, 0) + exps[width:]: c for exps, c in eq.terms.items()
        }) - TruncatedSeries.variable(ext_ctx, eq.order, t)
        for eq, t in zip(system, targets)
    ]
    want = ps.solve_formal_system(by_hand, unknowns)
    got = ps.solve_implicit(system, unknowns, targets)
    for u in unknowns:
        assert got[u].context.names == want[u].context.names == tuple(params) + tuple(targets)
        assert got[u] == want[u]
        assert got[u].order == want[u].order == order


def test_solve_formal_system_quadratic():
    # u = p + u^2  =>  u = p + p^2 + 2 p^3 + 5 p^4 + ...
    ctx = VariableContext(("p", "u"))
    eq = ps.parse_series("u - p - u^2", ctx, 5)
    solution = ps.solve_formal_system([eq], ["u"])
    out_ctx = solution["u"].context
    catalan = ps.parse_series("p + p^2 + 2*p^3 + 5*p^4 + 14*p^5", out_ctx, 5)
    assert solution["u"] == catalan



# ----------------------------------------------------------------------
# Newton lifting against the degree-by-degree solver it replaced


def gauss_jordan_inverse(rows):
    """Exact inverse of a square matrix over Q(i), or None when it is
    singular; elimination, independent of the solver's cofactor table."""
    n = len(rows)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def constant_jacobian(equations, unknowns):
    return [[eq.coefficient_of(**{u: 1}) for u in unknowns] for eq in equations]


def reference_solve(equations, unknowns):
    """Degree-by-degree solve: each pass kills the lowest remaining degree
    of the residual with one linear solve against the constant Jacobian."""
    ctx = equations[0].context
    out_ctx = VariableContext([name for name in ctx.names if name not in set(unknowns)])
    n = min(eq.order for eq in equations)
    jac_inv = gauss_jordan_inverse(constant_jacobian(equations, unknowns))
    solution = {u: TruncatedSeries.zero(out_ctx, n) for u in unknowns}
    for degree in range(1, n + 1):
        assignment = {u: solution[u].truncate(degree) for u in unknowns}
        residual_parts = [
            eq.truncate(degree).substitute(assignment, target_context=out_ctx)
            .homogeneous_part(degree)
            for eq in equations
        ]
        for j, u in enumerate(unknowns):
            merged = dict(solution[u].terms)
            for i, part in enumerate(residual_parts):
                for exps, coeff in part.items():
                    merged[exps] = merged.get(exps, ZERO) - jac_inv[j][i] * coeff
            solution[u] = TruncatedSeries(out_ctx, n, merged)
    return solution


@st.composite
def invertible_systems(draw, min_order=1, max_order=9):
    """(equations, unknowns, order): 1-4 unknowns, 1-2 parameters, equations
    of degree <= 3 without constant term and with an invertible Jacobian."""
    size = draw(st.integers(1, 4))
    params = ["p1", "p2"][: draw(st.integers(1, 2))]
    unknowns = [f"u{j}" for j in range(1, size + 1)]
    ctx = VariableContext(params + unknowns)
    monomials = [e for e in itertools.product(range(4), repeat=ctx.arity)
                 if 1 <= sum(e) <= 3]
    forcing = [e for e in monomials if not any(e[len(params):])]  # parameters only
    order = draw(st.integers(min_order, max_order))
    equations = []
    for i in range(size):
        terms = {draw(st.sampled_from(forcing)): draw(st.sampled_from(COEFF_POOL))}
        for _ in range(draw(st.integers(0, 5))):
            terms[draw(st.sampled_from(monomials))] = draw(st.sampled_from(COEFF_POOL))
        unit = [0] * ctx.arity
        unit[len(params) + i] = 1
        terms[tuple(unit)] = terms.get(tuple(unit), ZERO) + draw(st.sampled_from(COEFF_POOL))
        eq_order = draw(st.integers(order, max_order + 2))
        equations.append(TruncatedSeries(ctx, eq_order, terms))
    assume(gauss_jordan_inverse(constant_jacobian(equations, unknowns)) is not None)
    return equations, unknowns, order


@settings(max_examples=60, deadline=None)
@given(invertible_systems(), st.booleans())
def test_newton_lifting_equals_degree_by_degree(system, cap):
    equations, unknowns, order = system
    if cap:
        equations = [eq.truncate(order) for eq in equations]
    solution = ps.solve_formal_system(equations, unknowns)
    expected = reference_solve(equations, unknowns)
    for u in unknowns:
        assert solution[u] == expected[u]
        assert solution[u].order == expected[u].order


@settings(max_examples=30, deadline=None)
@given(invertible_systems(max_order=7))
def test_solution_order_is_sound(system):
    # solving to d and to d + 2 agrees through the lower run's order
    equations, unknowns, d = system
    equations = [TruncatedSeries(eq.context, d + 2, eq.terms) for eq in equations]
    low = ps.solve_formal_system([eq.truncate(d) for eq in equations], unknowns)
    high = ps.solve_formal_system(equations, unknowns)
    for u in unknowns:
        assert low[u].order == d and high[u].order == d + 2
        assert high[u].agrees_with(low[u], through_order=low[u].order)


@pytest.mark.parametrize("order", range(1, 10))
def test_residual_evaluations_grow_with_log_order(order, monkeypatch):
    ctx = VariableContext(("p", "u1", "u2"))
    equations = [
        ps.parse_series("u1 - p - u1*u2 + p*u2^2", ctx, order),
        ps.parse_series("2*u2 + u1 - p^2 + u1^3", ctx, order),
    ]
    calls, expanded = [], []
    compose, cofactors = implicit_module._compose, SeriesMatrix.cofactors

    def counted(series_list, *args, **kwargs):
        # one evaluation of an equation is one appearance in a composed list
        series_list = list(series_list)
        calls.extend(s for s in series_list if any(s is eq for eq in equations))
        return compose(series_list, *args, **kwargs)

    def counted_cofactors(self):
        expanded.append(self)
        return cofactors(self)

    monkeypatch.setattr(implicit_module, "_compose", counted)
    monkeypatch.setattr(SeriesMatrix, "cofactors", counted_cofactors)
    solution = ps.solve_formal_system(equations, ["u1", "u2"])
    for eq in equations:
        # floor(log2 order) + 1 evaluations, where one per degree took order
        assert sum(call is eq for call in calls) == order.bit_length()
    # one cofactor table of J per solve, composed with each iterate: no
    # Newton step expands a matrix
    assert len(expanded) == 1
    monkeypatch.undo()
    expected = reference_solve(equations, ["u1", "u2"])
    assert solution == expected
    assert [s.order for s in solution.values()] == [s.order for s in expected.values()]


@pytest.mark.parametrize("order", range(1, 9))
def test_newton_with_a_sparse_cofactor_table_matches_the_dense_solve(order, monkeypatch):
    # a Jacobian with few nonzero entries: C[2, 0] and C[2, 1] are zero,
    # and C[1, 0] = -3*u2^2 is zero through degree 1 and not beyond, so
    # each renewal composes only the cofactors that are nonzero at its cut.  Each step is one walk that holds no zero
    # series, and the solve is the one that expands its table from the
    # equations, and the degree-by-degree reference
    ctx = VariableContext(("p", "u1", "u2", "u3"))
    unknowns = ["u1", "u2", "u3"]
    texts = ("u1 - p + u2^3", "2*u2 + p*u1^2", "u3 - i*p + u1*u2^2")
    equations = [ps.parse_series(text, ctx, order) for text in texts]
    # the table at order 8 holds every degree a solve to order <= 8 reads
    det, cofactor = SeriesMatrix([[ps.parse_series(text, ctx, 9).partial(u) for u in unknowns]
                                  for text in texts]).cofactors()
    assert cofactor[(2, 0)].is_zero() and cofactor[(2, 1)].is_zero()
    assert cofactor[(1, 0)].is_zero(through_order=1) and not cofactor[(1, 0)].is_zero()
    walks = []
    compose = implicit_module._compose

    def spy(series_list, *args):
        walks.append(list(series_list))
        return compose(walks[-1], *args)

    monkeypatch.setattr(implicit_module, "_compose", spy)
    sparse = implicit_module._newton(equations, unknowns, (det, cofactor))
    monkeypatch.undo()
    assert len(walks) == order.bit_length()
    assert all(s._grades for walk in walks for s in walk)
    dense = implicit_module._newton(equations, unknowns)
    expected = reference_solve(equations, unknowns)
    for u in unknowns:
        assert sparse[u] == dense[u] == expected[u]
        assert sparse[u].order == dense[u].order == expected[u].order == order
