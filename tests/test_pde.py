"""Associated systems, total derivatives, recovery, and the jet transfer."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import PdeSystem, SeriesMatrix, TruncatedSeries, pde as pde_module
from pseudosphere.errors import (
    InsufficientOrderError,
    LeviDegenerateError,
    RankConditionError,
    UnsupportedDimensionError,
)
from pseudosphere.matrices import jacobian_minor_family
from pseudosphere.scalars import ONE

from conftest import (
    COEFF_POOL,
    heisenberg_model,
    random_graph,
    random_series,
    rigid_perturbation_model,
)

PCTX = ps.pde_context(2)
FCTX = ps.fundamental_context(2)
CTX = ps.canonical_context(2)


def p(text, order=5, ctx=PCTX):
    return ps.parse_series(text, ctx, order)


# ----------------------------------------------------------------------
# deriving the associated system


def test_heisenberg_system_is_zero():
    system = ps.derive_associated_system(heisenberg_model(2, 7))
    assert all(system.component(*k).is_zero() for k in system.component_keys())
    assert system.order == 5


def test_sheared_model_gives_constant_system():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2 + z1b^2", CTX, 7)
    system = ps.derive_associated_system(ps.make_model(2, theta, 7))
    assert system.component(1, 1) == p("2")
    assert system.component(1, 2).is_zero()
    assert system.component(2, 2).is_zero()


def test_quartic_model_depends_on_first_jet():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX, 7)
    system = ps.derive_associated_system(ps.make_model(2, theta, 7))
    f11 = system.component(1, 1)
    assert f11 == p("2*yx1^2 - 8*x1*yx1^3")
    # back-substitution: F11(z, theta, theta_z) must equal theta_z1z1
    assignment = {
        "x1": TruncatedSeries.variable(CTX, 7, "z1"),
        "x2": TruncatedSeries.variable(CTX, 7, "z2"),
        "y": theta,
        "yx1": theta.partial("z1"),
        "yx2": theta.partial("z2"),
    }
    back = f11.substitute(assignment, target_context=CTX)
    assert back.agrees_with(theta.partial("z1").partial("z1"))


def test_degenerate_model_rejected():
    theta = ps.parse_series("-wb + z1*z1b", CTX, 5)
    bad = ps.HypersurfaceModel(n=2, theta=theta)
    with pytest.raises(LeviDegenerateError):
        ps.derive_associated_system(bad)
    with pytest.raises(LeviDegenerateError):
        ps.jet_transfer_second(bad, ps.parse_series("z1b^2", CTX, 5), 1, 1)


def test_symmetry_of_derived_components():
    model = rigid_perturbation_model(random.Random(11), 2, 6)
    system = ps.derive_associated_system(model)
    for k1 in (1, 2):
        for k2 in (1, 2):
            assert system.component(k1, k2) == system.component(k2, k1)


# ----------------------------------------------------------------------
# total differentiation and compatibility


def test_total_derivative_formula():
    zero_system = PdeSystem(2, 5, {})
    y = TruncatedSeries.variable(PCTX, 5, "y")
    assert ps.total_derivative(zero_system, 1, y) == p("yx1", order=4)

    system = PdeSystem(2, 5, {(1, 2): p("y + x1")})
    yx2 = TruncatedSeries.variable(PCTX, 5, "yx2")
    assert ps.total_derivative(system, 1, yx2) == p("y + x1", order=4)

    x2 = TruncatedSeries.variable(PCTX, 5, "x2")
    assert ps.total_derivative(zero_system, 1, x2).is_zero()


def literal_total_derivative(system, k, g):
    """D_k g from its displayed formula, one plain series operation per
    term; a y_x-partial of g that is exactly 0 contributes no term."""
    yxk = TruncatedSeries.variable(system.context, g.order, f"yx{k}")
    total = g.partial(f"x{k}") + yxk * g.partial("y")
    for l in range(1, system.n + 1):
        d = g.partial(f"yx{l}")
        if not d.is_zero():
            total = total + system.component(k, l) * d
    return total


@pytest.mark.parametrize("order", [1, 2, 5])
def test_total_derivative_of_zero_is_the_formulas(order):
    # a zero g has every total zero at g.order - 1, the formula's order,
    # on a zero system and on one with nonzero components of lower order
    for system in (PdeSystem(2, 5, {}), PdeSystem(2, 3, {(1, 2): p("y + yx1^2", order=3)})):
        g = TruncatedSeries.zero(PCTX, order)
        for k in (1, 2):
            got = ps.total_derivative(system, k, g)
            want = literal_total_derivative(system, k, g)
            assert got == want and got.is_zero()
            assert got.order == want.order == order - 1


def test_integrability_forms_no_partial_of_a_zero_component_but_in_y(monkeypatch):
    # four of the six components are zero: each is differentiated in y
    # only, and the report is the one of every total derived anew
    system = PdeSystem(3, 4, {(1, 2): p("x3*yx1 + y^2", order=4, ctx=ps.pde_context(3)),
                              (3, 3): p("yx2*yx3", order=4, ctx=ps.pde_context(3))})
    want = naive_integrability_failures(system)
    zero = {id(system.component(*key)) for key in system.component_keys()
            if system.component(*key).is_zero()}
    names = set()
    partial = TruncatedSeries.partial

    def spy(self, name):
        if id(self) in zero:
            names.add(name)
        return partial(self, name)

    monkeypatch.setattr(TruncatedSeries, "partial", spy)
    report = ps.check_complete_integrability(system)
    assert names == {"y"}
    assert want and report.failures == want
    assert report.checked_order == 3


def test_zero_system_is_integrable():
    assert ps.check_complete_integrability(PdeSystem(2, 5, {})).ok


def test_derived_systems_are_integrable():
    for seed in (3, 4):
        model = rigid_perturbation_model(random.Random(seed), 2, 6)
        system = ps.derive_associated_system(model)
        report = ps.check_complete_integrability(system)
        assert report.ok, report.failures


def test_integrability_counterexample():
    system = PdeSystem(2, 5, {(1, 1): p("x2")})
    report = ps.check_complete_integrability(system)
    assert not report.ok
    (k1, k2, k3, monomial, residual) = report.failures[0]
    assert (k1, k2, k3) == (1, 1, 2)
    assert monomial == "1"
    assert residual == ps.gaussian(1)


def naive_integrability_failures(system):
    """Every (k1, k2, k3) of the compatibility test, each side derived anew."""
    failures = []
    for k1 in range(1, system.n + 1):
        for k2 in range(1, system.n + 1):
            for k3 in range(k2 + 1, system.n + 1):
                diff = (ps.total_derivative(system, k3, system.component(k1, k2))
                        - ps.total_derivative(system, k2, system.component(k1, k3)))
                if not diff.is_zero():
                    exps, coeff = diff.first_term()
                    failures.append((k1, k2, k3, diff.monomial_text(exps), coeff))
    return tuple(failures)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integrability_differentiates_each_component_once(n, monkeypatch):
    # each stored F_{i,j} once in y and in each y_x, and in x_k for every k
    # but the one with k = i = j, whose total D_k F_{i,j} no triple reads
    rng = random.Random(n)
    ctx = ps.pde_context(n)
    components = {(k1, k2): random_series(rng, ctx, 3, max_terms=3, degree=2)
                  for k1 in range(1, n + 1) for k2 in range(k1, n + 1)}
    system = PdeSystem(n, 3, components)
    want = naive_integrability_failures(system)
    keys = {id(system.component(*key)): key for key in system.component_keys()}
    assert len(keys) == len(components)
    calls = collections.Counter()
    partial = TruncatedSeries.partial

    def spy(self, name):
        calls[keys.get(id(self)), name] += 1
        return partial(self, name)

    monkeypatch.setattr(TruncatedSeries, "partial", spy)
    report = ps.check_complete_integrability(system)
    once = [((i, j), name) for i, j in system.component_keys()
            for name in ["y"] + [f"yx{l}" for l in range(1, n + 1)]
            + [f"x{k}" for k in range(1, n + 1) if not i == j == k]]
    assert calls == collections.Counter(once)
    assert want and report.failures == want


def test_system_order_is_its_lowest_component_order():
    # an order-3 component caps the system at order 3; the untruncated
    # tensor has a nonzero coefficient of degree 3, above what is certified
    system = PdeSystem(2, 6, {(1, 1): p("yx1^5", order=3)})
    assert system.order == 3
    assert {system.component(*k).order for k in system.component_keys()} == {3}
    assert ps.check_complete_integrability(system).checked_order == 2
    assert str(ps.hachtroudi_tensor(system).verdict()) == "VanishesToOrder(1)"
    full = ps.hachtroudi_tensor(PdeSystem(2, 6, {(1, 1): p("yx1^5", order=6)}))
    assert not full.verdict().vanishes
    assert min(sum(e) for c in full.components.values() for e in c.terms) == 3


# ----------------------------------------------------------------------
# fundamental solutions


def test_flat_solution_recovers_zero_system():
    q = ps.parse_series("-b + x1*a1 + x2*a2", FCTX, 6)
    sol = ps.FundamentalSolution(2, q)
    assert sol.normalized
    system = ps.recover_system_from_solution(sol)
    assert all(system.component(*k).is_zero() for k in system.component_keys())


def test_heisenberg_as_fundamental_solution():
    # renaming theta into (x, a, b) gives the same zero system as the
    # elimination route
    theta = heisenberg_model(2, 6).theta.rename_context(FCTX)
    sol = ps.FundamentalSolution(2, theta)
    system = ps.recover_system_from_solution(sol)
    assert all(system.component(*k).is_zero() for k in system.component_keys())


def test_quartic_fundamental_solution_round_trip():
    q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2", FCTX, 7)
    sol = ps.FundamentalSolution(2, q)
    system = ps.recover_system_from_solution(sol)
    f11 = system.component(1, 1)
    assert not f11.is_zero()
    # Q solves the recovered system: Q_{x1 x1} == F11(x, Q, Q_x)
    assignment = {
        "y": q,
        "yx1": q.partial("x1"),
        "yx2": q.partial("x2"),
        "x1": TruncatedSeries.variable(FCTX, 7, "x1"),
        "x2": TruncatedSeries.variable(FCTX, 7, "x2"),
    }
    back = f11.substitute(assignment, target_context=FCTX)
    assert back.agrees_with(q.partial("x1").partial("x1"))


def full_order_elimination(q, x_names, parameters):
    """The associated system with the parameters solved to the order q_x
    allows, q.order - 1, before the second derivatives are composed."""
    n = len(x_names)
    system = [q] + [q.partial(x) for x in x_names]
    targets = ["y"] + [f"yx{k}" for k in range(1, n + 1)]
    solution = ps.solve_implicit(system, parameters, targets)
    jet_ctx = solution[parameters[-1]].context
    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            second = q.partial(x_names[k1 - 1]).partial(x_names[k2 - 1])
            image = second.substitute(solution, target_context=jet_ctx)
            components[(k1, k2)] = image.rename_context(ps.pde_context(n))
    return PdeSystem(n, q.order - 2, components)


TARGET_GRAPH = "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2"


@pytest.mark.parametrize("make", [
    lambda: rigid_perturbation_model(random.Random(5), 2, 7).theta,
    lambda: rigid_perturbation_model(random.Random(6), 3, 6).theta,
    lambda: ps.from_graph(ps.parse_series(TARGET_GRAPH, ps.graph_context(2), 8), 2, 8).theta,
    lambda: ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1 + a2*x2^2*b", FCTX, 2),
], ids=["rigid-n2", "rigid-n3", "target-graph-8", "solution-order-2"])
def test_elimination_solves_to_the_kept_order_only(make, monkeypatch):
    # solving the parameters one degree short of what q_x allows gives the
    # full-order system, term for term and order for order
    q = make()
    n = (q.context.arity - 1) // 2
    names = q.context.names
    x_names, parameters = list(names[:n]), list(names[n:])
    want = full_order_elimination(q, x_names, parameters)
    solved = []

    def spy(equations, unknowns, jacobian=None, targets=()):
        solved.extend(eq.order for eq in equations)
        return newton(equations, unknowns, jacobian, targets)

    newton = pde_module._newton
    monkeypatch.setattr(pde_module, "_newton", spy)
    family = jacobian_minor_family(q, x_names, parameters)
    got = pde_module._eliminate(q, x_names, parameters, family)
    # the solver reads the Jacobian off the linear part, so it never goes below 1
    assert solved == [max(q.order - 2, 1)] * (n + 1)
    assert got.order == want.order == q.order - 2
    assert got.component_keys() == want.component_keys()
    for key in want.component_keys():
        assert got.component(*key) == want.component(*key), key
        assert got.component(*key).order == want.component(*key).order


@pytest.mark.parametrize("make", [
    lambda: heisenberg_model(2, 7),
    lambda: rigid_perturbation_model(random.Random(5), 2, 7),
    lambda: rigid_perturbation_model(random.Random(6), 3, 6),
    lambda: ps.from_graph(
        ps.parse_series("x1^2 + y1^2 - x2^2 - y2^2 + v*x1*y1 + x1^4",
                        ps.graph_context(2), 7), 2, 7),
], ids=["heisenberg", "rigid-n2", "rigid-n3", "graph"])
def test_theta_is_its_own_fundamental_solution(make):
    # deriving from the model and recovering from theta read as Q(x, a, b)
    # give the same system, component by component; so do the minor family
    # and the jet transfer, and the Levi form is the family's mixed block
    model = make()
    n = model.n
    fctx = ps.fundamental_context(n)
    derived = ps.derive_associated_system(model)
    sol = ps.FundamentalSolution(n, model.theta.rename_context(fctx))
    recovered = ps.recover_system_from_solution(sol)
    assert derived.order == recovered.order == model.order - 2
    assert derived.component_keys() == recovered.component_keys()
    for key in derived.component_keys():
        assert derived.component(*key) == recovered.component(*key)
        assert derived.component(*key).order == recovered.component(*key).order

    def assert_renamed(mine, theirs):
        assert mine.rename_context(fctx) == theirs
        assert mine.order == theirs.order

    family, box = ps.minors(model), ps.fundamental_minors(sol)
    assert_renamed(family.delta, box.delta)
    assert family.cofactor.keys() == box.cofactor.keys()
    for key in box.cofactor:
        assert_renamed(family.cofactor[key], box.cofactor[key])

    theta = model.theta
    z1 = TruncatedSeries.variable(theta.context, model.order + 2, "z1")
    for t in (theta.partial("z1").partial("z1"), theta * theta, z1 * z1 + z1):
        for l1, l2 in itertools.combinations_with_replacement(range(1, n + 1), 2):
            assert_renamed(ps.jet_transfer_second(model, t, l1, l2),
                           ps.jet_transfer_second(sol, t.rename_context(fctx), l1, l2))

    hermitian = [
        [theta.coefficient_of(**{f"z{j}": 1, f"z{k}b": 1}) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    assert ps.levi(model).signature == ps.hermitian_signature(hermitian)


@pytest.mark.parametrize("as_solution", [False, True], ids=["model", "solution"])
def test_both_exported_names_share_one_family_and_one_elimination(as_solution, monkeypatch):
    import pseudosphere.hypersurface as hypersurface

    built, solved = [], []

    def counted_family(*args):
        built.append(args)
        return jacobian_minor_family(*args)

    def counted_solve(*args):
        solved.append(args)
        return newton(*args)

    jacobian_minor_family = hypersurface.jacobian_minor_family
    newton = pde_module._newton
    monkeypatch.setattr(hypersurface, "jacobian_minor_family", counted_family)
    monkeypatch.setattr(pde_module, "_newton", counted_solve)
    model = rigid_perturbation_model(random.Random(5), 2, 6)
    obj = ps.FundamentalSolution(2, model.theta.rename_context(FCTX)) if as_solution else model
    family = ps.fundamental_minors(obj)
    system = ps.recover_system_from_solution(obj)
    assert ps.minors(obj) is family
    assert ps.derive_associated_system(obj) is system
    assert len(built) == len(solved) == 1


@pytest.mark.parametrize("as_solution", [False, True], ids=["model", "solution"])
def test_every_reader_of_the_levi_minors_shares_one_cofactor_table(as_solution, monkeypatch):
    # the elimination's Newton steps read J^-1 off the Levi minors, so one
    # expansion per object serves the derivation, levi, the tensor and the
    # cross-check, whichever runs first; derive-pde alone builds the family
    expanded = []

    def counted(self):
        expanded.append(self)
        return cofactors(self)

    cofactors = SeriesMatrix.cofactors
    monkeypatch.setattr(SeriesMatrix, "cofactors", counted)
    model = rigid_perturbation_model(random.Random(5), 2, 6)
    if as_solution:
        sol = ps.FundamentalSolution(2, model.theta.rename_context(FCTX))
        ps.recover_system_from_solution(sol)
        assert len(expanded) == 1
        t = ps.parse_series("a1*a2 + b*x1", FCTX, 6)
        ps.jet_transfer_second(sol, t, 1, 2)
        assert ps.fundamental_minors(sol).matrix is expanded[0]
    else:
        ps.derive_associated_system(model)
        assert len(expanded) == 1
        ps.levi(model)
        ps.main_theorem_tensor(model)
        assert ps.cross_check(model).ok
        assert ps.minors(model).matrix is expanded[0]
    assert len(expanded) == 1


def test_order_two_model_derives_the_system_of_its_theta_as_a_solution():
    # the order-0 system reads theta only to order 2; the elimination's
    # Jacobian is the Levi matrix, whose minors an order-2 theta gives at
    # order 0, and their check is the Levi check
    theta = ps.parse_series("-wb + z1*z1b - z2*z2b + z1^2 + z1b^2", CTX, 2)
    derived = ps.derive_associated_system(ps.make_model(2, theta, 2))
    sol = ps.FundamentalSolution(2, theta.rename_context(FCTX))
    recovered = ps.recover_system_from_solution(sol)
    assert derived.order == recovered.order == 0
    assert derived.component_keys() == recovered.component_keys()
    for key in recovered.component_keys():
        assert derived.component(*key) == recovered.component(*key)
        assert derived.component(*key).order == 0
    assert not derived.component(1, 1).is_zero()


def test_rank_condition_enforced():
    with pytest.raises(RankConditionError):
        ps.FundamentalSolution(2, ps.parse_series("-b + x1*a1", FCTX, 5))
    # the fundamental determinant is 2*a2 + ..., rank-deficient only at 0
    with pytest.raises(RankConditionError):
        ps.FundamentalSolution(2, ps.parse_series("-b + x1*a1 + x2*a2^2", FCTX, 5))


@pytest.mark.parametrize("n", [0, 1])
def test_fundamental_solution_needs_n_at_least_two(n):
    # n = 1 is out of scope, as for a model; the dimension is checked before
    # the context and the rank condition
    fctx = ps.fundamental_context(n)
    q = -TruncatedSeries.variable(fctx, 5, "b")
    if n:
        q = q + ps.parse_series("x1*a1", fctx, 5)
    with pytest.raises(UnsupportedDimensionError, match="got " + str(n)):
        ps.FundamentalSolution(n, q)


@pytest.mark.parametrize("n", [0, 1])
def test_pde_system_needs_n_at_least_two(n):
    # the same error as every other entry point below dimension 2
    with pytest.raises(UnsupportedDimensionError, match="got " + str(n)):
        PdeSystem(n, 5, {})


def test_rank_condition_needs_order_two():
    # Q_x of an order-1 Q has order 0, so its x-a terms are not known
    flat = "-b + x1*a1 + x2*a2"
    with pytest.raises(InsufficientOrderError):
        ps.FundamentalSolution(2, ps.parse_series(flat, FCTX, 1))
    assert ps.FundamentalSolution(2, ps.parse_series(flat, FCTX, 2)).normalized
    for order in (2, 5):
        with pytest.raises(RankConditionError):
            ps.FundamentalSolution(2, ps.parse_series("-b + x1*a1 + x2*a2^2", FCTX, order))


def test_non_normalized_flag():
    q = ps.parse_series("-b + x1*a1 - x2*a2", FCTX, 5)
    assert not ps.FundamentalSolution(2, q).normalized


# ----------------------------------------------------------------------
# jet transfer


def test_jet_transfer_flat_square():
    sol = ps.FundamentalSolution(2, ps.parse_series("-b + x1*a1 + x2*a2", FCTX, 6))
    t = ps.parse_series("a1^2", FCTX, 6)
    assert ps.jet_transfer_second(sol, t, 1, 1) == ps.parse_series("2", FCTX, 3)
    assert ps.jet_transfer_second(sol, t, 1, 2).is_zero()
    assert ps.jet_transfer_second(sol, t, 2, 2).is_zero()


def test_jet_transfer_parameter_free_input():
    sol = ps.FundamentalSolution(2, ps.parse_series("-b + x1*a1 + x2*a2", FCTX, 6))
    t = ps.parse_series("x1^2 + x2", FCTX, 6)
    assert ps.jet_transfer_second(sol, t, 1, 1).is_zero()


def test_jet_transfer_symmetry():
    q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2 + x1*x2*a2^2", FCTX, 6)
    sol = ps.FundamentalSolution(2, q)
    t = ps.parse_series("a1*a2 + b^2", FCTX, 6)
    out12 = ps.jet_transfer_second(sol, t, 1, 2)
    out21 = ps.jet_transfer_second(sol, t, 2, 1)
    assert out12 == out21


def _chain_rule_oracle(sol, t, l1, l2):
    """Independent route: solve for (a, b), compose, differentiate, pull back."""
    n = sol.n
    q = sol.q
    system = [q] + [q.partial(f"x{k}") for k in range(1, n + 1)]
    unknowns = [f"a{k}" for k in range(1, n + 1)] + ["b"]
    targets = ["y"] + [f"yx{k}" for k in range(1, n + 1)]
    solution = ps.solve_implicit(system, unknowns, targets)
    jet_ctx = solution["b"].context
    g = t.substitute(
        {name: solution[name] for name in unknowns}, target_context=jet_ctx
    )
    d2g = g.partial(f"yx{l1}").partial(f"yx{l2}")
    pullback = {
        "y": q,
        **{f"yx{k}": q.partial(f"x{k}") for k in range(1, n + 1)},
        **{
            f"x{k}": TruncatedSeries.variable(q.context, q.order, f"x{k}")
            for k in range(1, n + 1)
        },
    }
    return d2g.substitute(pullback, target_context=q.context)


@pytest.mark.parametrize("l1,l2", [(1, 1), (1, 2), (2, 2)])
def test_jet_transfer_matches_chain_rule_oracle(l1, l2):
    q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2", FCTX, 7)
    sol = ps.FundamentalSolution(2, q)
    t = ps.parse_series("a1*a2 + b*x1", FCTX, 7)
    direct = ps.jet_transfer_second(sol, t, l1, l2)
    oracle = _chain_rule_oracle(sol, t, l1, l2)
    assert direct.agrees_with(oracle)


def test_jet_transfer_builds_the_minor_family_once(monkeypatch):
    import pseudosphere.hypersurface as hypersurface

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return jacobian_minor_family(*args, **kwargs)

    jacobian_minor_family = hypersurface.jacobian_minor_family
    monkeypatch.setattr(hypersurface, "jacobian_minor_family", counted)
    q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2 + x1*x2*a2^2", FCTX, 6)
    sol = ps.FundamentalSolution(2, q)
    t = ps.parse_series("a1*a2 + b*x1", FCTX, 6)
    for l1 in (1, 2):
        for l2 in (1, 2):
            ps.jet_transfer_second(sol, t, l1, l2)
    assert ps.fundamental_minors(sol) is ps.fundamental_minors(sol)
    assert len(calls) == 1



def test_jet_transfer_inverts_the_box_once(monkeypatch):
    calls = []
    invert_unit = TruncatedSeries.invert_unit

    def counted(self):
        calls.append(self)
        return invert_unit(self)

    monkeypatch.setattr(TruncatedSeries, "invert_unit", counted)
    q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2 + x1*x2*a2^2", FCTX, 6)
    sol = ps.FundamentalSolution(2, q)
    t = ps.parse_series("a1*a2 + b*x1", FCTX, 6)
    for l1, l2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1)]:
        ps.jet_transfer_second(sol, t, l1, l2)
    assert len(calls) == 1


def test_jet_transfer_against_the_uncut_cube():
    # box^-3 is cubed at box.order - 1, the order of every nonzero transfer
    # entry of a t of order >= box.order + 1; an exactly-zero entry keeps
    # its own order, box.order for a parameter-free t of order >= box.order + 2
    q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2 + x1*x2*b + a1*x2^3", FCTX, 8)
    sol = ps.FundamentalSolution(2, q)
    box = ps.fundamental_minors(sol).delta
    inv_box = box.invert_unit()
    uncut = inv_box * inv_box * inv_box
    nonzero = 0
    for t_order in (box.order + 1, box.order + 2, box.order + 3):
        for text in ("a1*a2 + b*x1 + a1^3*x2 + b^2*x2^2", "x1^2 + x2"):
            t = ps.parse_series(text, FCTX, t_order)
            for (l1, l2), entry in ps.fundamental_minors(sol).transfer(t).items():
                want = entry * uncut
                got = ps.jet_transfer_second(sol, t, l1, l2)
                assert got == want and got.order == want.order, (text, t_order, l1, l2)
                nonzero += not got.is_zero()
    assert nonzero == 9


def test_fundamental_determinant_matches_levi_determinant():
    # with Q := theta and (a, b) := (zb, wb), the fundamental determinant
    # coincides with the Levi determinant under the fixed row convention
    model = rigid_perturbation_model(random.Random(23), 2, 6)
    delta = ps.minors(model).matrix.determinant()
    sol = ps.FundamentalSolution(2, model.theta.rename_context(FCTX))
    box = ps.fundamental_minors(sol).delta
    assert box == delta.rename_context(FCTX)


# ----------------------------------------------------------------------
# order soundness of the implicit solver's clients


def random_near_identity_map(rng, n, order):
    """(z, w) -> (z, w) + quadratic terms: invertible, and the image of a
    normalized model keeps the linear part -wb."""
    mctx = ps.map_context(n)
    quadratic = [e for e in itertools.product(range(3), repeat=mctx.arity) if sum(e) == 2]
    components = []
    for name in mctx.names:
        terms = {rng.choice(quadratic): rng.choice(COEFF_POOL) for _ in range(rng.randint(0, 2))}
        terms[tuple(int(v == name) for v in mctx.names)] = ONE
        components.append(TruncatedSeries(mctx, order, terms))
    return components[:-1], components[-1]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(3, 4), st.randoms(use_true_random=False))
def test_solver_clients_agree_at_orders_d_and_d_plus_2(n, d, rng):
    # from_graph, apply_biholomorphism and derive_associated_system each
    # solve implicitly; the run at order d must be the run at d + 2 cut at d
    phi = random_graph(rng, n, d + 2)
    zmaps, wmap = random_near_identity_map(rng, n, d + 2)
    runs = []
    for order in (d, d + 2):
        model = ps.from_graph(phi, n, order)
        image = ps.apply_biholomorphism(model, zmaps, wmap)  # the map keeps order d + 2
        runs.append((model, image, ps.derive_associated_system(image)))
    (low_model, low_image, low_system), (high_model, high_image, high_system) = runs
    for low, high in ((low_model.theta, high_model.theta), (low_image.theta, high_image.theta)):
        assert (low.order, high.order) == (d, d + 2)
        assert high.agrees_with(low, through_order=d)
    assert (low_system.order, high_system.order) == (d - 2, d)
    for key in high_system.component_keys():
        low, high = low_system.component(*key), high_system.component(*key)
        assert (low.order, high.order) == (d - 2, d)
        assert high.agrees_with(low, through_order=d - 2)
