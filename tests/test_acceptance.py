"""Acceptance suite: one numbered criterion per test, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every comparison below is exact (coefficientwise over Q(i)); "to certified
order" means every stored coefficient of the truncated result.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import pseudosphere as ps
from pseudosphere import PdeSystem, TruncatedSeries
from pseudosphere.errors import LeviDegenerateError

from conftest import (
    constant_column,
    constant_series_matrix,
    heisenberg_model,
    random_gaussian,
    random_series,
    rigid_perturbation_model,
)

CTX2 = ps.canonical_context(2)

# tensors accumulated by earlier criteria, re-checked by criterion 5
_COMPUTED_TENSORS = []


def _passed(number, message):
    print(f"criterion {number}: PASS - {message}")


def test_criterion_01_heisenberg_flatness():
    cases = 0
    for n in (2, 3):
        for signs in itertools.product((1, -1), repeat=n):
            start = time.perf_counter()
            model = heisenberg_model(n, 8, signs)
            tensor = ps.main_theorem_tensor(model)
            elapsed = time.perf_counter() - start
            assert tensor.certified_order == 4
            for key, series in tensor.components.items():
                assert series.is_zero(), (n, signs, key)
            assert elapsed < 60.0, f"case {(n, signs)} took {elapsed:.1f}s"
            _COMPUTED_TENSORS.append(tensor)
            cases += 1
    _passed(1, f"all {cases} Heisenberg sign patterns give the exact zero tensor")


def test_criterion_02_biholomorphic_invariance():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2 + z1b^2", CTX2, 8)
    tensor = ps.main_theorem_tensor(ps.make_model(2, theta, 8))
    assert tensor.is_zero()
    _COMPUTED_TENSORS.append(tensor)
    _passed(2, "the sheared model's tensor vanishes identically to order 4")


def test_criterion_03_nonflat_witness():
    theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX2, 6)
    model = ps.make_model(2, theta, 6)
    verdict = ps.is_pseudospherical(model)
    assert not verdict.vanishes
    witness = verdict.witness
    assert witness.component == (1, 1, 1, 1)

    report = ps.cross_check(model)
    assert report.ok, report.mismatches[:2]
    direct = report.direct.component(*witness.component)
    transported = report.transported[witness.component]
    assert not direct.is_zero() and not transported.is_zero()
    assert direct.coefficient(witness.exponents) == witness.coefficient
    assert transported.coefficient(witness.exponents) == witness.coefficient
    _COMPUTED_TENSORS.append(report.direct)
    _passed(
        3,
        f"witness {witness.coefficient} at {witness.component} confirmed by both routes",
    )


def test_criterion_04_oracle_equivalence():
    rng = random.Random(40818)
    checked = 0
    nontrivial = 0
    while checked < 5:
        model = rigid_perturbation_model(rng, 2, 6)
        report = ps.cross_check(model)
        assert report.ok, report.mismatches[:2]
        _COMPUTED_TENSORS.append(report.direct)
        nontrivial += not report.direct.is_zero()
        checked += 1
    assert nontrivial >= 2  # agreement must be exercised on nonzero data
    _passed(
        4,
        f"direct and transported routes agree exactly on {checked} models "
        f"({nontrivial} with nonzero tensors)",
    )


def test_criterion_05_trace_free_identity():
    assert _COMPUTED_TENSORS, "earlier criteria must have stored tensors"
    for tensor in _COMPUTED_TENSORS:
        for k2 in range(1, tensor.n + 1):
            for l2 in range(1, tensor.n + 1):
                assert tensor.contract(k2, l2).is_zero()
    rng = random.Random(50818)
    pctx = ps.pde_context(2)
    extra = 0
    for _ in range(10):
        components = {
            key: random_series(rng, pctx, 5, max_terms=4)
            for key in ((1, 1), (1, 2), (2, 2))
        }
        tensor = ps.hachtroudi_tensor(PdeSystem(2, 5, components))
        for k2 in (1, 2):
            for l2 in (1, 2):
                assert tensor.contract(k2, l2).is_zero()
        extra += 1
    _passed(
        5,
        f"trace identity exact on {len(_COMPUTED_TENSORS)} pipeline tensors "
        f"and {extra} random systems",
    )


@pytest.mark.parametrize("size", [3, 4])
def test_criterion_06_plucker_identity(size):
    rng = random.Random(60818 + size)
    for trial in range(100):
        ground, ctx = constant_series_matrix(rng, size)
        d = constant_column(rng, size, ctx)
        e = constant_column(rng, size, ctx)
        j1 = rng.randrange(size - 1)
        j2 = rng.randrange(j1 + 1, size)
        assert ps.plucker_check(ground, d, e, j1, j2), (size, trial)
    _passed(6, f"100 random {size}x{size} instances satisfy the identity exactly")


def test_criterion_07_complete_integrability():
    rng = random.Random(70818)
    derived = 0
    for model in (
        heisenberg_model(2, 7),
        ps.make_model(
            2, ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", CTX2, 7), 7
        ),
        rigid_perturbation_model(rng, 2, 6),
        rigid_perturbation_model(rng, 2, 6),
    ):
        system = ps.derive_associated_system(model)
        report = ps.check_complete_integrability(system)
        assert report.ok, report.failures
        derived += 1

    pctx = ps.pde_context(2)
    bad = PdeSystem(2, 5, {(1, 1): ps.parse_series("x2", pctx, 5)})
    report = ps.check_complete_integrability(bad)
    assert not report.ok
    (k1, k2, k3, monomial, residual) = report.failures[0]
    assert (k1, k2, k3) == (1, 1, 2)
    assert monomial == "1" and residual == ps.gaussian(1)
    _passed(
        7,
        f"{derived} derived systems integrable; counterexample fails with residual 1",
    )


def test_criterion_08_implicit_round_trip():
    rng = random.Random(80818)
    ctx = ps.VariableContext(("p1", "p2", "u1", "u2"))
    trials = 0
    while trials < 20:
        jac = [[random_gaussian(rng, span=2) for _ in range(2)] for _ in range(2)]
        if not jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]:
            continue
        system = []
        for i in range(2):
            terms = {
                (0, 0, 1, 0): jac[i][0],
                (0, 0, 0, 1): jac[i][1],
            }
            eq = TruncatedSeries(ctx, 5, terms)
            higher = random_series(rng, ctx, 5, max_terms=3, degree=2)
            eq = eq + higher * ps.parse_series("p1 + p2", ctx, 5)
            system.append(eq)
        solution = ps.solve_implicit(system, ["u1", "u2"], ["t1", "t2"])
        out_ctx = solution["u1"].context
        for eq, t in zip(system, ["t1", "t2"]):
            back = eq.substitute(
                {"u1": solution["u1"], "u2": solution["u2"]}, target_context=out_ctx
            )
            target = TruncatedSeries.variable(out_ctx, back.order, t)
            assert back.agrees_with(target), trials
        trials += 1
    _passed(8, "20 random invertible systems round-trip exactly to order")


def test_criterion_09_reality_theorem_converse():
    rng = random.Random(90818)
    gctx = ps.graph_context(2)
    monos = [
        e for e in itertools.product(range(5), repeat=5) if 2 <= sum(e) <= 4
    ]
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    built = 0
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.choice(monos)] = ps.gaussian(rng.choice(pool))
        phi = TruncatedSeries(gctx, 5, terms)
        model = ps.from_graph(phi, 2, 5)
        assert ps.check_reality(model).ok
        built += 1
    _passed(9, f"{built} random real graphs convert to reality-exact models")


def test_criterion_10_signature():
    for n in (2, 3):
        for signs in itertools.product((1, -1), repeat=n):
            model = heisenberg_model(n, 5, signs)
            data = ps.levi(model)
            positives = sum(1 for s in signs if s > 0)
            assert data.signature == (positives, n - positives), (n, signs)

    theta = ps.parse_series("-wb + z1*z1b", CTX2, 5)
    degenerate = ps.HypersurfaceModel(n=2, theta=theta)
    with pytest.raises(LeviDegenerateError):
        ps.levi(degenerate)
    _passed(10, "diag models report exact signatures; degenerate input raises")
