"""Order soundness: a result computed from an input at order d + 2 agrees
with the same result computed at order d, through the certified order of
the lower run.  A certified order that claims one degree too many shows
up as a disagreement in that degree."""

import random

from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import TruncatedSeries, VariableContext

from conftest import COEFF_POOL, random_graph, random_series, rigid_perturbation_model


def graph_models(seed, order):
    phi = random_graph(random.Random(seed), 2, order + 2)
    return ps.from_graph(phi, 2, order + 2), ps.from_graph(phi, 2, order)


def theta_models(seed, order):
    high = rigid_perturbation_model(random.Random(seed), 2, order + 2)
    return high, ps.make_model(2, high.theta, order)


def jet(series, order):
    return {e: c for e, c in series.terms.items() if sum(e) <= order}


def assert_agrees(high, low, certified):
    # the jets themselves, not ``agrees_with``, which stops at the lower
    # series order and so could not see a certified order above it
    assert jet(high, certified) == jet(low, certified), (certified, high, low)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([graph_models, theta_models]), st.integers(0, 2**32), st.sampled_from([5, 6]))
def test_minors_and_tensors_agree_at_orders_d_and_d_plus_two(models, seed, d):
    high, low = models(seed, d)
    delta = ps.minors(low).delta
    assert_agrees(ps.minors(high).delta, delta, delta.order)

    direct = ps.main_theorem_tensor(low)
    higher = ps.main_theorem_tensor(high)
    for key, series in direct.components.items():
        assert_agrees(higher.components[key], series, direct.certified_order)

    jet = ps.hachtroudi_tensor(ps.derive_associated_system(low))
    jet_higher = ps.hachtroudi_tensor(ps.derive_associated_system(high))
    for key, series in jet.components.items():
        assert_agrees(jet_higher.components[key], series, jet.certified_order)


SOURCE = VariableContext(("u", "v", "w"))
TARGET = VariableContext(("p", "v", "q"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_substitute_agrees_at_orders_d_and_d_plus_two(seed, d):
    rng = random.Random(seed)
    s = random_series(rng, SOURCE, d + 2, max_terms=6, pool=COEFF_POOL)
    values = {}
    for name in ("u", "w"):
        value = random_series(rng, TARGET, d + 2, max_terms=4, pool=COEFF_POOL)
        values[name] = value - value.constant_term()
    high = s.substitute(values)
    low = s.truncate(d).substitute({k: v.truncate(d) for k, v in values.items()})
    assert low.order == d
    assert_agrees(high, low, low.order)
    assert TruncatedSeries(TARGET, low.order, high.terms) == low
