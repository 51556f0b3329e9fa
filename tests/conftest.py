"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pseudosphere as ps
from pseudosphere.scalars import GaussianRational


# coefficients used for randomized exact inputs
COEFF_POOL = [
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(0, Fraction(1, 2)),
    GaussianRational(0, Fraction(-1, 2)),
]
REAL_POOL = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]


def heisenberg_theta(n, order, signs=None):
    """theta = -wb + sum_k eps_k z_k z_kb as an exact polynomial series."""
    ctx = ps.canonical_context(n)
    signs = signs or (1,) * n
    terms = {}
    wb = [0] * ctx.arity
    wb[ctx.index("wb")] = 1
    terms[tuple(wb)] = GaussianRational(-1)
    for k in range(1, n + 1):
        exps = [0] * ctx.arity
        exps[ctx.index(f"z{k}")] = 1
        exps[ctx.index(f"z{k}b")] = 1
        terms[tuple(exps)] = GaussianRational(signs[k - 1])
    return ps.TruncatedSeries(ctx, order, terms)


def heisenberg_model(n, order, signs=None):
    return ps.make_model(n, heisenberg_theta(n, order, signs), order)


def rigid_perturbation_model(rng, n, order, max_terms=3):
    """A reality-exact rigid cubic perturbation of the Heisenberg model.

    Adds pairs c * z^k zb^l + conj(c) * z^l zb^k of total degree 3 with c
    drawn from COEFF_POOL; the pairing makes both reality identities hold
    exactly, and degree-3 terms leave the Levi form untouched.
    """
    ctx = ps.canonical_context(n)
    z_monos = []  # exponent tuples over the z block only, total degree <= 3
    for exps in itertools.product(range(4), repeat=n):
        if 0 < sum(exps) <= 3:
            z_monos.append(exps)

    terms = dict(heisenberg_theta(n, order).terms)
    for _ in range(rng.randint(1, max_terms)):
        k = rng.choice(z_monos)
        l = rng.choice([e for e in z_monos if sum(e) + sum(k) == 3] or [None])
        if l is None:
            continue
        coeff = rng.choice(COEFF_POOL)
        if k == l and coeff.im:
            coeff = GaussianRational(coeff.im)  # diagonal pairs must be real
        direct = k + l + (0,)
        swapped = l + k + (0,)
        terms[direct] = terms.get(direct, GaussianRational(0)) + coeff
        terms[swapped] = terms.get(swapped, GaussianRational(0)) + coeff.conjugate()
    terms = {e: c for e, c in terms.items() if c}
    theta = ps.TruncatedSeries(ctx, order, terms)
    return ps.make_model(n, theta, order)


def random_gaussian(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.choice([1, 1, 2, 3])
    num_i = rng.randint(-span, span)
    return GaussianRational(Fraction(num, den), Fraction(num_i, den))


def constant_series_matrix(rng, size, order=0):
    """A size x size matrix of constant series over a 1-variable context."""
    ctx = ps.VariableContext(("u",))
    rows = [
        [
            ps.TruncatedSeries.constant(ctx, order, random_gaussian(rng))
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    return ps.SeriesMatrix(rows), ctx


def constant_column(rng, size, ctx, order=0):
    return [
        ps.TruncatedSeries.constant(ctx, order, random_gaussian(rng))
        for _ in range(size)
    ]


def random_series(rng, ctx, order, max_terms=5, degree=None, pool=None):
    pool = pool or COEFF_POOL
    degree = order if degree is None else degree
    exps_choices = [
        e
        for e in itertools.product(range(degree + 1), repeat=ctx.arity)
        if sum(e) <= degree
    ]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(exps_choices)] = rng.choice(pool)
    return ps.TruncatedSeries(ctx, order, terms)


ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading, fence):
    """The text of the first ``fence`` code block after README's ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


@pytest.fixture
def rng():
    return random.Random(20260808)
