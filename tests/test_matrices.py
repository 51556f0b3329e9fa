"""Determinants of series matrices and the column-exchange identity."""

import random

import pytest

import pseudosphere as ps
from pseudosphere import SeriesMatrix, TruncatedSeries, VariableContext
from pseudosphere.matrices import invert_scalar_matrix, scalar_determinant
from pseudosphere.scalars import GaussianRational, ONE, ZERO

from conftest import (
    constant_column,
    constant_series_matrix,
    heisenberg_model,
    random_gaussian,
)

CTX = VariableContext(("z1", "z2", "z1b", "z2b", "wb"))


def s(text, order=6):
    return ps.parse_series(text, CTX, order)


def test_two_by_two():
    m = SeriesMatrix([[s("1"), s("z1")], [s("z1b"), s("1")]])
    assert m.determinant() == s("1 - z1*z1b")


def test_identity_constant_matrix():
    one = s("1")
    zero = s("0")
    m = SeriesMatrix(
        [[one if i == j else zero for j in range(4)] for i in range(4)]
    )
    assert m.determinant() == one


def test_heisenberg_levi_determinant_vs_cofactor_oracle():
    # oracle: literal 3x3 cofactor expansion of [[z1, z2, -1], [1,0,0], [0,1,0]]
    model = heisenberg_model(2, 6)
    from pseudosphere.hypersurface import levi_matrix

    matrix = levi_matrix(model)
    a, b, c = matrix.entries[0]
    d, e, f = matrix.entries[1]
    g, h, i = matrix.entries[2]
    oracle = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det = matrix.determinant()
    assert det == oracle
    assert det == s("-1", order=4)  # (-1)^(n+1) for n = 2


def test_determinant_alternating_and_multilinear(rng):
    m, ctx = constant_series_matrix(rng, 3)
    det = m.determinant()
    swapped = SeriesMatrix(
        [(row[1], row[0], row[2]) for row in m.entries]
    ).determinant()
    assert (det + swapped).is_zero()
    scaled_col = [row[0].scale(GaussianRational(3)) for row in m.entries]
    scaled = m.with_column(0, scaled_col).determinant()
    assert scaled == det.scale(GaussianRational(3))


def test_non_square_determinant_rejected():
    m = SeriesMatrix([[s("1"), s("z1")]])
    with pytest.raises(ValueError):
        m.determinant()


def test_adjugate_identity_for_size_five(rng):
    ctx = VariableContext(("u", "v"))
    entries = []
    for i in range(5):
        row = []
        for j in range(5):
            terms = {(0, 0): random_gaussian(rng)}
            if rng.random() < 0.6:
                terms[(1, 0)] = random_gaussian(rng)
            if rng.random() < 0.4:
                terms[(0, 1)] = random_gaussian(rng)
            row.append(TruncatedSeries(ctx, 3 + (i + j) % 2, terms))
        entries.append(row)
    m = SeriesMatrix(entries)
    assert m.order == 3
    delta, cofactor = m.cofactors()
    assert delta == m.determinant()
    assert delta.order == 3
    assert {c.order for c in cofactor.values()} == {3}
    # M . adj(M) == delta . I, with adj(M)[k][s] = cofactor[(s, k)]
    for r in range(5):
        for s in range(5):
            acc = TruncatedSeries.zero(ctx, 3)
            for k in range(5):
                acc = acc + m.entries[r][k] * cofactor[(s, k)]
            assert acc.order == 3
            if r == s:
                assert acc == delta
            else:
                assert acc.is_zero()
    # a cofactor is the determinant of the matrix with a unit column
    unit = [TruncatedSeries.constant(ctx, 3, ONE if r == 2 else ZERO) for r in range(5)]
    assert m.with_column(4, unit).determinant() == cofactor[(2, 4)]


def test_plucker_trivial_two_by_two():
    ctx = VariableContext(("u",))
    one = TruncatedSeries.constant(ctx, 0, ONE)
    zero = TruncatedSeries.zero(ctx, 0)
    ground = SeriesMatrix([[one, zero], [zero, one]])
    assert ps.plucker_check(ground, [one, zero], [zero, one], 0, 1)


@pytest.mark.parametrize("size", [3, 4])
def test_plucker_random_instances(size):
    rng = random.Random(1000 + size)
    for _ in range(100):
        ground, ctx = constant_series_matrix(rng, size)
        d = constant_column(rng, size, ctx)
        e = constant_column(rng, size, ctx)
        j1 = rng.randrange(size - 1)
        j2 = rng.randrange(j1 + 1, size)
        assert ps.plucker_check(ground, d, e, j1, j2)


def test_plucker_dimension_checks():
    rng = random.Random(7)
    ground, ctx = constant_series_matrix(rng, 3)
    column = constant_column(rng, 3, ctx)
    with pytest.raises(ValueError):
        ps.plucker_check(ground, column, column[:2], 0, 1)
    with pytest.raises(ValueError):
        ps.plucker_check(ground, column, column, 1, 1)


def test_scalar_matrix_inverse(rng):
    for _ in range(10):
        m = [[random_gaussian(rng) for _ in range(3)] for _ in range(3)]
        if not scalar_determinant(m):
            continue
        inv = invert_scalar_matrix(m)
        for i in range(3):
            for j in range(3):
                acc = ZERO
                for k in range(3):
                    acc = acc + m[i][k] * inv[k][j]
                assert acc == (ONE if i == j else ZERO)


def test_singular_scalar_matrix_rejected():
    with pytest.raises(ps.SingularJacobianError):
        invert_scalar_matrix([[ONE, ONE], [ONE, ONE]])
