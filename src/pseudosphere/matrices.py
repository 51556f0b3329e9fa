"""Matrices of truncated series: exact determinants, cofactors, Cramer minors.

Every determinant is a Laplace expansion along the first column, memoized
over (row set, column set) pairs.  One such expansion of a square matrix
yields its determinant and all of its cofactors at once, and every Cramer
column-replacement minor is a cofactor, or a column times a cofactor
column, so no replaced matrix is ever expanded on its own.  The matrices
here have side n+1 for CR dimension n, small enough that the expansion
beats fraction-free elimination and needs no unit pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import ContextMismatchError, SingularJacobianError
from .scalars import GaussianRational, ONE, ZERO
from .series import TruncatedSeries


class SeriesMatrix:
    """A dense rows x cols grid of series sharing one context."""

    __slots__ = ("rows", "cols", "entries", "context", "order")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and column")
        self.rows = len(entries)
        self.cols = len(entries[0])
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged rows in matrix")
        ctx = entries[0][0].context
        for row in entries:
            for e in row:
                if e.context != ctx:
                    raise ContextMismatchError("matrix entries share no common context")
        self.entries = entries
        self.context = ctx
        self.order = min(e.order for row in entries for e in row)

    def with_column(self, j: int, column) -> "SeriesMatrix":
        column = tuple(column)
        if len(column) != self.rows:
            raise ValueError(f"column of length {len(column)} for {self.rows} rows")
        return SeriesMatrix(
            tuple(
                row[:j] + (column[i],) + row[j + 1 :]
                for i, row in enumerate(self.entries)
            )
        )

    def determinant(self) -> TruncatedSeries:
        full = tuple(range(self.rows))
        return self._laplace()(full, full)

    def cofactors(self):
        """``(det, table)`` from one shared expansion, where ``table[(r, c)]``
        is the cofactor (-1)^(r+c) det(M without row r and column c), 0-based;
        the adjugate of M is the transpose of the table.
        """
        full = tuple(range(self.rows))
        minor = self._laplace()
        table = {}
        for r in full:
            for c in full:
                sub = minor(full[:r] + full[r + 1 :], full[:c] + full[c + 1 :])
                table[(r, c)] = -sub if (r + c) % 2 else sub
        return minor(full, full), table

    def _laplace(self):
        """minor(rows, cols): the determinant of the submatrix on those index
        tuples, expanded along its first column and memoized per pair."""
        if self.rows != self.cols:
            raise ValueError(f"determinant of a {self.rows}x{self.cols} matrix")
        one = TruncatedSeries.constant(self.context, self.order, ONE)
        zero = TruncatedSeries.zero(self.context, self.order)
        memo = {}

        def minor(rows, cols):
            if not rows:
                return one
            key = (rows, cols)
            value = memo.get(key)
            if value is None:
                value = zero
                for pos, r in enumerate(rows):
                    entry = self.entries[r][cols[0]]
                    if not entry.terms:
                        continue
                    term = entry * minor(rows[:pos] + rows[pos + 1 :], cols[1:])
                    value = value - term if pos % 2 else value + term
                memo[key] = value
            return value

        return minor


def plucker_check(ground: SeriesMatrix, d_column, e_column, j1: int, j2: int) -> bool:
    """Exact quadratic identity between determinants under column exchange.

    With G the ground matrix and G[j := C] the matrix whose 0-based j-th
    column is replaced by C, checks

        det(G[j1:=D][j2:=E]) * det(G)
          == det(G[j1:=D]) * det(G[j2:=E]) - det(G[j1:=E]) * det(G[j2:=D]).
    """
    if ground.rows != ground.cols:
        raise ValueError("ground matrix must be square")
    if not 0 <= j1 < j2 < ground.cols:
        raise ValueError(f"need 0 <= j1 < j2 < {ground.cols}, got {(j1, j2)}")
    d_column = tuple(d_column)
    e_column = tuple(e_column)
    if len(d_column) != ground.rows or len(e_column) != ground.rows:
        raise ValueError("replacement columns have the wrong length")
    lhs = ground.with_column(j1, d_column).with_column(j2, e_column).determinant()
    lhs = lhs * ground.determinant()
    rhs = ground.with_column(j1, d_column).determinant() * ground.with_column(
        j2, e_column
    ).determinant() - ground.with_column(j1, e_column).determinant() * ground.with_column(
        j2, d_column
    ).determinant()
    return (lhs - rhs).is_zero()


# ----------------------------------------------------------------------
# exact linear algebra over Q(i)


def invert_scalar_matrix(rows):
    """Exact inverse of a square matrix of GaussianRational entries."""
    n = len(rows)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise SingularJacobianError("matrix is singular over Q(i)")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or not aug[r][col]:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def scalar_determinant(rows) -> GaussianRational:
    n = len(rows)
    m = [list(r) for r in rows]
    det = ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det = det * m[col][col]
        inv = ONE / m[col][col]
        for r in range(col + 1, n):
            if not m[r][col]:
                continue
            factor = m[r][col] * inv
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


# ----------------------------------------------------------------------
# Cramer minors of the fundamental Jacobian-like determinant


@dataclass(frozen=True)
class MinorFamily:
    """The fundamental matrix, its determinant delta and its Cramer minors.

    The matrix has first row (dQ/da_1 .. dQ/da_{n+1}) and then one row
    (d^2Q/dx_k da_1 .. d^2Q/dx_k da_{n+1}) per base variable x_k, where
    the a_mu are the n+1 ``parameters``.  Every Cramer minor is read off
    the matrix's cofactor table C (0-based, see ``SeriesMatrix.cofactors``):

    * the unit minor D^mu_[l] replaces the mu-th column by the unit column
      with 1 in position 1+l (1-based; the x_l derivative row), which is
      the cofactor C[l, mu-1] (``unit``);
    * the second minor D^tau_[mu nu] replaces the tau-th column by the
      column ``hessian[(mu, nu)]`` (mu <= nu) of a_mu a_nu derivatives of
      (Q, Q_x1 .. Q_xn), which is sum_r hessian[(mu, nu)][r] * C[r, tau-1];
      it is only ever needed contracted with a gradient, inside
      ``transfer``.
    """

    delta: TruncatedSeries
    cofactor: dict
    hessian: dict
    matrix: SeriesMatrix
    parameters: tuple

    def unit(self, mu: int, l: int) -> TruncatedSeries:
        return self.cofactor[(l, mu - 1)]

    def transfer(self, t: TruncatedSeries) -> dict:
        """The Cramer jet transfer of t, cleared of denominators.

        Returns the table {(l1, l2): series} for 1 <= l1 <= l2 <= n of

            sum_{mu,nu} D^mu_[l1] D^nu_[l2]
                { delta * t_{mu nu} - sum_tau D^tau_[mu nu] * t_tau }

        with subscripts on t its derivatives in the parameters, D^mu_[l]
        the unit minors and D^tau_[mu nu] the second minors.  Divided by
        delta^3 this is d^2 G / d(y_{x^l1}) d(y_{x^l2}) for the G(x, y, y_x)
        equal to t under y = Q, y_x = Q_x, written back in (x, a).

        The second-minor sum is sum_r H_{mu nu}[r] * w_r with H the Hessian
        column and w_r = sum_tau C[r, tau-1] * t_tau, computed once per t.
        The sum over r keeps zero Hessian entries, so that its guaranteed
        order is the minimum over the whole column.  The brace is computed
        once per (mu, nu) and shared by all (l1, l2).  A zero factor is
        skipped: it is exactly zero through its own order, which is at
        least the brace's, so the guaranteed order stays sound.
        """
        size = len(self.parameters)
        first = [t.partial(a) for a in self.parameters]
        nonzero = [(c, d) for c, d in enumerate(first) if not d.is_zero()]
        weights = [
            reduce(add, (self.cofactor[(r, c)] * d for c, d in nonzero))
            for r in range(size)
        ] if nonzero else []
        braces = {}

        def brace(mu, nu):
            key = (min(mu, nu), max(mu, nu))
            value = braces.get(key)
            if value is None:
                mu, nu = key
                value = self.delta * first[mu - 1].partial(self.parameters[nu - 1])
                for h, w in zip(self.hessian[key], weights):
                    value = value - h * w
                braces[key] = value
            return value

        table = {}
        for l1 in range(1, size):
            for l2 in range(l1, size):
                acc = None
                for mu in range(1, size + 1):
                    unit_mu = self.unit(mu, l1)
                    if unit_mu.is_zero():
                        continue
                    for nu in range(1, size + 1):
                        unit_nu = self.unit(nu, l2)
                        if unit_nu.is_zero():
                            continue
                        term = unit_mu * unit_nu * brace(mu, nu)
                        acc = term if acc is None else acc + term
                table[(l1, l2)] = acc
        return table


def jacobian_minor_family(q: TruncatedSeries, x_names, a_names) -> MinorFamily:
    """Build the fundamental matrix of a series q with all of its minors.

    ``x_names`` are the n base variables, ``a_names`` the n+1 parameters
    (last one playing the role of the transversal constant).
    """
    n = len(x_names)
    size = len(a_names)
    if size != n + 1:
        raise ValueError(f"expected {n + 1} parameter names, got {size}")

    rows = [[q.partial(a) for a in a_names]]
    for x in x_names:
        qx = q.partial(x)
        rows.append([qx.partial(a) for a in a_names])
    matrix = SeriesMatrix(rows)
    delta, cofactor = matrix.cofactors()
    hessian = {
        (mu, nu): tuple(row[mu - 1].partial(a_names[nu - 1]) for row in rows)
        for mu in range(1, size + 1)
        for nu in range(mu, size + 1)
    }
    return MinorFamily(delta=delta, cofactor=cofactor, hessian=hessian,
                       matrix=matrix, parameters=tuple(a_names))
