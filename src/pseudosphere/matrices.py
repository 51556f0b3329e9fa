"""Matrices of truncated series: exact determinants, cofactors, Cramer minors.

Every determinant is a Laplace expansion along the first column, memoized
over (row set, column set) pairs.  One such expansion of a square matrix
yields its determinant and all of its cofactors at once, and every Cramer
unit minor is a cofactor, so no replaced matrix is ever expanded on its
own; the jet transfer needs no other minor (``MinorFamily``), and the
elimination's Newton solve reads its inverse Jacobian off the same table
(``pde``).  The matrices here have side n+1 for CR dimension n, small
enough that the expansion beats fraction-free elimination and needs no
unit pivots.  A fundamental solution's rank condition at the origin is
the Levi check, the constant term of the family's determinant.  The same
expansion decides every other determinant question over Q(i): the
signature of a Hermitian form is read off its characteristic polynomial,
the determinant of a matrix of series in one variable.

The memo holds storages, the (denominator, grades) pairs of the series
kernels, not series: each sub-minor is the signed sum of its
entry-times-minor products, formed by one call of the product loop
``series._products``, which sums them in one accumulator and normalizes
once; a 1 x 1 minor is its entry, cut to the matrix order, with no
product formed.  A zero entry or a zero sub-minor leaves its product out
of the list, and a minor with no product left is the empty storage, with
no call of the loop: of the Levi matrix of a rigid model at n = 4, with
most entries and many sub-minors exactly 0, that is about half the
minors.  Only the outputs (the determinant and each cofactor) are
wrapped as series, each once.  The memo is a plain dict passed down the
recursion, not held by a closure that refers to itself: such a cycle
keeps every expansion's minors alive until the cyclic garbage collector
runs, whereas the dict is freed as soon as the expansion returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ContextMismatchError
from .scalars import ONE
from .series import TruncatedSeries, _cut, _negated, _products, _sum_of_products


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
                if e.context is not ctx and e.context != ctx:
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
        full, memo = self._expansion()
        return self._series(self._minor(memo, full, full))

    def cofactors(self):
        """``(det, table)`` from one shared expansion, where ``table[(r, c)]``
        is the cofactor (-1)^(r+c) det(M without row r and column c), 0-based;
        the adjugate of M is the transpose of the table.
        """
        full, memo = self._expansion()
        table = {}
        for r in full:
            for c in full:
                d, grades = self._minor(memo, full[:r] + full[r + 1 :], full[:c] + full[c + 1 :])
                table[(r, c)] = self._series((d, _negated(grades) if (r + c) % 2 else grades))
        return self._series(self._minor(memo, full, full)), table

    def _expansion(self):
        """The index tuple of the square matrix and a fresh memo for
        ``_minor`` that holds the storage of the empty minor, 1."""
        if self.rows != self.cols:
            raise ValueError(f"determinant of a {self.rows}x{self.cols} matrix")
        one = TruncatedSeries.constant(self.context, self.order, ONE)
        return tuple(range(self.rows)), {((), ()): (one._den, one._grades)}

    def _series(self, storage) -> TruncatedSeries:
        """The series of an expansion's storage, at the matrix order."""
        return TruncatedSeries._valid(self.context, self.order, *storage)

    def _minor(self, memo, rows, cols):
        """The storage of the determinant of the submatrix on the index
        tuples ``rows`` and ``cols``, expanded along its first column;
        ``memo`` maps each (rows, cols) pair already expanded to its
        storage.

        The sum is cut at ``self.order``.  That is the order the
        expansion on series had, min(entry.order, minor.order), since every
        entry has at least the matrix order and every memoized minor has
        exactly it; and sums at equal orders cut nothing.
        """
        key = (rows, cols)
        value = memo.get(key)
        if value is None and len(rows) == 1:
            # the entry itself: its product with the empty minor, 1
            entry = self.entries[rows[0]][cols[0]]
            value = memo[key] = _cut(entry._den, entry._grades, self.order)
        elif value is None:
            products = []
            for pos, r in enumerate(rows):
                entry = self.entries[r][cols[0]]
                if entry._grades:
                    sub = self._minor(memo, rows[:pos] + rows[pos + 1 :], cols[1:])
                    if sub[1]:
                        products.append((-1 if pos % 2 else 1, entry._den, entry._grades, *sub))
            value = memo[key] = _products(products, self.order) if products else (1, {})
        return value


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
# Cramer minors of the fundamental Jacobian-like determinant


@dataclass(frozen=True)
class MinorFamily:
    """The fundamental matrix, its determinant delta and its Cramer minors.

    The matrix has first row (dQ/da_1 .. dQ/da_{n+1}) and then one row
    (d^2Q/dx_k da_1 .. d^2Q/dx_k da_{n+1}) per base variable x_k, where
    the a_mu are the n+1 ``parameters``.  The unit minor D^mu_[l] replaces
    the mu-th column by the unit column with 1 in position 1+l (1-based;
    the x_l derivative row); it is the cofactor C[l, mu-1] of the table C
    of ``SeriesMatrix.cofactors`` (0-based), read by ``unit``.  The unit
    minors of one l are the coefficients of the field
    X_l = sum_mu D^mu_[l] d/da_mu, which is delta times d/d(y_{x^l}) at
    fixed x, y and other y_x.

    ``firsts`` holds (Q_x1 .. Q_xn), the first partials in the base
    variables ``bases`` that the rows after the first differentiate;
    ``seconds`` the pure second partials Q_{x_a x_b}, a <= b, each formed
    from ``firsts`` once.  The elimination, the direct tensor and
    ``cross_check`` read them here instead of forming them again.
    """

    delta: TruncatedSeries
    cofactor: dict
    matrix: SeriesMatrix
    parameters: tuple
    firsts: tuple
    bases: tuple

    def unit(self, mu: int, l: int) -> TruncatedSeries:
        return self.cofactor[(l, mu - 1)]

    def _apply(self, l: int, gradient, order: int) -> TruncatedSeries:
        """X_l of the series with parameter gradient ``gradient``, at the
        lowest of ``order`` and the orders of its products, one per mu
        whose unit minor and derivative are both nonzero."""
        return _sum_of_products(self.delta.context, order, [
            (1, self.unit(mu, l), d) for mu, d in enumerate(gradient, 1)
            if d._grades and self.unit(mu, l)._grades])

    @cached_property
    def seconds(self) -> dict:
        """{(a, b): Q_{x_a x_b}} for 1 <= a <= b <= n, with a the outer
        index."""
        return {(a, b): first.partial(self.bases[b - 1])
                for a, first in enumerate(self.firsts, 1)
                for b in range(a, len(self.firsts) + 1)}

    @cached_property
    def _delta_fields(self) -> dict:
        """{l: X_l delta}, at delta's order less one."""
        gradient = [self.delta.partial(a) for a in self.parameters]
        return {l: self._apply(l, gradient, self.delta.order - 1)
                for l in range(1, len(self.parameters))}

    def transfer(self, t: TruncatedSeries) -> dict:
        """The Cramer jet transfer of t, cleared of denominators.

        Returns the table {(l1, l2): series} for 1 <= l1 <= l2 <= n of

            delta * X_l1(X_l2 t) - (X_l1 delta) * (X_l2 t),

        which by the chain rule through d/d(y_{x^l}) = delta^-1 X_l is
        delta^3 d^2 G / d(y_{x^l1}) d(y_{x^l2}) for the G(x, y, y_x) equal
        to t under y = Q, y_x = Q_x, written back in (x, a).  This is the
        paper's double sum

            sum_{mu,nu} D^mu_[l1] D^nu_[l2]
                { delta * t_{mu nu} - sum_tau D^tau_[mu nu] * t_tau }

        with the second minors D^tau_[mu nu], which replace the tau-th
        column by the a_mu a_nu derivatives of (Q, Q_x1 .. Q_xn).

        Each X_l t and its parameter gradient are built once, X_l delta
        once per family.  Every entry has the order min(delta.order - 1,
        t.order - 2), and every product is cut at it, but those of X_l t:
        it is built one degree higher for its gradient, then cut before it
        meets X_l1 delta.  A t whose parameter derivatives all vanish
        transfers to 0 at min(delta.order, t.order - 2), the order of the
        double sum, whose second-minor terms vanish with t_tau.  A zero t
        does so without forming its n+1 partials; one of order 0 still
        raises in ``partial``, as every t of order 0 does, and one of order
        1 raises for the negative order.
        """
        params, columns = self.parameters, range(1, len(self.parameters))
        first = [t.partial(a) for a in params] if t._grades or not t.order else ()
        if all(d.is_zero() for d in first):
            zero = TruncatedSeries.zero(self.delta.context, min(self.delta.order, t.order - 2))
            return {(l1, l2): zero for l2 in columns for l1 in range(1, l2 + 1)}
        order = min(self.delta.order - 1, t.order - 2)
        table = {}
        for l2 in columns:
            pushed = self._apply(l2, first, order + 1)
            gradient = [pushed.partial(a) for a in params]
            pushed = pushed.truncate(order)
            for l1 in range(1, l2 + 1):
                table[(l1, l2)] = _sum_of_products(self.delta.context, order, [
                    (1, self.delta, self._apply(l1, gradient, order)),
                    (-1, self._delta_fields[l1], pushed)])
        return table


def _fundamental_matrix(q: TruncatedSeries, x_names, a_names):
    """The matrix with first row (q_a) and then one row (q_{x_k a}) per
    base variable x_k, over the n+1 parameters a, and the tuple of the
    q_{x_k}."""
    if len(a_names) != len(x_names) + 1:
        raise ValueError(f"expected {len(x_names) + 1} parameter names, got {len(a_names)}")
    firsts = tuple(q.partial(x) for x in x_names)
    return SeriesMatrix([[row.partial(a) for a in a_names] for row in (q, *firsts)]), firsts


def jacobian_minor_family(q: TruncatedSeries, x_names, a_names) -> MinorFamily:
    """Build the fundamental matrix of a series q with all of its minors.

    ``x_names`` are the n base variables, ``a_names`` the n+1 parameters
    (last one playing the role of the transversal constant).
    """
    matrix, firsts = _fundamental_matrix(q, x_names, a_names)
    delta, cofactor = matrix.cofactors()
    return MinorFamily(delta=delta, cofactor=cofactor, matrix=matrix,
                       parameters=tuple(a_names), firsts=firsts, bases=tuple(x_names))
