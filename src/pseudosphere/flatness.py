"""The curvature layer: flatness tensors and the pseudosphericality test.

Two independent routes compute the same obstruction:

* the direct route evaluates an explicit fourth-order expression in the
  jets of the defining series theta, the chain rule along the fields of
  the Levi determinant's Cramer unit minors, cleared of denominators;
* the transported route derives the associated second-order PDE system
  by formal elimination, takes its second y_x-derivatives, the raw data
  of the test for equivalence to the straight system y'' = 0, and pulls
  them back into the (z, zb, wb) chart, scaling by the cube of the Levi
  determinant.

Each route ends in one table of raw second derivatives, and one trace
adjustment turns such a table into the tensor.  The adjustment is one
integer weight map per n, built once: with L = (n+1)(n+2), each
component is (1/L) sum_R c_R raw_R over the raw entries R its formula
reads, with weight L on its own entry, -(n+1) on each entry of a single
trace it subtracts and +1 on each entry of a double trace it adds.  Only
the nonzero raw entries are scattered through the map, every component
has one order, the lowest of the table, zero entries included, and
every component is formed on one path: one weighted sum
(``series._combination``) of the nonzero entries that reach it, or the
zero series where none does.  Agreement of the two routes, coefficient
by coefficient, is the central correctness property and is exposed as
:func:`cross_check`.  On the solution submanifold each
transported raw entry is exactly the direct one, so the routes meet
before the trace adjustment: :func:`cross_check` compares the two raw
tables entry by entry at one common order, and the adjustment, linear
and exact, runs once, on the direct side only.

Most raw entries of a rigid model are exactly 0: on the first 12
pipeline-n4 benchmark inputs of seed 1 (n = 4, so 100 entries per
table), 94 entries of each table are 0 on average.  A zero theta_{z_a z_b}
transfers to the zero table without a partial (``MinorFamily.transfer``),
and ``cross_check`` pulls back and multiplies by delta^3 only the
nonzero jets; every zero jet's transported entry is one zero series of
the common order.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from functools import cache

from .errors import InsufficientOrderError
from .hypersurface import HypersurfaceModel, _roles, minors, per_model
from .pde import PdeSystem, derive_associated_system
from .scalars import GaussianRational, brief_str
from .series import TruncatedSeries, _combination, _compose


@dataclass(frozen=True)
class Witness:
    """A certified nonzero coefficient of a flatness tensor."""

    component: tuple          # (k1, k2, l1, l2)
    exponents: tuple
    monomial: str
    coefficient: GaussianRational


@dataclass(frozen=True)
class FlatnessTensor:
    """Components W_{k1,k2,l1,l2}, stored once per symmetric index pair.

    Symmetric in (k1, k2) and in (l1, l2); trace-free in the sense that
    sum_k W_{k,k2,k,l2} vanishes identically for every (k2, l2).
    """

    n: int
    certified_order: int
    components: dict

    def component(self, k1: int, k2: int, l1: int, l2: int) -> TruncatedSeries:
        key = (min(k1, k2), max(k1, k2), min(l1, l2), max(l1, l2))
        return self.components[key]

    def component_keys(self):
        return sorted(self.components)

    def is_zero(self) -> bool:
        return all(series.is_zero() for series in self.components.values())

    def contract(self, k2: int, l2: int) -> TruncatedSeries:
        """sum over k of W_{k, k2, k, l2}; identically zero by construction."""
        acc = None
        for k in range(1, self.n + 1):
            term = self.component(k, k2, k, l2)
            acc = term if acc is None else acc + term
        return acc

    def first_nonzero_witness(self) -> Witness | None:
        """Deterministic witness: smallest component index, then smallest
        exponent tuple in plain lexicographic order."""
        for key in self.component_keys():
            series = self.components[key]
            if series.is_zero():
                continue
            exps = min(series.terms)
            return Witness(
                component=key,
                exponents=exps,
                monomial=series.monomial_text(exps),
                coefficient=series.coefficient(exps),
            )
        return None

    def verdict(self) -> PseudosphericalVerdict:
        """Vanishing through the certified order, or the first witness."""
        witness = self.first_nonzero_witness()
        return PseudosphericalVerdict(witness is None, self.certified_order, witness)


@cache
def _trace_map(n: int) -> dict:
    """The trace adjustment at n as integer weights over L = (n+1)(n+2).

    Maps each raw key R = (a, b, l1, l2), a <= b and l1 <= l2, to the pairs
    (K, c_{K,R}) of the components K it reaches, so that W_K = (1/L) sum_R
    c_{K,R} raw_R.  Each component has weight L on its own entry, each
    entry of a single trace it subtracts has -(n+1), and each entry of a
    double trace it adds has +1, summed where an entry is several of
    these.  No weight cancels to 0 for any n from 2 to 8 (see the tests),
    so the raw keys that reach K are those its formula reads, K among
    them.
    """
    idx = range(1, n + 1)

    def key(a, b, l1, l2):
        return (min(a, b), max(a, b), min(l1, l2), max(l1, l2))

    columns = {}
    for k1, k2, l1, l2 in itertools.product(idx, repeat=4):
        if k1 > k2 or l1 > l2:
            continue
        weights = collections.Counter({(k1, k2, l1, l2): (n + 1) * (n + 2)})
        for delta, (k, l) in ((k1 == l1, (k2, l2)), (k1 == l2, (k2, l1)),
                              (k2 == l1, (k1, l2)), (k2 == l2, (k1, l1))):
            if delta:
                for m in idx:
                    weights[key(m, k, m, l)] -= n + 1
        pair = (k1 == l1 and k2 == l2) + (k2 == l1 and k1 == l2)
        if pair:
            for m, l in itertools.product(idx, repeat=2):
                weights[key(m, l, m, l)] += pair
        for r, c in weights.items():
            columns.setdefault(r, []).append(((k1, k2, l1, l2), c))
    return {r: tuple(reached) for r, reached in columns.items()}


def _assemble_trace_adjusted(n: int, raw: dict) -> dict:
    """Combine a raw second-derivative table into the trace-adjusted tensor.

    ``raw`` maps each (a, b, l1, l2) with a <= b and l1 <= l2 to a
    series; it stands for a table symmetric in (a, b) and in (l1, l2).
    Component K is (1/L) sum_R c_{K,R} raw_R with the integer weights of
    ``_trace_map(n)``, L = (n+1)(n+2): the table minus the four single
    traces, each weighted 1/(n+2), plus the double trace, weighted
    1/((n+1)(n+2)), once per Kronecker term; those weights are exactly
    what makes every contraction sum_k W_{k,k2,k,l2} vanish.  The
    components have the raw table's keys, since each reads its own entry.

    Every component has one order, the lowest of the table, zero entries
    included.  Only the nonzero raw entries are scattered to the
    components they reach; a component that some reach is one
    ``series._combination`` call over L, and every other component is one
    shared zero series of that order.
    """
    columns = _trace_map(n)
    reached = {}
    for r, series in raw.items():
        if series._grades:
            for k, c in columns[r]:
                reached.setdefault(k, []).append((c, series._den, series._grades))
    context = next(iter(raw.values())).context
    order = min(series.order for series in raw.values())
    zero = TruncatedSeries.zero(context, order)
    return {k: TruncatedSeries._valid(context, order,
                                      *_combination(reached[k], order, (n + 1) * (n + 2)))
            if k in reached else zero for k in raw}


def _jet_table(system: PdeSystem) -> dict:
    """{(a, b, l1, l2): d^2 F_ab / d(y_{x^l1}) d(y_{x^l2})} for a <= b and
    l1 <= l2, from the system's memoized first y_x-partials.  A zero F_ab
    gives zero entries at its order - 2, and no partial is formed."""
    n = system.n
    partials = system._yx_partials
    table = {}
    for a, b in system.component_keys():
        firsts = partials.get((a, b))
        if firsts is None:
            zero = TruncatedSeries.zero(system.context, system.component(a, b).order - 2)
            table.update(((a, b, l1, l2), zero)
                         for l1 in range(1, n + 1) for l2 in range(l1, n + 1))
            continue
        for l1 in range(1, n + 1):
            for l2 in range(l1, n + 1):
                table[(a, b, l1, l2)] = firsts[l1 - 1].partial(f"yx{l2}")
    return table


def hachtroudi_tensor(system: PdeSystem) -> FlatnessTensor:
    """Trace-adjusted second y_x-derivatives of a second-order system.

    Vanishing of every component characterizes equivalence of the system
    to y_{x^k1 x^k2} = 0 under point transformations.
    """
    n = system.n
    if system.order < 2:
        raise InsufficientOrderError(
            f"system order {system.order} < 2: certified order would be negative"
        )
    components = _assemble_trace_adjusted(n, _jet_table(system))
    return FlatnessTensor(
        n=n, certified_order=system.order - 2, components=components
    )


@per_model
def _direct_table(model: HypersurfaceModel) -> dict:
    """{(a, b, l1, l2): the Cramer transfer (``MinorFamily.transfer``) of
    theta_{z_a z_b}, entry (l1, l2)} for a <= b and l1 <= l2."""
    family = minors(model)
    table = {}
    for (a, b), second in family.seconds.items():
        for (l1, l2), entry in family.transfer(second).items():
            table[(a, b, l1, l2)] = entry
    return table


@per_model
def main_theorem_tensor(model: HypersurfaceModel) -> FlatnessTensor:
    """The direct fourth-order flatness tensor of a defining series.

    Each raw entry is the Cramer transfer (``MinorFamily.transfer``) of
    theta_{z_a z_b} through the Levi minors; the trace adjustment is then
    applied.  This is the second-derivative test transported to the
    (z, zb, wb) chart and cleared of its delta^3 denominator, so the model
    is pseudospherical iff every component vanishes.
    """
    n = model.n
    if model.order < 4:
        raise InsufficientOrderError(
            f"theta order {model.order} < 4: certified order would be negative"
        )
    components = _assemble_trace_adjusted(n, _direct_table(model))
    return FlatnessTensor(
        n=n, certified_order=model.order - 4, components=components
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Coefficientwise comparison of the two routes' raw tables.

    ``mismatches`` holds one ((a, b, l1, l2), monomial text, direct
    coefficient, transported coefficient) per raw entry where the routes
    differ, at the first monomial of their difference.  When there is
    none, ``transported`` maps each component key to the direct
    component cut to ``certified_order``, which the routes then share;
    otherwise no transported tensor is formed and it is empty.
    """

    ok: bool
    certified_order: int
    mismatches: tuple  # of (raw key, monomial_text, direct, transported)
    direct: FlatnessTensor
    transported: dict  # component key -> series; empty when not ok


def _pulled_back(jets: dict, assignment: dict, delta: TruncatedSeries, order: int) -> dict:
    """{key: delta^3 * (jet composed with ``assignment``)} at ``order``
    over ``jets``, a table of series in one context, whose images live in
    delta's; ``order`` is at most every jet's, every assigned value's and
    delta's order.

    Delta is cut to ``order`` and cubed once, and only the nonzero jets
    are composed, each cut to ``order`` first: the degrees above it would
    be dropped by every product anyway.  Every zero jet's entry is one
    shared zero series of ``order``.
    """
    table = dict.fromkeys(jets, TruncatedSeries.zero(delta.context, order))
    live = [key for key, jet in jets.items() if jet._grades]
    if live:
        delta = delta.truncate(order)
        delta_cubed = delta * delta * delta
        pulled = _compose([jets[key].truncate(order) for key in live], assignment, delta.context)
        table.update((key, delta_cubed * series) for key, series in zip(live, pulled))
    return table


def cross_check(model: HypersurfaceModel) -> CrossCheckReport:
    """Compare the direct tensor against the transported PDE-side tensor.

    The transported route derives the associated system by implicit
    elimination, takes the raw table of its second y_x-derivatives,
    substitutes y = theta and y_{x^k} = theta_{z_k}, and scales by the
    cube of the Levi determinant.  On the solution submanifold that is
    exactly the direct raw table, the Cramer transfer of theta_{z_a z_b},
    so the two raw tables are compared entry by entry, before any trace
    adjustment, and a difference is named at its raw entry.

    Everything is read at one order, the lowest of every direct raw
    entry, every jet, every assigned value and delta: the pull-back is
    formed at it, the tables are compared through it, and it is the
    certified order.  When the tables agree, the transported components
    are the direct tensor's cut to it, since the adjustment is linear and
    exact; otherwise the report lists the differing entries and forms no
    transported tensor.
    """
    direct = main_theorem_tensor(model)
    raw = _direct_table(model)
    jets = _jet_table(derive_associated_system(model))

    family = minors(model)
    theta, z_names, _ = _roles(model)
    assignment = {"y": theta}
    for k, (z, first) in enumerate(zip(z_names, family.firsts), 1):
        assignment[f"x{k}"] = TruncatedSeries.variable(theta.context, theta.order, z)
        assignment[f"yx{k}"] = first
    order = min(series.order for series in itertools.chain(
        raw.values(), jets.values(), assignment.values(), [family.delta]))
    table = _pulled_back(jets, assignment, family.delta, order)

    mismatches = []
    for key, series in raw.items():
        entry, pulled = series.truncate(order), table[key]
        if entry != pulled:
            exps, _ = (entry - pulled).first_term()
            mismatches.append((key, entry.monomial_text(exps),
                               entry.coefficient(exps), pulled.coefficient(exps)))
    transported = {} if mismatches else {
        key: series.truncate(order) for key, series in direct.components.items()}
    return CrossCheckReport(
        ok=not mismatches,
        certified_order=order,
        mismatches=tuple(sorted(mismatches)),
        direct=direct,
        transported=transported,
    )


@dataclass(frozen=True)
class PseudosphericalVerdict:
    """Outcome of the pseudosphericality test, always order-qualified.

    ``vanishes`` means every tensor coefficient is zero through the
    certified jet order; it never claims unconditional flatness of a
    truncated input.  A nonvanishing verdict carries a witness.
    """

    vanishes: bool
    certified_order: int
    witness: Witness | None = None

    def __str__(self):
        if self.vanishes:
            return f"VanishesToOrder({self.certified_order})"
        w = self.witness
        return (
            f"NonVanishing(component={w.component}, monomial={w.monomial}, "
            f"coefficient={brief_str(w.coefficient)})"
        )


def is_pseudospherical(model: HypersurfaceModel) -> PseudosphericalVerdict:
    """Evaluate the flatness tensor and report vanishing to jet order.

    The verdict is certified to the model's order minus 4.
    """
    return main_theorem_tensor(model).verdict()
