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
adjustment turns such a table into the tensor.  Agreement of the two
routes, coefficient by coefficient, is the central correctness property
and is exposed as :func:`cross_check`.  It compares the raw tables
first: since the adjustment is linear and exact, equal tables give the
direct tensor on both sides, and only tables that differ are adjusted a
second time and compared component by component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientOrderError
from .hypersurface import HypersurfaceModel, _roles, minors, per_model
from .pde import PdeSystem, derive_associated_system
from .scalars import GaussianRational, brief_str
from .series import TruncatedSeries, _compose


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


def _assemble_trace_adjusted(n: int, raw: dict) -> dict:
    """Combine a raw second-derivative table into the trace-adjusted tensor.

    ``raw`` maps each (a, b, l1, l2) with a <= b and l1 <= l2 to a
    series; it stands for a table symmetric in (a, b) and in (l1, l2).
    Each single trace T_{k,l} = sum_l' raw(l', k, l', l) is formed once,
    already weighted by 1/(n+2), and the double trace is the sum of those
    weighted diagonal traces times 1/(n+1).  The output subtracts the four
    single traces and adds the double trace once per Kronecker term; those
    weights are exactly what makes every contraction sum_k W_{k,k2,k,l2}
    vanish.
    """

    def s(a, b, l1, l2):
        return raw[(min(a, b), max(a, b), min(l1, l2), max(l1, l2))]

    w = Fraction(1, n + 2)
    trace = {
        (k, l): sum((s(lp, k, lp, l) for lp in range(2, n + 1)), s(1, k, 1, l)).scale(w)
        for k in range(1, n + 1)
        for l in range(1, n + 1)
    }
    double = sum((trace[(lp, lp)] for lp in range(2, n + 1)), trace[(1, 1)])
    double = double.scale(Fraction(1, n + 1))

    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            for l1 in range(1, n + 1):
                for l2 in range(l1, n + 1):
                    comp = s(k1, k2, l1, l2)
                    if k1 == l1:
                        comp = comp - trace[(k2, l2)]
                    if k1 == l2:
                        comp = comp - trace[(k2, l1)]
                    if k2 == l1:
                        comp = comp - trace[(k1, l2)]
                    if k2 == l2:
                        comp = comp - trace[(k1, l1)]
                    if k1 == l1 and k2 == l2:
                        comp = comp + double
                    if k2 == l1 and k1 == l2:
                        comp = comp + double
                    components[(k1, k2, l1, l2)] = comp
    return components


def _jet_table(system: PdeSystem) -> dict:
    """{(a, b, l1, l2): d^2 F_ab / d(y_{x^l1}) d(y_{x^l2})} for a <= b and
    l1 <= l2, each first y_x-derivative of F_ab formed once."""
    n = system.n
    table = {}
    for a, b in system.component_keys():
        firsts = [system.component(a, b).partial(f"yx{l}") for l in range(1, n + 1)]
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
    """Coefficientwise comparison of the two tensor routes."""

    ok: bool
    certified_order: int
    mismatches: tuple  # of (component, monomial_text, direct, transported)
    direct: FlatnessTensor
    transported: dict  # component key -> series


def cross_check(model: HypersurfaceModel) -> CrossCheckReport:
    """Compare the direct tensor against the transported PDE-side tensor.

    The transported route derives the associated system by implicit
    elimination, takes the raw table of its second y_x-derivatives,
    substitutes y = theta and y_{x^k} = theta_{z_k}, and scales by the
    cube of the Levi determinant.  Both routes must agree exactly up to
    the common certified order.

    The raw tables are compared first.  Entry by entry, the transported
    table is the direct one, the Cramer transfer of theta_{z_a z_b}; when
    every entry agrees in its terms and its order, the transported
    components are the direct tensor's, since the trace adjustment is
    linear and exact.  Only otherwise is the transported table
    trace-adjusted and compared component by component.

    Each transported entry keeps the order of its pulled-back entry,
    model.order - 4 for the derived system, which is below delta's
    model.order - 2.  So delta is cut to the highest pulled order before
    it is cubed: the degrees above it would be dropped by every product
    anyway.
    """
    direct = main_theorem_tensor(model)
    jets = _jet_table(derive_associated_system(model))

    theta, z_names, _ = _roles(model)
    ctx = theta.context
    assignment = {"y": theta}
    for k, (z, first) in enumerate(zip(z_names, minors(model).firsts), 1):
        assignment[f"x{k}"] = TruncatedSeries.variable(ctx, theta.order, z)
        assignment[f"yx{k}"] = first

    pulled = _compose(list(jets.values()), assignment, ctx)
    delta = minors(model).delta.truncate(max(s.order for s in pulled))
    delta_cubed = delta * delta * delta
    table = {key: delta_cubed * series for key, series in zip(jets, pulled)}

    mismatches = []
    if all(table[key] == entry and table[key].order == entry.order
           for key, entry in _direct_table(model).items()):
        transported = dict(direct.components)
    else:
        transported = _assemble_trace_adjusted(model.n, table)
        for key in direct.component_keys():
            diff = direct.components[key] - transported[key]
            if diff.is_zero():
                continue
            exps, _ = diff.first_term()
            mismatches.append(
                (
                    key,
                    diff.monomial_text(exps),
                    direct.components[key].coefficient(exps),
                    transported[key].coefficient(exps),
                )
            )
    return CrossCheckReport(
        ok=not mismatches,
        certified_order=min([direct.certified_order]
                            + [series.order for series in transported.values()]),
        mismatches=tuple(mismatches),
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
