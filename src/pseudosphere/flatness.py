"""The curvature layer: flatness tensors and the pseudosphericality test.

Two independent routes compute the same obstruction:

* the direct route evaluates an explicit fourth-order expression in the
  jets of the defining series theta, built from the Levi determinant and
  its Cramer column-replacement minors, already cleared of denominators;
* the transported route derives the associated second-order PDE system
  by formal elimination, applies the trace-adjusted second-derivative
  test for equivalence to the straight system y'' = 0, and pulls the
  result back into the (z, zb, wb) chart, scaling by the cube of the
  Levi determinant.

Agreement of the two routes, coefficient by coefficient, is the central
correctness property and is exposed as :func:`cross_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientOrderError
from .hypersurface import HypersurfaceModel, minors, per_model
from .pde import PdeSystem, derive_associated_system
from .scalars import GaussianRational, brief_str
from .series import TruncatedSeries


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
                coefficient=series.terms[exps],
            )
        return None

    def verdict(self) -> PseudosphericalVerdict:
        """Vanishing through the certified order, or the first witness."""
        witness = self.first_nonzero_witness()
        return PseudosphericalVerdict(witness is None, self.certified_order, witness)


def _assemble_trace_adjusted(n: int, raw) -> dict:
    """Combine raw second-derivative data into the trace-adjusted tensor.

    ``raw(a, b, l1, l2)`` must be symmetric in (a, b) and in (l1, l2).
    The output subtracts the four single traces with weight 1/(n+2) and
    adds back the double trace with weight 1/((n+1)(n+2)); those weights
    are exactly what makes every contraction sum_k W_{k,k2,k,l2} vanish.
    """
    cache = {}

    def s(a, b, l1, l2):
        key = (min(a, b), max(a, b), min(l1, l2), max(l1, l2))
        value = cache.get(key)
        if value is None:
            value = raw(*key)
            cache[key] = value
        return value

    trace = {}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            acc = None
            for lp in range(1, n + 1):
                term = s(lp, k, lp, l)
                acc = term if acc is None else acc + term
            trace[(k, l)] = acc
    double = None
    for lp in range(1, n + 1):
        double = trace[(lp, lp)] if double is None else double + trace[(lp, lp)]

    w1 = Fraction(1, n + 2)
    w2 = Fraction(1, (n + 1) * (n + 2))
    components = {}
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            for l1 in range(1, n + 1):
                for l2 in range(l1, n + 1):
                    comp = s(k1, k2, l1, l2)
                    if k1 == l1:
                        comp = comp - trace[(k2, l2)].scale(w1)
                    if k1 == l2:
                        comp = comp - trace[(k2, l1)].scale(w1)
                    if k2 == l1:
                        comp = comp - trace[(k1, l2)].scale(w1)
                    if k2 == l2:
                        comp = comp - trace[(k1, l1)].scale(w1)
                    kron = int(k1 == l1 and k2 == l2) + int(k2 == l1 and k1 == l2)
                    if kron:
                        comp = comp + double.scale(w2 * kron)
                    components[(k1, k2, l1, l2)] = comp
    return components


def hachtroudi_tensor(system: PdeSystem) -> FlatnessTensor:
    """Trace-adjusted second y_x-derivatives of a second-order system.

    Vanishing of every component characterizes equivalence of the system
    to y_{x^k1 x^k2} = 0 under point transformations.
    """
    n = system.n

    def raw(a, b, l1, l2):
        return system.component(a, b).partial(f"yx{l1}").partial(f"yx{l2}")

    components = _assemble_trace_adjusted(n, raw)
    return FlatnessTensor(
        n=n, certified_order=system.order - 2, components=components
    )


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
    family = minors(model)
    theta = model.theta
    transfers = {
        (a, b): family.transfer(theta.partial(f"z{a}").partial(f"z{b}"))
        for a in range(1, n + 1)
        for b in range(a, n + 1)
    }
    components = _assemble_trace_adjusted(
        n, lambda a, b, l1, l2: transfers[(a, b)][(l1, l2)]
    )
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
    elimination, takes its trace-adjusted tensor in the jet chart,
    substitutes y = theta and y_{x^k} = theta_{z_k}, and scales by the
    cube of the Levi determinant.  Both routes must agree exactly up to
    the common certified order.
    """
    direct = main_theorem_tensor(model)
    system = derive_associated_system(model)
    jet_tensor = hachtroudi_tensor(system)

    n = model.n
    theta = model.theta
    ctx = theta.context
    delta = minors(model).delta
    delta_cubed = delta * delta * delta

    assignment = {"y": theta}
    for k in range(1, n + 1):
        assignment[f"x{k}"] = TruncatedSeries.variable(ctx, theta.order, f"z{k}")
        assignment[f"yx{k}"] = theta.partial(f"z{k}")

    transported = {}
    for key, series in jet_tensor.components.items():
        pulled = series.substitute(assignment, target_context=ctx)
        transported[key] = delta_cubed * pulled

    mismatches = []
    orders = [direct.certified_order]
    for key in direct.component_keys():
        diff = direct.components[key] - transported[key]
        orders.append(transported[key].order)
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
        certified_order=min(orders),
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


def is_pseudospherical(model: HypersurfaceModel, order: int | None = None) -> PseudosphericalVerdict:
    """Evaluate the flatness tensor and report vanishing to jet order.

    ``order`` selects the working jet order of theta (default: the
    model's own order); the verdict is certified to ``order - 4``.
    """
    if order is not None and order != model.order:
        from .hypersurface import make_model

        model = make_model(model.n, model.theta.truncate(order), order)
    return main_theorem_tensor(model).verdict()
