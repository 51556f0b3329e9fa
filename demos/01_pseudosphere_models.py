#!/usr/bin/env python3
"""Build hypersurface models and test them for pseudosphericality.

A model is given by a complex defining series w = theta(z, zb, wb) with
theta = -wb + O(2).  Construction is strict: the two reality identities
are verified exactly, so a series that does not cut out a real
hypersurface is rejected up front.
"""

import pseudosphere as ps

n = 2
order = 8
ctx = ps.canonical_context(n)

print("== the Heisenberg pseudosphere ==")
theta = ps.parse_series("-wb + z1*z1b + z2*z2b", ctx, order)
model = ps.make_model(n, theta, order)
data = ps.levi(model)
print("theta          :", model.theta)
print("Levi det at 0  :", data.delta_at_origin)
print("signature      :", data.signature)
verdict = ps.is_pseudospherical(model)
print("verdict        :", verdict)
print()

print("== signature does not influence flatness ==")
mixed = ps.make_model(n, ps.parse_series("-wb + z1*z1b - z2*z2b", ctx, order), order)
print("signature      :", ps.levi(mixed).signature)
print("verdict        :", ps.is_pseudospherical(mixed))
print()

print("== a curved perturbation ==")
quartic = ps.make_model(
    n, ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", ctx, order), order
)
verdict = ps.is_pseudospherical(quartic)
print("verdict        :", verdict)
print("witness sits in component", verdict.witness.component,
      "with coefficient", verdict.witness.coefficient)
print()

print("== rejected inputs ==")
try:
    ps.make_model(n, ps.parse_series("-wb + z1*z2b", ctx, order), order)
except ps.RealityError as exc:
    print("reality violation:", exc)
try:
    ps.levi(ps.HypersurfaceModel(n=2, theta=ps.parse_series("-wb + z1*z1b", ctx, 5)))
except ps.LeviDegenerateError as exc:
    print("degenerate Levi form:", exc)
