#!/usr/bin/env python3
"""The two independent curvature routes and what a nonzero witness means.

The direct route evaluates a fourth-order expression in the jets of
theta, assembled from Cramer minors of the Levi determinant.  The
transported route derives the associated second-order PDE system by
formal elimination, takes the second y_x-derivatives that the flatness
test reads there, and pulls them back.  The two raw tables must agree
coefficient by coefficient, and then the trace-adjusted tensor is the
same on both routes; the comparison runs below on a curved model and on
a disguised flat one.
"""

import pseudosphere as ps

ctx = ps.canonical_context(2)

print("== curved: -wb + |z1|^2 + |z2|^2 + |z1|^4 ==")
theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", ctx, 8)
model = ps.make_model(2, theta, 8)
report = ps.cross_check(model)
print("routes agree      :", report.ok)
print("certified order   :", report.certified_order)
for key in report.direct.component_keys():
    direct = report.direct.components[key]
    if not direct.is_zero():
        print(f"  W{key} = {direct}   (transported: {report.transported[key]})")
print()

print("== disguised flat: |z2 + z1^2|^2 replaces |z2|^2 ==")
disguised = ps.parse_series(
    "-wb + z1*z1b + z2*z2b + z1^2*z1b^2 + z1^2*z2b + z2*z1b^2", ctx, 8
)
verdict = ps.is_pseudospherical(ps.make_model(2, disguised, 8))
print("verdict           :", verdict)
print("(the defining series is the Heisenberg model transported through")
print(" the holomorphic map z2 -> z2 + z1^2, so vanishing is correct)")
print()

print("== the flatness test on a raw PDE system ==")
pctx = ps.pde_context(2)
system = ps.PdeSystem(2, 5, {(1, 1): ps.parse_series("yx1^2", pctx, 5)})
tensor = ps.hachtroudi_tensor(system)
witness = tensor.first_nonzero_witness()
print("y_x1x1 = (y_x1)^2 is not flattenable:", witness.coefficient,
      "at component", witness.component)
print("trace contraction is identically zero:",
      all(tensor.contract(k, l).is_zero() for k in (1, 2) for l in (1, 2)))
