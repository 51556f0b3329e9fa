#!/usr/bin/env python3
"""Second-order PDE systems: derivation, integrability, recovery, transfer.

Eliminating (zb, wb) from {w = theta, w_z = theta_z} produces the
complete second-order system the hypersurface's complexified graphs
solve.  The converse direction starts from a fundamental solution
Q(x, a, b) and recovers the system.  The two are one function: a
model's theta is its own fundamental solution, with (x, a, b) =
(z, zb, wb), so `recover_system_from_solution` is
`derive_associated_system`, and both objects share one minor family.
The jet-transfer helper expresses second derivatives with respect to
the first-order jet variables back in the (x, a, b) chart without ever
solving implicitly.
"""

import pseudosphere as ps

ctx = ps.canonical_context(2)
fctx = ps.fundamental_context(2)

print("== derive the associated system ==")
theta = ps.parse_series("-wb + z1*z1b + z2*z2b + z1^2*z1b^2", ctx, 7)
model = ps.make_model(2, theta, 7)
system = ps.derive_associated_system(model)
for k1, k2 in system.component_keys():
    print(f"  F[{k1},{k2}] =", system.component(k1, k2))
print("completely integrable:", ps.check_complete_integrability(system).ok)
print()

print("== a system that is not integrable ==")
pctx = ps.pde_context(2)
bad = ps.PdeSystem(2, 5, {(1, 1): ps.parse_series("x2", pctx, 5)})
report = ps.check_complete_integrability(bad)
for (k1, k2, k3, monomial, residual) in report.failures:
    print(f"  D_{k3}(F[{k1},{k2}]) - D_{k2}(F[{k1},{k3}]) has residual "
          f"{residual} at {monomial}")
print()

print("== recover a system from its fundamental solution ==")
q = ps.parse_series("-b + x1*a1 + x2*a2 + x1^2*a1^2", fctx, 7)
solution = ps.FundamentalSolution(2, q)
print("normalized:", solution.normalized)
recovered = ps.recover_system_from_solution(solution)
print("  F[1,1] =", recovered.component(1, 1))
print()

print("== jet transfer of second derivatives ==")
t = ps.parse_series("a1*a2 + b*x1", fctx, 7)
for l1, l2 in ((1, 1), (1, 2), (2, 2)):
    out = ps.jet_transfer_second(solution, t, l1, l2)
    print(f"  d2/d(yx{l1})d(yx{l2}) of the matching jet function =", out)
print("(on the flat chart -b + x.a this reduces to plain differentiation:")
flat = ps.FundamentalSolution(2, ps.parse_series("-b + x1*a1 + x2*a2", fctx, 6))
print("  transfer of a1^2 at (1,1) =",
      ps.jet_transfer_second(flat, ps.parse_series("a1^2", fctx, 6), 1, 1), ")")
