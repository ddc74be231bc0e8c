"""The two-variable stationarity system and its confined root.

The entropy maximization behind the expectation bound collapses to two
equations in (phi, beta1).  This script samples their zero loci, runs the
sign-exclusion spiral that pens every feasible common root into a tiny
rectangle, and shows the Newton root the spiral linearised its pushes about:
it lies inside the verified rectangle.
"""

from typsat import EqSystem, ModelParams, build_tables
from typsat.distribution import kappa_tilde_intervals
from typsat.pipeline import emit_curves
from typsat.params import WIDTH_TARGET
from typsat.rootbox import spiral_localize, verify_exclusion

params = ModelParams.certification()
consts = build_tables(params)
box = params.a_priori
system = EqSystem.build(params, consts)
eq1f, eq2f = system.eq1, system.eq2

print("-- the two zero loci, phi as a function of beta1 " + "-" * 20)
rows, _ = emit_curves(params, 9)
print("   beta1      phi[eq1=0]   phi[eq2=0]")
for r in rows:
    print(f"   {r['beta1']:.5f}    {r['phi_eq1']:.6f}     {r['phi_eq2']:.6f}")

print()
print("-- exclusion spiral " + "-" * 49)
trace = spiral_localize(eq1f, eq2f, box, width_target=WIDTH_TARGET)
rect = trace.rectangle
print(f"   witness sequences: K = {trace.K}, L = {trace.L}")
print(f"   confining rectangle: [{rect[0]:.8f}, {rect[1]:.8f}] x [{rect[2]:.8f}, {rect[3]:.8f}]")
report = verify_exclusion(trace, eq1f, eq2f, box)
print(f"   independent re-verification: {report.checks} sign checks, ok = {report.ok}, "
      f"smallest margin {report.min_margin:.3e}")
system_iv = EqSystem.build(params, kappa_tilde_intervals(params))
report_iv = verify_exclusion(trace, system_iv.eq1, system_iv.eq2, box)
print(f"   the same checks outward-rounded: {report_iv.checks} sign checks, ok = {report_iv.ok}, "
      f"smallest margin {report_iv.min_margin:.3e}")

print()
print("-- the spiral's Newton root, inside the verified rectangle " + "-" * 11)
root = trace.root  # kept on the in-memory trace; the certificate and the verdict leave it out
pt = system.point(root.phi, root.beta1)
print(f"   root = ({root.phi:.10f}, {root.beta1:.10f})")
print(f"   residuals = ({root.residuals[0]:.2e}, {root.residuals[1]:.2e})")
print(f"   U = {pt.U:.8f}, V = {pt.V:.8f}")
print(f"   inside the rectangle: "
      f"{rect[0] <= root.phi <= rect[1] and rect[2] <= root.beta1 <= rect[3]}")
