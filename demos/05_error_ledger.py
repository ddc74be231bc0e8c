"""The error ledger and the monotonicity certificates.

Replacing finite-size proportions by their limits costs a multiplicative
factor per replacement; this script prints the whole budget and the
derivative-sum certificates that justify the sign-exclusion machinery.
"""

from typsat import EqSystem, ModelParams, build_budget, build_tables
from typsat import monotone as mo
from typsat.distribution import kappa_tilde_intervals
from typsat.intervals import upper
from typsat.ledger import LEDGER_TARGETS

params = ModelParams.certification()
consts = build_tables(params)
system = EqSystem.build(params, consts)

print("-- accuracy and tail bounds " + "-" * 40)
budget = build_budget(params, consts)
for name in ("r1", "r2", "r3"):
    print(f"   {name.upper()} = {upper(getattr(budget, name)):.6e}")
print()
print("-- multiplicative slack factors (all >= 1) " + "-" * 25)
for name in ("ga", "gb", "gc", "g1", "g2"):
    print(f"   {name.upper():3s} - 1 = {upper(getattr(budget, name)) - 1.0:.6e}")
print(f"   full prefactor - 1 = {upper(budget.prefactor) - 1.0:.6e}   (target < 1e-7)")
print(f"   unbalancing  - 1   = {upper(budget.unbalancing_excess):.6e}  "
      f"(target < {LEDGER_TARGETS['unbalancing_excess']:.4g})")
print()

print("-- interval re-derivation (outward rounding everywhere) " + "-" * 12)
budget_iv = build_budget(params, kappa_tilde_intervals(params))
print(f"   prefactor upper  = 1 + {budget_iv.prefactor.upper() - 1.0:.6e}")
print(f"   unbalancing upper = 1 + {budget_iv.unbalancing_excess.upper():.6e}")
print()

print("-- why the second equation decreases in each variable " + "-" * 14)
for cert in mo.eq2_monotone_verdict(system):
    print(f"   {cert.direction:16s}: A = {cert.A_bound:.4f}, B = {cert.B_bound:.4f}, "
          f"extra = {cert.extra_bound:.4f}; total {cert.total():.4f} "
          f"< {cert.threshold:.4f} -> {cert.verdict}")
print()
print("-- why the first equation cannot vanish past its turning curves " + "-" * 4)
print(f"   Eq1* majorant along beta1*(phi): {mo.eq1_star_majorant(system):.4f} < 0")
for lo, hi in mo.M_BANDS:
    print(f"   Eq1** majorant on beta1 in [{lo}, {hi}]: "
          f"{mo.m_bound(lo, hi, system):.4f} < 0")
