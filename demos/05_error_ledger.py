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
ok, _, record = mo.verdict(system)
threshold = record["lambda_phi_min"]
print(f"   V_min = {record['v_min2']:.6f}, (U/V)_max = {record['uv_max2']:.5f}, "
      f"A = {record['A_bound']:.4f}, lambda phi_min = {threshold:.4f}")
for direction in ("eq2_fixed_phi", "eq2_fixed_beta1"):
    d = record[direction]
    print(f"   {direction:16s}: B = {d['B_bound']:.4f}, extra = {d['extra_bound']:.4f}; "
          f"total {d['total']:.4f} < {threshold:.4f} -> {d['verdict']}")
print()
print("-- why the first equation cannot vanish past its turning curves " + "-" * 4)
print(f"   Eq1* majorant along beta1*(phi): {record['eq1_star_majorant']:.4f} < 0")
for band in record["m_bands"]:
    lo, hi = band["band"]
    print(f"   Eq1** majorant on beta1 in [{lo}, {hi}]: {band['value']:.4f} < 0")
print(f"   monotone stage passes: {ok}")
