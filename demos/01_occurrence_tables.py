"""Signed-occurrence distributions: the combinatorial ground layer.

A variable of a random 3-SAT formula at clause density c has a number of
occurrences that is asymptotically Poisson(3c), each occurrence carrying an
independent fair sign.  This script prints the resulting cell masses
kappa(x, p), their totally unbalanced fold kt over p <= x/2, which is what
the certificate stores, and the derived constants the certificate consumes.
"""

import math

from typsat import ModelParams, build_tables, kappa, kappa_tilde
from typsat.distribution import poisson_log_pmf
from typsat.intervals import xsum

params = ModelParams.certification()
consts = build_tables(params)
lam = params.lam

print(f"density c = {params.c}, lambda = {lam}, truncation x_max = {params.x_max}")
print()

print("A slice of the typical masses (x = 6):")
for p in range(7):
    print(f"  kappa(6, {p}) = {kappa(6, p, lam):.9e}")
print("and its unbalanced fold (doubled below the diagonal, kept on it):")
row6 = consts.xs == 6
for p, kt in zip(consts.ps[row6], consts.kt[row6]):
    print(f"  kt(6, {p})    = {kt:.9e}")
gap = max(abs(kt / kappa_tilde(x, p, lam) - 1.0)
          for x, p, kt in zip(consts.xs.tolist(), consts.ps.tolist(), consts.kt.tolist()))
print(f"every stored cell matches the pointwise kappa_tilde(x, p) to {gap:.1e} relative")
print()

print("Each kt row folds a kappa row, so both sum to the Poisson mass of x")
print("(the certificate's tables stage checks the kt rows):")
for x in (0, 6, 13, 30, 56):
    mass = math.exp(poisson_log_pmf(x, lam))
    kappa_row = xsum([kappa(x, p, lam) for p in range(x + 1)])
    kt_row = xsum(consts.kt[consts.xs == x])
    print(f"  x = {x:2d}: kappa row = {kappa_row:.15e}, kt row = {kt_row:.15e}, "
          f"Poisson = {mass:.15e}")
print(f"  sum kt over the triangle = {xsum(consts.kt):.15f}")
print()

print("Derived constants:")
print(f"  D = {consts.D} cells, N = {consts.N} stationarity unknowns")
print(f"  K_tilde = {consts.K_tilde:.12f}")
print(f"  diagonal tail rho = {consts.rho:.3e} (enters the certificate as 2^rho)")
print(f"  Delta = {consts.delta} (accuracy transfer weight)")
