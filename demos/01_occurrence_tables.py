"""Signed-occurrence distributions: the combinatorial ground layer.

A variable of a random 3-SAT formula at clause density c has a number of
occurrences that is asymptotically Poisson(3c), each occurrence carrying an
independent fair sign.  This script builds the resulting cell masses
kappa(x, p), folds them into their totally unbalanced counterparts, and
prints the derived constants the certificate consumes.
"""

import math

from typsat import ModelParams, build_tables, kappa_tilde
from typsat.distribution import poisson_log_pmf

params = ModelParams.certification()
typical, unbalanced, consts = build_tables(params)

print(f"density c = {params.c}, lambda = {params.lam}, truncation x_max = {params.x_max}")
print()

print("A slice of the typical table (x = 6):")
for p in range(7):
    print(f"  kappa(6, {p}) = {typical.value(6, p):.9e}")
print("and its unbalanced fold (doubled below the diagonal, zero above):")
for p in range(7):
    print(f"  kt(6, {p})    = {unbalanced.value(6, p):.9e}")
gap = max(abs(unbalanced.value(x, p) / kappa_tilde(x, p, params.lam) - 1.0)
          for x in range(params.x_max + 1) for p in range(x // 2 + 1))
print(f"every cell matches the pointwise kappa_tilde(x, p) to {gap:.1e} relative")
print()

print("Row sums equal the Poisson mass (binomial signs integrate out):")
for x in (0, 6, 13, 30, 56):
    mass = math.exp(poisson_log_pmf(x, params.lam))
    print(f"  x = {x:2d}: row sum = {typical.row_sum(x):.15e}, Poisson = {mass:.15e}")
print()

print("Mass conservation under unbalancing:")
print(f"  sum kappa over the triangle  = {typical.triangle_sum():.15f}")
print(f"  sum kt over the triangle     = {unbalanced.triangle_sum():.15f}")
print()

print("Derived constants:")
print(f"  D = {consts.D} cells, N = {consts.N} stationarity unknowns")
print(f"  K_tilde = {consts.K_tilde:.12f}")
print(f"  diagonal tail rho = {consts.rho:.3e} (enters the certificate as 2^rho)")
print(f"  Delta = {consts.delta} (accuracy transfer weight)")
