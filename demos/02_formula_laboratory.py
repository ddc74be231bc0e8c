"""Desk-scale experiments on random ordered-clauses formulas.

Everything the analytic pipeline asserts about random formulas can be
watched happening on small instances: occurrence proportions track the
kappa table, every satisfiable formula has a locally maximal solution,
pure negative variables never hold 1 in one, and renaming folds the
occurrence histogram exactly as the unbalanced table predicts.
"""

import numpy as np

from typsat import ModelParams, generate, kappa, measure_omega
from typsat.formulas import (Assignment, is_pps, pps_bitmap, pure_negative_vars, satisfies,
                             solution_bitmap, to_ocnf, totally_unbalanced_representative)

params = ModelParams.certification()

print("-- proportions vs the limiting masses " + "-" * 30)
formula = generate(200_000, 4.506, seed=1)
measured = measure_omega(formula, x_cap=6)
props = measured.proportions()
print("   (x, p)    measured      kappa")
for x, p in ((2, 1), (4, 2), (6, 1), (6, 3)):
    print(f"   ({x}, {p})   {props[x, p]:.6f}   {kappa(x, p, params.lam):.6f}")

print()
print("-- locally maximal solutions at n = 12 " + "-" * 29)
sat_count = pps_count = 0
flip_demos = 0
for seed in range(300):
    f = generate(12, 4.506, seed)
    if solution_bitmap(f).any():
        sat_count += 1
        bitmap = pps_bitmap(f)
        pps_count += bitmap.any()
        if flip_demos < 3 and bitmap.any():
            bits = int(np.flatnonzero(bitmap)[0])
            a = Assignment.from_bits(bits, 12)
            assert is_pps(f, a)
            flipped = a.values ^ np.eye(12, dtype=bool)[a.values]  # each 1 -> 0 flip alone
            assert satisfies(f, a) and not satisfies(f.lits, flipped).any()
            pure = pure_negative_vars(f)
            assert not any(a.values[v] for v in pure)
            flip_demos += 1
print(f"   satisfiable formulas: {sat_count} / 300")
print(f"   ... with a locally maximal solution: {pps_count} (must equal the above)")

print()
print("-- renaming and the unbalanced fold " + "-" * 33)
small = generate(8, 1.0, seed=4)
rep = totally_unbalanced_representative(small)
print("   original:")
print("   " + to_ocnf(small).replace("\n", "\n   "))
print("   totally unbalanced representative:")
print("   " + to_ocnf(rep).replace("\n", "\n   "))
w_f = measure_omega(small, 8).counts
w_r = measure_omega(rep, 8).counts
fold_ok = all(
    w_r[x, p] == (w_f[x, p] + w_f[x, x - p] if x > 2 * p else
                  (w_f[x, p] if x == 2 * p else 0))
    for x in range(9) for p in range(x + 1))
print(f"   occurrence histogram folds exactly as predicted: {fold_ok}")
