"""Acceptance suite: every headline claim of the certificate at its stated
tolerance, one pass/fail line per criterion (run with -s to see them all).

Criterion 2's unbalancing clause bounds the excess 2^(rho + eps*Delta) - 1
of the sign-renaming factor, not the factor itself: the factor lies within
~50 ulp of 1.0, where one ulp is 2.2e-16, so a target near 1 + 1e-14 cannot
be decided on a double.  With eps = 1e-15 and Delta = 14.5 the excess is
1.00507e-14 (50-digit mpmath), and the target 1.006e-14 fails as soon as
eps grows by 0.1%, Delta by one cell, or the tail rho reaches ~1e-17.
"""

import math
import time

import numpy as np

from typsat import distribution as dist
from typsat import formulas as fl
from typsat import ledger as lg
from typsat import monotone as mo
from typsat import pipeline as pl
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.intervals import upper
from typsat.params import WIDTH_TARGET

from oracles import gradient_f1, monotone_grid_report, mu_table, projected_gradient


def _report(num: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_final_verdict():
    t0 = time.perf_counter()
    cert = pl.certify(4.506, 56, 1e-15, mode="float")
    elapsed = time.perf_counter() - t0
    ok = (cert.verdict and cert.rate is not None
          and 0.9999 <= cert.rate <= 0.9999885 and elapsed < 60.0)
    assert _report("1", ok,
                   f"rate={cert.rate!r} in [0.9999, 0.9999885], verdict={cert.verdict}, "
                   f"runtime={elapsed:.2f}s < 60s")


def test_criterion_2a_prefactor_both_modes(params, consts, consts_iv):
    b_float = lg.build_budget(params, consts)
    b_iv = lg.build_budget(params, consts_iv)
    ok = (upper(b_float.prefactor) < 1.0 + 1e-7
          and upper(b_iv.prefactor) < 1.0 + 1e-7)
    assert _report("2a", ok,
                   f"G1*G2*exp(2 eps D/e) = {upper(b_float.prefactor)!r} (float), "
                   f"{upper(b_iv.prefactor)!r} (interval upper) < 1+1e-7")


def test_criterion_2b_unbalancing_both_modes(params, consts, consts_iv):
    # the factor exceeds 1 by at most the eps*Delta*ln2 scale: 1.00507e-14
    # against 1.006e-14, compared on the excess a double resolves
    b_float = lg.build_budget(params, consts)
    b_iv = lg.build_budget(params, consts_iv)
    target = lg.LEDGER_TARGETS["unbalancing_excess"]
    ok = (upper(b_float.unbalancing_excess) < target
          and upper(b_iv.unbalancing_excess) < target)
    assert _report(
        "2b", ok,
        f"2^(rho+eps*Delta) - 1 <= {upper(b_float.unbalancing_excess)!r} (float), "
        f"{upper(b_iv.unbalancing_excess)!r} (interval upper) < {target!r}; "
        f"eps*Delta*ln2 = {params.epsilon * consts.delta * math.log(2.0):.6e}")


def test_criterion_3_constants_table(params, system):
    t0 = time.perf_counter()
    box = params.a_priori
    checks = []
    v_min2, uv_max2 = mo.polygon_extremize(box)
    checks.append(("V_min2", abs(v_min2 - 1.126983) <= 1e-6))
    checks.append(("(U/V)_max2", abs(uv_max2 - 1.64966) <= 1e-5))
    a_phi, b_phi = mo.tangent_fixed_phi(v_min2)
    a_beta, b_beta = mo.tangent_fixed_beta(v_min2)
    checks.append(("tangent_phi", abs(a_phi - 2.4427) <= 5e-4 and abs(b_phi + 1.8194) <= 5e-4))
    checks.append(("tangent_beta", abs(a_beta - 2.2377) <= 5e-4 and abs(b_beta + 1.7173) <= 5e-4))
    a_val = mo.a_sum(v_min2, uv_max2, system)
    checks.append(("A<=1.894", a_val <= 1.894))
    b_val_phi = mo.b_sum(a_phi, b_phi, v_min2, system)
    b_val_beta = mo.b_sum(a_beta, b_beta, v_min2, system)
    checks.append(("B_phi<=4.2269", b_val_phi <= 4.2269))
    checks.append(("B_beta<=3.643", b_val_beta <= 3.643))
    extra = params.lam * (1.0 - box.beta1_min) / 16.0
    checks.append(("extra<0.566", extra < 0.566))
    lam_phi_min = params.lam * box.phi_min
    checks.append(("totals", a_val + b_val_phi < 6.125
                   and a_val + b_val_beta + extra < 6.103 < lam_phi_min))
    checks.append(("lambda_phi_min>7.1", lam_phi_min > 7.1))
    checks.append(("eq1_star<-0.157", mo.eq1_star_majorant(system) < -0.157))
    m_vals = [mo.m_bound(lo, hi, system) for lo, hi in mo.M_BANDS]
    m_targets = (-0.051, -0.051, -0.062, -0.055)
    checks.append(("M_table", all(v < t for v, t in zip(m_vals, m_targets))))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime<10s", elapsed < 10.0))
    bad = [name for name, good in checks if not good]
    assert _report("3", not bad,
                   f"{len(checks)} constant checks, failures={bad or 'none'}, "
                   f"runtime={elapsed:.2f}s")


def test_criterion_4_root_box(params, consts, system):
    t0 = time.perf_counter()
    trace = rb.spiral_localize(system.eq1, system.eq2, params.a_priori, width_target=WIDTH_TARGET)
    report = rb.verify_exclusion(trace, system.eq1, system.eq2, params.a_priori)
    rect = trace.rectangle
    contained = (0.5638320 <= rect[0] and rect[1] <= 0.5638326
                 and 0.4465139 <= rect[2] and rect[3] <= 0.4465149)
    root = trace.root  # the spiral's Newton root, which no stage checks
    elapsed = time.perf_counter() - t0
    ok = (report.ok and contained and root.found
          and rect[0] <= root.phi <= rect[1] and rect[2] <= root.beta1 <= rect[3]
          and max(abs(r) for r in root.residuals) < 1e-10 and elapsed < 30.0)
    assert _report("4", ok,
                   f"rectangle={[f'{v:.8f}' for v in rect]} inside widened target, "
                   f"{report.checks} checks ok={report.ok}, residuals<1e-10, "
                   f"runtime={elapsed:.2f}s < 30s")


def test_criterion_5_stationarity_self_consistency(params, consts, box, root, rng):
    root_pt = st.derive_point(root["phi"], root["beta1"])
    table = mu_table(root_pt, consts)
    proj = float(np.max(np.abs(projected_gradient(table.mu, consts, params))))
    ok_proj = proj < 1e-7

    from test_stationarity import _fd_gradient, _feasible_mu
    worst_fd = 0.0
    for _ in range(20):
        mu = _feasible_mu(rng, consts, table.mu, t=0.12)
        gap = float(np.max(np.abs(gradient_f1(mu, consts, params)
                                  - _fd_gradient(mu, consts, params))))
        worst_fd = max(worst_fd, gap)
    ok_fd = worst_fd < 1e-5

    worst_row = 0.0
    count = 0
    for phi in np.linspace(box.phi_min, box.phi_max, 18):
        for b1 in np.linspace(box.beta1_min, box.beta1_max, 18):
            if count >= 100 or not box.contains(phi, b1):
                continue
            pt = st.derive_point(phi, b1)
            sums = mu_table(pt, consts).row_sums()
            worst_row = max(worst_row, float(np.max(np.abs(sums - 1.0))))
            count += 1
    ok_rows = worst_row < 1e-10 and count >= 100
    ok = ok_proj and ok_fd and ok_rows
    assert _report("5", ok,
                   f"projected gradient {proj:.2e} < 1e-7, FD gap {worst_fd:.2e} < 1e-5 "
                   f"(20 points), row sums {worst_row:.2e} < 1e-10 ({count} grid points)")


def test_criterion_6_monotonicity_suites(system):
    t0 = time.perf_counter()
    report = monotone_grid_report(system, n=40)
    elapsed = time.perf_counter() - t0
    ok = (report["eq2"] and report["eq1_where_positive"] and report["U"]
          and report["V"] and elapsed < 20.0)
    assert _report("6", ok,
                   f"40x40 grid ({report['feasible_points']} feasible points): "
                   f"eq2 decreasing={report['eq2']}, eq1 decreasing where positive="
                   f"{report['eq1_where_positive']}, U inc={report['U']}, "
                   f"V dec={report['V']}, runtime={elapsed:.2f}s < 20s")


def test_criterion_7_distribution_suite(consts, kappa_rows):
    # kappa_rows holds dist.kappa over the full triangle; kt its fold
    sym = all(row[p] == row[x - p] for x, row in enumerate(kappa_rows) for p in range(x + 1))
    pmf = [math.exp(dist.poisson_log_pmf(x, consts.lam)) for x in range(57)]
    row = max(abs(math.fsum(consts.kt[consts.xs == x]) - m) / m for x, m in enumerate(pmf))
    total = math.fsum(math.fsum(r) for r in kappa_rows)
    mass = abs(math.fsum(consts.kt) - total) / total
    ok = sym and row < 1e-12 and mass < 1e-12
    assert _report("7", ok,
                   f"symmetry bit-exact={sym}, max row-sum error {row:.2e} < 1e-12, "
                   f"mass conservation error {mass:.2e} < 1e-12")


def test_criterion_8_empirical_lemma():
    t0 = time.perf_counter()
    report = pl.empirical_report(100_000, 4.506, 50, seed=0, x_cap=8)
    elapsed = time.perf_counter() - t0
    ok = report["ok"] and elapsed < 60.0
    assert _report("8", ok,
                   f"max |mean omega - kappa| = {report['max_abs_deviation']:.3e} over "
                   f"x<=8, cells over budget: {report['cells_over_budget']}, "
                   f"runtime={elapsed:.2f}s < 60s")


CORPUS_CHUNK = 100  # formulas a stacked truth_tables call: 0.4 MB tables stay in cache


def test_criterion_9_pps_oracle(rng):
    t0 = time.perf_counter()
    # exhaustive n=2, m=1 family
    from test_formulas import all_formulas
    exhaustive_ok = True
    n_formulas = 0
    for f in all_formulas(2, 1):
        n_formulas += 1
        bitmap = fl.pps_bitmap(f)
        sat = fl.solution_bitmap(f)
        exhaustive_ok &= bitmap.any() == sat.any()
        for bits in np.flatnonzero(bitmap):
            exhaustive_ok &= fl.is_pps(f, fl.Assignment.from_bits(int(bits), 2))
    assert n_formulas == 64

    # random corpus at n = 12, stacked CORPUS_CHUNK formulas to a truth_tables call
    corpus_ok = True
    pure_ok = True
    flip_checked = 0
    flip_lits, flip_bits = [], []
    children = np.random.SeedSequence(424242).spawn(10_000)
    for start in range(0, len(children), CORPUS_CHUNK):
        formulas = [fl.generate(12, 4.506, child) for child in children[start:start + CORPUS_CHUNK]]
        lits = np.stack([f.lits for f in formulas])
        sat, pps = fl.truth_tables(lits, 12)
        corpus_ok &= not np.any(sat.any(axis=-1) & ~pps.any(axis=-1))
        which, bits = np.nonzero(pps)  # every reported solution, formula by formula
        pure = np.array([sum(1 << int(v) for v in fl.pure_negative_vars(f)) for f in formulas])
        pure_ok &= not np.any(bits & pure[which])
        # flip test on every reported solution of each formula until 4,000 are counted
        counts = pps.sum(axis=-1)
        before = flip_checked + np.cumsum(counts) - counts
        take = before[which] < 4000
        flip_lits.append(lits[which[take]])
        flip_bits.append(bits[take])
        flip_checked += int(counts[before < 4000].sum())
    flip_bits = np.concatenate(flip_bits)
    values = (flip_bits[:, None] >> np.arange(12)) & 1 == 1  # bit k is variable k+1
    flipped_ok = fl.is_pps(np.concatenate(flip_lits), values)
    corpus_ok &= flipped_ok.size == flip_checked and bool(flipped_ok.all())

    oracle1 = pl.counting_oracle(1, 1.0)
    oracle2 = pl.counting_oracle(2, 0.5)
    oracle3 = pl.counting_oracle(2, 1.0)
    oracle_ok = all(r["violations"] == 0 and r["double_count_identity"]
                    for r in (oracle1, oracle2, oracle3))
    elapsed = time.perf_counter() - t0
    ok = exhaustive_ok and corpus_ok and pure_ok and oracle_ok and elapsed < 120.0
    assert _report("9", ok,
                   f"64 exhaustive formulas ok={exhaustive_ok}, 10^4-formula corpus "
                   f"(flip test on {flip_checked} reported solutions) ok={corpus_ok}, "
                   f"pure-negative rule ok={pure_ok}, counting bounds ok={oracle_ok}, "
                   f"runtime={elapsed:.2f}s < 120s")
