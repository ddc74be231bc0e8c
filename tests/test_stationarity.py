import math

import numpy as np
import pytest

from typsat import intervals
from typsat import ledger as lg
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.errors import DomainError, SingularPointError
from typsat.intervals import Interval
from typsat.params import DELTA_NUM

from oracles import (alpha_closed_form, beta1_of_mu, eq1_over, eq2_eqb1, g2, gradient_f1,
                     h_weight, interval_equations, mu_closed_form, mu_index, mu_table,
                     objective_f1, phi_of_mu, projected_gradient)

LAM = 3 * 4.506


# -- points ----------------------------------------------------------------------

def test_final_rectangle_point_is_feasible(box, consts, params):
    pt = st.derive_point(0.56383233, 0.44651440)
    assert box.contains(pt.phi, pt.beta1)


def test_beta_partition_identity(box):
    pt = st.derive_point(0.57, 0.45)
    assert pt.beta1 + pt.beta2 + pt.beta3 == pytest.approx(1.0, abs=1e-14)


def test_singular_point_raises(box):
    with pytest.raises(SingularPointError):
        st.derive_point(0.12, 0.36)  # beta1 = 3 phi: Y = 0
    with pytest.raises(SingularPointError):
        st.derive_point(box.phi_min, box.beta1_min)  # beta3 < 0 corner


def test_uv_is_generic_over_number_types():
    phis, b1s = np.array([0.56, 0.57, 0.60]), np.array([0.44, 0.45, 0.40])
    u, v = st.uv(phis, b1s)
    for k in range(3):
        uk, vk = st.uv(float(phis[k]), float(b1s[k]))
        iu, iv = st.uv(Interval(phis[k]), Interval(b1s[k]))
        assert (u[k], v[k]) == (uk, vk)
        assert iu.contains(uk) and iv.contains(vk)
    with pytest.raises(SingularPointError):
        st.uv(np.array([0.56, 0.12]), np.array([0.44, 0.36]))
    with pytest.raises(SingularPointError):
        st.uv(Interval(0.12), Interval(0.36))


def test_v_at_polygon_vertex(box):
    # vertex beta2 = beta2_min, beta3 = beta3_max
    beta1 = 1.0 - box.beta2_min - box.beta3_max
    phi = (box.beta3_max + 2.0 - beta1) / 3.0
    pt = st.derive_point(phi, beta1)
    assert pt.V == pytest.approx(1.126983, abs=1e-6)


def v_alternate_form(pt: st.PhiBetaPoint) -> float:
    """V as (b1 + 6 phi - 3)^2 / (3 b3 (3 phi - b1)); must agree with pt.V."""
    t = pt.beta1 + 6.0 * pt.phi - 3.0
    return t * t / (3.0 * pt.beta3 * pt.Y)


def test_v_alternate_form_agrees(box, rng):
    for _ in range(200):
        phi = rng.uniform(box.phi_min, box.phi_max)
        b1 = rng.uniform(box.beta1_min, box.beta1_max)
        try:
            pt = st.derive_point(phi, b1)
        except SingularPointError:
            continue
        assert abs(v_alternate_form(pt) - pt.V) / pt.V < 1e-12


def test_uv_bounds_on_feasible_set(box, rng):
    u_poly_max, v_poly_min, uv_poly_max, uvm1_max = 0.0, math.inf, 0.0, 0.0
    hits = 0
    for _ in range(6000):
        phi = rng.uniform(box.phi_min, box.phi_max)
        b1 = rng.uniform(box.beta1_min, box.beta1_max)
        try:
            pt = st.derive_point(phi, b1)
        except SingularPointError:
            continue
        if not box.contains(pt.phi, pt.beta1):
            continue
        hits += 1
        u_poly_max = max(u_poly_max, pt.U)
        v_poly_min = min(v_poly_min, pt.V)
        uv_poly_max = max(uv_poly_max, pt.U / pt.V)
        uvm1_max = max(uvm1_max, pt.U * (pt.V - 1.0))
    assert hits > 1000
    assert u_poly_max <= 2.69268 + 1e-5          # U_max1
    assert v_poly_min >= 1.109255 - 1e-5         # V_min1 (crude)
    assert v_poly_min >= 1.126983 - 1e-6         # V_min2 (sharp)
    assert uv_poly_max <= 1.64966 + 1e-5         # (U/V)_max2
    assert uvm1_max <= 0.687424 + 1e-5           # U <= U_max2 / (V - 1)


# -- mu and alpha -------------------------------------------------------------------

def test_mu_p0_is_binomial_mass(root_point):
    pt = root_point
    q = (pt.V - 1.0) / pt.V
    for x in (1, 4, 9):
        for j in range(x + 1):
            expect = math.comb(x, j) * q**j * (1.0 - q) ** (x - j)
            assert mu_closed_form(x, 0, j, pt) == pytest.approx(expect, rel=1e-12)


def test_mu_row_sum_oracle_5_2(box):
    # independent oracle: plain summation against the closed denominator identity
    pt = st.derive_point(0.56383233, 0.44651440)
    x, p = 5, 2
    total = sum(mu_closed_form(x, p, j, pt) for j in range(x + 1))
    assert total == pytest.approx(1.0, abs=1e-12)
    num = pt.U ** (x - 2 * p) * (pt.V**p - 1.0)
    den = num + pt.V ** (x - p)
    alpha_direct = sum(mu_closed_form(x, p, j, pt) for j in range(p))
    assert alpha_direct == pytest.approx(num / den, rel=1e-12)
    assert alpha_closed_form(x, p, pt) == pytest.approx(num / den, rel=1e-12)


def test_mu_rows_sum_to_one_everywhere(root_point, consts):
    table = mu_table(root_point, consts)
    sums = table.row_sums()
    assert np.max(np.abs(sums - 1.0)) < 1e-10
    assert table.alpha[0] == 0.0  # (x, p) = (0, 0)


def test_mu_domain_errors(root_point):
    with pytest.raises(DomainError):
        mu_closed_form(3, 2, 0, root_point)  # 2p > x
    with pytest.raises(DomainError):
        mu_closed_form(4, 1, 5, root_point)  # j > x


def test_mu_index_matches_triple_loop(consts):
    # reference: the (x, p, j) triples written out as nested loops
    tx, tp, tj, row = [], [], [], []
    r = 0
    for x in range(57):
        for p in range(x // 2 + 1):
            for j in range(x + 1):
                tx.append(x)
                tp.append(p)
                tj.append(j)
                row.append(r)
            r += 1
    idx = mu_index(consts.x_max)
    for key, want in (("x", tx), ("p", tp), ("j", tj), ("row", row)):
        assert np.array_equal(idx[key], want)
    log_h = [math.log(math.comb(p, j) if j < p else math.comb(x - p, j - p))
             for x, p, j in zip(tx, tp, tj)]
    assert np.array_equal(idx["log_h"], log_h)
    assert idx["n_rows"] == row[-1] + 1 == consts.xs.size


def test_h_weights_are_branch_binomials(root_point, consts):
    # h(x, p, j) = C(p, j) below the branch point, C(x-p, j-p) at and above
    table = mu_table(root_point, consts)
    idx = mu_index(consts.x_max)
    for k in (0, 50, 500, 5000, 20000):
        x, p, j = int(idx["x"][k]), int(idx["p"][k]), int(idx["j"][k])
        want = math.comb(p, j) if j < p else math.comb(x - p, j - p)
        assert h_weight(x, p, j) == want
        assert table.log_h[k] == pytest.approx(math.log(want) if want > 1 else 0.0, abs=1e-12)


def test_alpha_zero_at_p0(root_point, consts):
    table = mu_table(root_point, consts)
    p0_rows = np.flatnonzero(consts.ps == 0)
    assert np.all(table.alpha[p0_rows] == 0.0)


# -- the two equations ---------------------------------------------------------------

def test_eq1_diagonal_terms_vanish(root_point, system):
    with_diag = eq1_over(system.cells_eq2, root_point, system)
    without = st.eq1(root_point, system)
    assert with_diag == pytest.approx(without, abs=1e-15)


def test_eq1_sign_change_across_rectangle(system, trace):
    # bisection oracle at fixed beta1 = 0.44651440
    eq1f = system.eq1
    b1 = 0.44651440
    lo, hi = trace.rectangle[0] - 1e-5, trace.rectangle[1] + 1e-5
    flo, fhi = eq1f(lo, b1), eq1f(hi, b1)
    assert flo > 0.0 > fhi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eq1f(mid, b1) > 0:
            lo = mid
        else:
            hi = mid
    assert trace.rectangle[0] - 1e-5 <= lo <= trace.rectangle[1] + 1e-5


def test_corner_sign_seeds(system, box):
    eq1f, eq2f = system.eq1, system.eq2
    assert eq1f(box.phi_min, box.beta1_max) > 0.0
    assert eq1f(box.phi_max, box.beta1_min) < 0.0
    assert eq2f(box.phi_min, box.beta1_min + 0.095) > 0.0  # feasible stand-in corner
    assert eq2f(box.phi_max, box.beta1_max) < 0.0


def test_eq2_seed_signs_spec_corners(system, box):
    # the exact spec corners: (phi_min, beta1_min) is singular (beta3 < 0), so
    # the nearest feasible boundary point carries the sign
    eq2f = system.eq2
    b_floor = (2.0 - 3.0 * box.phi_min) + 1e-6
    assert eq2f(box.phi_min, b_floor) > 0.0
    assert eq2f(box.phi_max, box.beta1_max) < 0.0


def test_interval_system_encloses_float_system(params, consts, system, trace):
    system_iv = st.EqSystem.build(params, consts, mode="interval")
    base = system_iv.log_base
    assert base.lower() - 1e-12 <= system.log_base <= base.upper() + 1e-12
    points = (list(zip(trace.phi_minus, trace.beta_plus))
              + list(zip(trace.phi_plus, trace.beta_minus)))
    for phi, b1 in points:
        for f, f_iv in ((system.eq1, system_iv.eq1), (system.eq2, system_iv.eq2)):
            val, enc = f(phi, b1), f_iv(phi, b1)
            assert enc.upper() - enc.lower() < 1e-9
            assert enc.lower() - 1e-12 <= val <= enc.upper() + 1e-12
    with pytest.raises(ValueError):
        st.EqSystem.build(params, consts, mode="decimal")


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_equations_at_no_points_return_empty(mode, params, consts):
    system = st.EqSystem.build(params, consts, mode=mode)
    for fn in (system.eq1, system.eq2):
        val = fn(np.array([]), np.array([]))
        ends = (val.lo, val.hi) if mode == "interval" else (val,)
        assert all(isinstance(e, np.ndarray) and e.shape == (0,) for e in ends)


# -- interval mode: the cell sums from two float corners -----------------------------

@pytest.fixture(scope="module")
def system_iv(params, consts):
    return st.EqSystem.build(params, consts, mode="interval")


@pytest.fixture(scope="module")
def checks(trace):
    """Each equation's trace checks: (phis, betas, signs)."""
    claims = rb._sign_claims(trace)
    return {eq: tuple(np.array([c[col] for c in claims if c[0].startswith(eq)])
                      for col in (2, 3, 4))
            for eq in ("eq1", "eq2")}


def test_corner_enclosures_overlap_the_all_interval_oracle(system_iv, checks):
    # on every trace check; Eq1's width is mostly K_tilde's (4.7e-12), which
    # both forms carry, so each is held to 1e-12 beyond it
    point_width = {"eq1": system_iv.K_tilde.hi - system_iv.K_tilde.lo, "eq2": 0.0}
    for i, (eq, fn) in enumerate((("eq1", system_iv.eq1), ("eq2", system_iv.eq2))):
        phis, betas, _ = checks[eq]
        new, old = fn(phis, betas), interval_equations(system_iv, phis, betas)[i]
        assert new.lo.shape == old.lo.shape == phis.shape
        assert np.all(new.lo <= old.hi) and np.all(old.lo <= new.hi)
        for enc in (new, old):
            assert np.all(enc.hi - enc.lo < point_width[eq] + 1e-12)


def _mp_terms(mp, eq, cells, corner):
    """50-digit cell terms at one corner's float inputs (weights included)."""
    if eq == "eq1":
        a, b = corner
    else:
        v, a, b, neg_b_den = corner
        v = mp.mpf(v)
    a, b = mp.mpf(a), mp.mpf(b)
    e_wa = {w: mp.exp(w * a) for w in set(cells.w.tolist())}
    e_pb = {p: mp.exp(-p * b) for p in set(cells.p.tolist())}
    if eq == "eq2":
        den = {p: mp.exp(-p * mp.mpf(neg_b_den)) - 1 for p in set(cells.p.tolist())}
    terms = []
    for wt, w, p in zip(cells.weight.tolist(), cells.w.tolist(), cells.p.tolist()):
        E = e_wa[w] * (1 - e_pb[p])
        t = mp.mpf(wt) * E / (1 + E)
        terms.append(t if eq == "eq1" else t * (v - 1) / (v * den[p]))
    return terms


@pytest.fixture(scope="module")
def corner_rounding(system, system_iv, checks):
    """At the first, worst-margin and last check of each equation and at both
    corners: (eq, float terms, 50-digit terms, weights, K, float sum, pad)."""
    mp = pytest.importorskip("mpmath")
    out = []
    with mp.workdps(50):
        for eq, fn, terms, cells in (("eq1", system.eq1, st._eq1_terms, system_iv.cells_eq1),
                                     ("eq2", system.eq2, st._eq2_terms, system_iv.cells_eq2)):
            phis, betas, signs = checks[eq]
            worst = int(np.argmin(signs * fn(phis, betas)))
            for k in (0, worst, len(phis) - 1):
                pt = system_iv.point(phis[k], betas[k])
                log_uv, log_v = st._logs(pt.U, pt.V)
                if eq == "eq1":
                    K = float(st._term_count(log_uv, log_v, cells))
                    ends = (log_uv, log_v)
                else:
                    K = float(st._term_count(log_uv, log_v, cells, pt.V))
                    ends = (pt.V, log_uv, log_v, -log_v)
                for end in ("lo", "hi"):
                    corner = tuple(float(getattr(z, end)) for z in ends)
                    at = cells._replace(weight=getattr(cells.weight, end))
                    s = st._row_sums(terms, at, *corner)
                    out.append((eq, terms(at, *corner), _mp_terms(mp, eq, at, corner),
                                at.weight, K, s, float(st._pad(s, at, K))))
    return mp, out


def test_rounding_lemma_bounds_every_cell_term(corner_rounding):
    # |float term - exact term| <= gamma_K weight, per cell, at the exact corner inputs
    mp, cases = corner_rounding
    u = 2.0 ** -53
    worst = {}
    for eq, floats, exact, weight, K, _, _ in cases:
        gamma = K * u / (1 - K * u)
        assert 0 < K < 1000
        with mp.workdps(50):
            ratio = max(abs(mp.mpf(f) - t) / (gamma * mp.mpf(wt))
                        for f, t, wt in zip(floats.tolist(), exact, weight.tolist()))
        worst[eq] = max(worst.get(eq, 0.0), float(ratio))
    print(f"largest |error| / (gamma_K weight): {worst}")
    assert all(0.0 < r <= 1.0 for r in worst.values())


def test_widened_corner_sums_hold_the_exact_sums(corner_rounding):
    mp, cases = corner_rounding
    for _, _, exact, _, _, s, pad in cases:
        with mp.workdps(50):
            assert abs(mp.mpf(s) - mp.fsum(exact)) <= pad
        assert 0.0 < pad < 1e-12


def test_interval_equations_step_only_point_arrays(monkeypatch, system_iv, checks):
    # outward steps on (points x cells) arrays would mean interval cell terms
    sizes = []

    def recording(step):
        def wrapped(x, k=1):
            sizes.append(np.size(x))
            return step(x, k)
        return wrapped

    for module in (intervals, st):
        for name in ("next_down", "next_up"):
            monkeypatch.setattr(module, name, recording(getattr(intervals, name)))
    for eq, fn in (("eq1", system_iv.eq1), ("eq2", system_iv.eq2)):
        phis, betas, _ = checks[eq]
        sizes.clear()
        fn(phis, betas)
        assert sizes and max(sizes) <= phis.size


def test_eq2_form_equivalence_at_root(root, box, system):
    pt = st.derive_point(root["phi"], root["beta1"])
    assert abs(st.eq1(pt, system)) < 1e-10
    mod2 = st.eq2(pt, system)
    eqb1 = eq2_eqb1(pt, system)
    assert abs(mod2 - eqb1) < 1e-8


def test_eq2_form_equivalence_across_grid(box, system, rng):
    for _ in range(150):
        phi = rng.uniform(box.phi_min, box.phi_max)
        b1 = rng.uniform(box.beta1_min, box.beta1_max)
        try:
            pt = st.derive_point(phi, b1)
        except SingularPointError:
            continue
        e1 = st.eq1(pt, system)
        gap = abs(eq2_eqb1(pt, system)
                  - st.eq2(pt, system))
        assert gap <= 1e-6 + 10.0 * abs(e1)


# -- g2 ---------------------------------------------------------------------------

def test_g2_finite_and_positive(root_point, system):
    val = st.log_g2(root_point, system)
    assert math.isfinite(val)
    assert g2(root_point, system) > 0.0


def test_g2_origin_factor_is_one(root_point, consts):
    log_uv = math.log(root_point.U / root_point.V)
    log_dens = st.log_den(log_uv, math.log(root_point.V), consts.w, consts.ps)
    assert log_dens[0] == pytest.approx(0.0, abs=1e-15)  # (x, p) = (0, 0)


def _log_den_reference(consts, U, V):
    """log(U^(x-2p) (V^p - 1) + V^(x-p)) per row, in logaddexp form."""
    logU, logV = math.log(U), math.log(V)
    w, p, x = consts.w, consts.ps, consts.xs
    with np.errstate(divide="ignore"):
        a = w * logU + np.log(np.expm1(p * logV))  # -inf at p = 0
    return np.logaddexp(a, (x - p) * logV)


def test_log_den_matches_logaddexp_form(root_point, consts, box):
    for pt in (root_point, st.derive_point(0.57, 0.45), st.derive_point(0.6, 0.4)):
        log_uv, log_v = math.log(pt.U) - math.log(pt.V), math.log(pt.V)
        got = st.log_den(log_uv, log_v, consts.w, consts.ps)
        want = _log_den_reference(consts, pt.U, pt.V)
        assert got[0] == want[0] == 0.0
        assert got[1:] == pytest.approx(want[1:], rel=1e-15)


def test_g2_consistency_with_mu_product(root, root_point, consts, system):
    # plug the closed-form mu into exp(sum kt sum_j mu log(mu/h)); must invert g2
    idx = mu_index(consts.x_max)
    table = mu_table(root_point, consts)
    kt_tri = consts.kt[idx["row"]]
    s = math.fsum((kt_tri * table.mu * (np.log(table.mu) - idx["log_h"])).tolist())
    assert s == pytest.approx(-st.log_g2(root_point, system), abs=1e-9)


# -- objective and gradient ----------------------------------------------------------

def _uniform_rows_mu(consts):
    idx = mu_index(consts.x_max)
    return 1.0 / (idx["x"] + 1.0)


def _feasible_mu(rng, consts, root_mu, t):
    """Mixture of the stationary mu with row-uniform noise; components stay
    bounded away from 0 so central differences at step 1e-6 are safe."""
    idx = mu_index(consts.x_max)
    starts = idx["row_starts"]
    noise = rng.uniform(0.5, 1.5, size=root_mu.shape) * _uniform_rows_mu(consts)
    sums = np.add.reduceat(noise, starts)
    noise = noise / sums[idx["row"]]
    return (1.0 - t) * root_mu + t * noise


def _objective_oracle_parts(mu, consts, params):
    """Independent transcription of the objective for the FD oracle."""
    idx = mu_index(consts.x_max)
    kt_tri = consts.kt[idx["row"]]
    ent = float(np.sum(kt_tri * mu * (idx["log_h"] - np.log(mu))))
    phi = phi_of_mu(mu, consts)
    b1 = beta1_of_mu(mu, consts)
    return ent, phi, b1


def _f_part(phi, b1, c):
    y = 3.0 * phi - b1
    b2 = 3.0 * (1.0 - phi) - 2.0 * b1
    b3 = b1 - 2.0 + 3.0 * phi
    return c * (y * math.log(y) + 3.0 * (1.0 - phi) * math.log(3.0 * (1.0 - phi))
                - b2 * math.log(b2) - b3 * math.log(3.0 * b3))


def _fd_gradient(mu, consts, params, step=1e-6):
    """Central finite differences of the objective, one coordinate at a time.

    phi and beta1 are affine in mu, so each perturbation shifts them by an
    exactly known amount (the affinity itself is cross-checked in
    test_affine_coordinates below); the entropy term updates locally.
    """
    idx = mu_index(consts.x_max)
    kt_tri = consts.kt[idx["row"]]
    lam, c = params.lam, params.c
    dphi = np.where(idx["lt"], -(idx["w"] * kt_tri) / lam, 0.0)
    db1 = idx["pmj"] * kt_tri / c
    _, phi0, b10 = _objective_oracle_parts(mu, consts, params)

    def ent_term(vals):
        return kt_tri * vals * (idx["log_h"] - np.log(vals))

    up = ent_term(mu + step)
    dn = ent_term(mu - step)
    grad = np.empty_like(mu)
    for k in range(mu.size):
        f_up = up[k] + _f_part(phi0 + dphi[k] * step, b10 + db1[k] * step, c)
        f_dn = dn[k] + _f_part(phi0 - dphi[k] * step, b10 - db1[k] * step, c)
        grad[k] = (f_up - f_dn) / (2.0 * step)
    return grad


def test_affine_coordinates(root_point, consts, params, rng):
    # phi_of_mu and beta1_of_mu shift linearly under coordinate perturbations
    idx = mu_index(consts.x_max)
    table = mu_table(root_point, consts)
    mu = table.mu
    kt_tri = consts.kt[idx["row"]]
    for k in rng.integers(0, mu.size, 40):
        step = 1e-4
        bumped = mu.copy()
        bumped[k] += step
        dphi = phi_of_mu(bumped, consts) - phi_of_mu(mu, consts)
        db1 = beta1_of_mu(bumped, consts) - beta1_of_mu(mu, consts)
        want_dphi = (-(idx["w"][k] * kt_tri[k]) / params.lam if idx["lt"][k] else 0.0) * step
        want_db1 = idx["pmj"][k] * kt_tri[k] / params.c * step
        assert dphi == pytest.approx(want_dphi, abs=1e-15)
        assert db1 == pytest.approx(want_db1, abs=1e-15)


def test_gradient_matches_fd_at_random_feasible_mu(root_point, consts, params, rng):
    table = mu_table(root_point, consts)
    mu = _feasible_mu(rng, consts, table.mu, t=0.12)
    grad = gradient_f1(mu, consts, params)
    fd = _fd_gradient(mu, consts, params)
    assert np.max(np.abs(grad - fd)) < 1e-5


def test_gradient_matches_naive_fd_subset(root_point, consts, params, rng):
    # deepest cross-check: plain objective re-evaluation on a coordinate subset
    table = mu_table(root_point, consts)
    mu = _feasible_mu(rng, consts, table.mu, t=0.12)
    grad = gradient_f1(mu, consts, params)
    step = 1e-6
    for k in rng.integers(0, mu.size, 120):
        up, dn = mu.copy(), mu.copy()
        up[k] += step
        dn[k] -= step
        fd = (objective_f1(up, consts, params)
              - objective_f1(dn, consts, params)) / (2.0 * step)
        assert grad[k] == pytest.approx(fd, abs=2e-5)


def test_gradient_rejects_null_coordinate(root_point, consts, params):
    table = mu_table(root_point, consts)
    mu = table.mu.copy()
    mu[5] = 0.0
    with pytest.raises(DomainError):
        gradient_f1(mu, consts, params)
    with pytest.raises(DomainError):
        objective_f1(mu, consts, params)


def test_projected_gradient_vanishes_at_root(root, root_point, consts, params):
    table = mu_table(root_point, consts)
    proj = projected_gradient(table.mu, consts, params)
    assert np.max(np.abs(proj)) < 1e-7


def test_row_perturbation_directional_derivative(root_point, consts, params, rng):
    # moving mass between two j's of one row changes f1 by the two-coordinate
    # directional derivative to first order
    table = mu_table(root_point, consts)
    mu = _feasible_mu(rng, consts, table.mu, t=0.1)
    grad = gradient_f1(mu, consts, params)
    idx = mu_index(consts.x_max)
    row = int(np.flatnonzero((idx["x"] == 7) & (idx["p"] == 2) & (idx["j"] == 0))[0])
    other = row + 3  # (7, 2, 3)
    for eps in (1e-5, 1e-6):
        bumped = mu.copy()
        bumped[row] += eps
        bumped[other] -= eps
        df = objective_f1(bumped, consts, params) - objective_f1(mu, consts, params)
        first_order = (grad[row] - grad[other]) * eps
        assert df == pytest.approx(first_order, abs=50 * eps * eps)


def test_objective_equals_log_g2_plus_cF_at_stationary_mu(root_point, consts, params, system):
    # three independently coded paths must agree at the stationary point:
    # the entropy objective at the closed-form mu, the normalizing product g2,
    # and the four-term F assembly
    pt = root_point
    table = mu_table(pt, consts)
    f1 = objective_f1(table.mu, consts, params)
    F = (pt.Y * math.log(pt.Y) + 3 * (1 - pt.phi) * math.log(3 * (1 - pt.phi))
         - pt.beta2 * math.log(pt.beta2) - pt.beta3 * math.log(3 * pt.beta3))
    assert f1 == pytest.approx(st.log_g2(pt, system) + params.c * F, abs=1e-12)


def test_stationary_mu_dominates_random_feasible(root_point, consts, params, rng):
    # the confined root carries the constrained maximum: no sampled feasible
    # perturbation improves the objective
    table = mu_table(root_point, consts)
    f_star = objective_f1(table.mu, consts, params)
    idx = mu_index(consts.x_max)
    starts = idx["row_starts"]
    tried = 0
    for _ in range(30):
        noise = rng.uniform(0.3, 1.7, size=table.mu.shape) * table.mu
        sums = np.add.reduceat(noise, starts)
        mu2 = noise / sums[idx["row"]]
        try:
            val = objective_f1(mu2, consts, params)
        except DomainError:
            continue
        tried += 1
        assert val <= f_star + 1e-12
    assert tried >= 20


def test_stationarity_closure(root, root_point, consts, params):
    # the elimination argument: plugging the closed-form mu back into the
    # affine coordinate maps reproduces (phi, beta1) at a solution
    table = mu_table(root_point, consts)
    assert phi_of_mu(table.mu, consts) == pytest.approx(root["phi"], abs=1e-8)
    assert beta1_of_mu(table.mu, consts) == pytest.approx(root["beta1"], abs=1e-8)


# -- monotonicity of U and V ----------------------------------------------------------

def test_u_increasing_v_decreasing_50x50(box):
    phis = np.linspace(box.phi_min, box.phi_max, 50)
    b1s = np.linspace(box.beta1_min, box.beta1_max, 50)
    u = np.full((50, 50), np.nan)
    v = np.full((50, 50), np.nan)
    feas = np.zeros((50, 50), dtype=bool)
    for i, f in enumerate(phis):
        for j, b in enumerate(b1s):
            if not box.contains(f, b):
                continue
            pt = st.derive_point(f, b)
            u[i, j], v[i, j], feas[i, j] = pt.U, pt.V, True
    for axis in (0, 1):
        a_u = u[:-1, :] if axis == 0 else u[:, :-1]
        b_u = u[1:, :] if axis == 0 else u[:, 1:]
        a_v = v[:-1, :] if axis == 0 else v[:, :-1]
        b_v = v[1:, :] if axis == 0 else v[:, 1:]
        ok = (feas[:-1, :] & feas[1:, :]) if axis == 0 else (feas[:, :-1] & feas[:, 1:])
        assert np.all((b_u - a_u)[ok] > 0.0)
        assert np.all((b_v - a_v)[ok] < 0.0)


# -- rate bound --------------------------------------------------------------------

def test_rate_point_mode_continuous_and_dominated(trace, box, consts, params, budget, rng, system,
                                                  root_point):
    rect = trace.rectangle
    rate_rect = st.rate_bound_rectangle(*rect, system, budget)
    assert 0.99 < st.rate_bound_point(root_point, system, budget) < 1.0
    assert 0.99 < rate_rect < 1.0
    samples = []
    for _ in range(25):
        phi = rng.uniform(rect[0], rect[1])
        b1 = rng.uniform(rect[2], rect[3])
        pt = st.derive_point(phi, b1)
        samples.append(st.rate_bound_point(pt, system, budget))
    samples = np.array(samples)
    # rectangle mode dominates every interior sample (after adding the
    # unbalancing factor the point mode deliberately omits)
    unb = float(np.exp(math.log(2.0) * (consts.rho + params.epsilon * consts.delta)))
    assert np.all(samples * unb <= rate_rect + 1e-12)
    assert samples.max() - samples.min() < 1e-4  # continuity at rectangle scale


def test_rate_on_target_rectangle(system, budget):
    # the headline constant: the corner bound over the target rectangle lands
    # just below 0.9999885 (computed: 0.99998840690...)
    from typsat.pipeline import TARGETS
    r = TARGETS["rectangle"]
    rate = st.rate_bound_rectangle(r[0], r[1], r[2], r[3], system, budget)
    assert 0.99998 < rate < TARGETS["rate"]
    assert rate == pytest.approx(0.9999884069006912, rel=1e-10)


def test_interval_rectangle_rate_encloses_its_corners(monkeypatch, params, consts, trace, system,
                                                      budget):
    # interval mode lifts the corners: every U/V and beta2/beta3/Y it
    # evaluates is an enclosure, not a nearest-rounded float
    system_iv = st.EqSystem.build(params, consts, mode="interval")
    budget_iv = lg.build_budget(params, consts, mode="interval")
    calls = []

    def recording(fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(st, "uv", recording(st.uv))
    monkeypatch.setattr(st, "point_fields", recording(st.point_fields))
    rate_iv = st.rate_bound_rectangle(*trace.rectangle, system_iv, budget_iv)
    monkeypatch.undo()
    assert len(calls) >= 6
    assert all(isinstance(a, Interval) for args in calls for a in args)
    rate = st.rate_bound_rectangle(*trace.rectangle, system, budget)
    assert rate_iv.lower() <= rate <= rate_iv.upper()


def test_rate_rejects_infeasible(box, system, budget):
    # nonsingular but outside the polygon: beta2 below its floor
    pt = st.derive_point(box.phi_max - 1e-4, box.beta1_max - 1e-4)
    assert not box.contains(pt.phi, pt.beta1)
    with pytest.raises(DomainError):
        st.rate_bound_point(pt, system, budget)
    with pytest.raises(DomainError):
        st.rate_bound_rectangle(box.phi_max - 2e-4, box.phi_max - 1e-4,
                                box.beta1_max - 2e-4, box.beta1_max - 1e-4,
                                system, budget)
