import dataclasses
import math

import numpy as np
import pytest

from typsat import monotone as mo
from typsat import stationarity as st
from typsat.errors import DomainError
from typsat.params import CERTIFICATION_BOX, ModelParams

from oracles import eq1_over, monotone_grid_report


# -- R and S ------------------------------------------------------------------------

def test_R_limit_at_one():
    assert mo.R_fixed_phi(1.0 + 1e-12) == pytest.approx(0.5, abs=1e-5)


def test_S_limit_at_one():
    assert mo.S_fixed_beta(1.0 + 1e-12) == pytest.approx(0.5, abs=1e-5)


def test_R_domain():
    with pytest.raises(DomainError):
        mo.R_fixed_phi(1.0)
    with pytest.raises(DomainError):
        mo.S_fixed_beta(0.9)


def test_tangent_fixed_phi_matches_paper():
    v_min2, _ = mo.polygon_extremize(CERTIFICATION_BOX)
    a1, b1 = mo.tangent_fixed_phi(v_min2)
    assert a1 == pytest.approx(2.4427, abs=5e-4)
    assert b1 == pytest.approx(-1.8194, abs=5e-4)


def test_tangent_fixed_beta_matches_paper():
    v_min2, _ = mo.polygon_extremize(CERTIFICATION_BOX)
    a1, b1 = mo.tangent_fixed_beta(v_min2)
    assert a1 == pytest.approx(2.2377, abs=5e-4)
    assert b1 == pytest.approx(-1.7173, abs=5e-4)


def test_concavity_by_second_differences():
    h = 1e-3
    for f in (mo.R_fixed_phi, mo.S_fixed_beta):
        for v in (1.2, 1.5, 2.0):
            second = f(v + h) - 2.0 * f(v) + f(v - h)
            assert second < 0.0


def test_S_continuity_at_removable_singularity():
    left = mo.S_fixed_beta(4.0 / 3.0 - 1e-7)
    right = mo.S_fixed_beta(4.0 / 3.0 + 1e-7)
    assert abs(left - right) < 1e-4
    # S is the rationalised form; the raw form agrees with it away from the
    # raw form's removable pole at V = 4/3
    for v in (1.2, 1.36, 1.8, 3.0):
        w = v - 1.0
        raw = 0.5 + 3.0 * w * (w - 1.0 + math.sqrt(w * (w + 1.0))) / (3.0 * w - 1.0)
        assert mo.S_fixed_beta(v) == pytest.approx(raw, rel=1e-12)


def test_derivatives_against_finite_differences():
    h = 1e-7
    for v in (1.12, 1.4, 2.3):
        fd_r = (mo.R_fixed_phi(v + h) - mo.R_fixed_phi(v - h)) / (2 * h)
        assert mo.dR_fixed_phi(v) == pytest.approx(fd_r, rel=1e-6)
        fd_s = (mo.S_fixed_beta(v + h) - mo.S_fixed_beta(v - h)) / (2 * h)
        assert mo.dS_fixed_beta(v) == pytest.approx(fd_s, rel=1e-6)


def test_tangent_dominates_curve():
    v_min2, _ = mo.polygon_extremize(CERTIFICATION_BOX)
    a_phi, b_phi = mo.tangent_fixed_phi(v_min2)
    a_beta, b_beta = mo.tangent_fixed_beta(v_min2)
    for v in np.linspace(v_min2, 5.0, 10_000):
        assert mo.R_fixed_phi(v) <= a_phi * v + b_phi + 1e-12
        assert mo.S_fixed_beta(v) <= a_beta * v + b_beta + 1e-12


def test_R_positive_and_below_S_empirically(box, rng):
    """R from its closed forms versus the finite-difference logarithmic
    derivative combination -(V'/(V(V-1)))^-1 (U'/U - V'/V)."""
    h = 1e-7
    for _ in range(120):
        phi = rng.uniform(box.phi_min + 1e-3, box.phi_max - 1e-3)
        b1 = rng.uniform(box.beta1_min + 1e-3, box.beta1_max - 1e-3)
        if not box.contains(phi, b1):
            continue
        pt = st.derive_point(phi, b1)

        def uv(f, b):
            q = st.derive_point(f, b)
            return q.U, q.V

        # fixed phi, vary beta1
        u_p, v_p = uv(phi, b1 + h)
        u_m, v_m = uv(phi, b1 - h)
        du, dv = (u_p - u_m) / (2 * h), (v_p - v_m) / (2 * h)
        r_emp = -(du / pt.U - dv / pt.V) * pt.V * (pt.V - 1.0) / dv
        r_closed = mo.R_fixed_phi(pt.V)
        assert r_emp > 0.0
        assert r_emp == pytest.approx(r_closed, rel=1e-4)
        # fixed beta1, vary phi: R stays below S
        u_p, v_p = uv(phi + h, b1)
        u_m, v_m = uv(phi - h, b1)
        du, dv = (u_p - u_m) / (2 * h), (v_p - v_m) / (2 * h)
        r_emp2 = -(du / pt.U - dv / pt.V) * pt.V * (pt.V - 1.0) / dv
        assert r_emp2 > 0.0
        assert r_emp2 < mo.S_fixed_beta(pt.V) + 1e-6


# -- vfrac and the AM-GM auxiliary -----------------------------------------------------

def test_vfrac_monotone_and_limits():
    # p = 1 collapses to the constant 1 (weakly decreasing); strict for p >= 2
    for p in (2, 5):
        vals = [mo.vfrac(v, p) for v in (1.1, 1.3, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for p in (1, 2, 5):
        # near-1 evaluation cancels catastrophically below ~1e-6, so probe at 1e-5
        assert mo.vfrac(1.0 + 1e-5, p) == pytest.approx((1.0 + 1.0 / p) / 2.0, abs=1e-4)
    for v in (1.1, 1.7, 4.0):
        assert mo.vfrac(v, 1) == pytest.approx(1.0, rel=1e-12)
    # vectorised over p; numpy's array pow and the scalar pow may round V^p
    # one ulp apart
    p = np.arange(1, 12)
    for v in (1.05, 1.127, 2.0):
        assert mo.vfrac(v, p) == pytest.approx([mo.vfrac(v, int(q)) for q in p], rel=1e-14)
    with pytest.raises(DomainError):
        mo.vfrac(1.2, np.array([1, 0, 2]))


def test_amgm_auxiliary_inequality(rng):
    r = rng.uniform(1e-3, 50.0, 100)
    s = rng.uniform(1e-3, 50.0, 100)
    rr, ss = np.meshgrid(r, s)
    assert np.all(rr / (1.0 + rr * ss) ** 2 <= 1.0 / (4.0 * ss) + 1e-15)


# -- A, B sums and verdicts --------------------------------------------------------------

def test_a_sum_below_paper_value(system):
    box = CERTIFICATION_BOX
    total = mo.a_sum(*mo.polygon_extremize(box), system)
    assert 0.0 < total < 1.894


def test_b_sum_values(system):
    box = CERTIFICATION_BOX
    v_min2, _ = mo.polygon_extremize(box)
    b_phi = mo.b_sum(*mo.tangent_fixed_phi(v_min2), v_min2, system)
    b_beta = mo.b_sum(*mo.tangent_fixed_beta(v_min2), v_min2, system)
    assert b_phi < 4.2269
    assert b_beta < 3.643


def test_b_sum_requires_dominant_slope(system):
    with pytest.raises(DomainError):
        mo.b_sum(1.0, -1.5, 1.2, system)


def test_eq2_monotone_verdicts(system):
    record = mo.eq2_monotone_verdict(system)
    assert list(record) == ["v_min2", "uv_max2", "A_bound", "lambda_phi_min",
                            "eq2_fixed_phi", "eq2_fixed_beta1"]
    phi, beta = record["eq2_fixed_phi"], record["eq2_fixed_beta1"]
    assert phi["verdict"] and beta["verdict"]
    # one V_min, (U/V)_max, A sum and threshold serve both directions
    v_min2, uv_max2 = mo.polygon_extremize(system.box)
    assert (record["v_min2"], record["uv_max2"]) == (v_min2, uv_max2)
    assert record["A_bound"] == mo.a_sum(v_min2, uv_max2, system)
    for direction in (phi, beta):
        assert direction["total"] == (record["A_bound"] + direction["B_bound"]
                                      + direction["extra_bound"])
    assert phi["tangent"] == list(mo.tangent_fixed_phi(v_min2)) and phi["extra_bound"] == 0.0
    assert beta["tangent"] == list(mo.tangent_fixed_beta(v_min2))
    assert phi["total"] < 6.125
    assert beta["extra_bound"] < 0.566
    assert beta["total"] < 6.103
    assert record["lambda_phi_min"] > 7.1


# -- the turning-point curves -------------------------------------------------------------

def test_phi_star_endpoints():
    assert mo.phi_star(0.0) == pytest.approx(0.75, abs=1e-12)
    assert mo.phi_star(1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def beta1_star(phi: float) -> float:
    """Turning point of the x = 2p+1 terms at fixed phi: sqrt(3) - 3(sqrt(3)-1) phi,
    the line along which eq1_star_majorant bounds Eq1*."""
    return mo.SQRT3 - 3.0 * (mo.SQRT3 - 1.0) * phi


def test_beta1_star_linear_decreasing():
    vals = [beta1_star(f) for f in np.linspace(0.5, 0.7, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)
    # slope is exactly -3(sqrt(3)-1)
    slope = (beta1_star(0.6) - beta1_star(0.5)) / 0.1
    assert slope == pytest.approx(-3.0 * (math.sqrt(3.0) - 1.0), rel=1e-12)


def test_uv_at_beta1_star(box):
    # at beta1*(phi): U = 3(1-phi)/(3phi-1) and V = 2/sqrt(3)
    for phi in (0.53, 0.56, 0.60):
        b1 = beta1_star(phi)
        pt = st.derive_point(phi, b1)
        assert pt.U == pytest.approx(3.0 * (1.0 - phi) / (3.0 * phi - 1.0), rel=1e-12)
        assert pt.V == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_phi_star_solves_quadratic_oracle():
    # X = 3 phi* - 1 must satisfy 2(1+Z)X^2 - Z(11+2Z)X + Z^2(11-Z) = 0
    for b1 in np.linspace(0.05, 0.95, 19):
        z = 1.0 - b1
        x = 3.0 * mo.phi_star(b1) - 1.0
        res = 2.0 * (1.0 + z) * x * x - z * (11.0 + 2.0 * z) * x + z * z * (11.0 - z)
        assert abs(res) < 1e-12


def test_uv_star_ranges_and_monotonicity():
    b1s = np.linspace(0.0, 1.0, 101)
    a_vals = 9.0 - math.sqrt(3.0) * np.sqrt(3.0 + 4.0 * b1s + 4.0 * b1s**2)
    b_vals = 4.0 - 2.0 * b1s
    assert np.all((3.0 - 1e-12 <= a_vals) & (a_vals <= 6.0 + 1e-12))
    assert np.all((2.0 - 1e-12 <= b_vals) & (b_vals <= 4.0 + 1e-12))
    pairs = [mo.uv_star(float(b)) for b in b1s[:-1]]
    v_star = [v for _, v in pairs]
    uv = [u / v for u, v in pairs]
    assert all(a > b for a, b in zip(v_star, v_star[1:]))
    assert all(a < b for a, b in zip(uv, uv[1:]))


def test_uv_star_consistent_with_direct_evaluation(box):
    for b1 in (0.33, 0.4, 0.468, 0.52891):
        u_star, v_star = mo.uv_star(b1)
        pt = st.derive_point(mo.phi_star(b1), b1)
        assert u_star == pytest.approx(pt.U, rel=1e-10)
        assert v_star == pytest.approx(pt.V, rel=1e-10)


# -- Eq1 exceptional families ---------------------------------------------------------------

def test_eq1_partial_ordering(box, system, rng):
    for _ in range(60):
        phi = rng.uniform(box.phi_min, box.phi_max)
        b1 = rng.uniform(box.beta1_min, box.beta1_max)
        if not box.contains(phi, b1):
            continue
        pt = st.derive_point(phi, b1)
        e = st.eq1(pt, system)
        e_star = eq1_over(mo._partial_cells(system, 1), pt, system)
        e_star2 = eq1_over(mo._partial_cells(system, 2), pt, system)
        assert e <= e_star + 1e-14
        assert e_star <= e_star2 + 1e-14


def test_eq1_partial_on_toy_table(box, params):
    # x_max = 2 leaves no x = 2p+1 rows: star removal is empty
    from typsat.distribution import DerivedConstants, kappa_tilde
    lam = params.lam
    xs = np.array([0, 1, 2, 2])
    ps = np.array([0, 0, 0, 1])
    kt = np.array([kappa_tilde(int(x), int(p), lam) for x, p in zip(xs, ps)])
    toy = DerivedConstants(mode="float", lam=lam, x_max=2, rho=0.0, delta=1.0, D=6, N=9,
                           K_tilde=float(((xs - ps) * kt).sum()),
                           xs=xs, ps=ps, w=xs - 2 * ps, kt=kt)
    toy_system = st.EqSystem.build(params, toy)
    pt = st.derive_point(0.56, 0.44)
    assert eq1_over(mo._partial_cells(toy_system, 1), pt, toy_system) == pytest.approx(
        st.eq1(pt, toy_system), abs=1e-15)


def test_eq1_star_majorant(system):
    val = mo.eq1_star_majorant(system)
    assert val < -0.157


def test_m_table(system):
    values = [mo.m_bound(lo, hi, system) for lo, hi in mo.M_BANDS]
    targets = (-0.051, -0.051, -0.062, -0.055)
    for v, t in zip(values, targets):
        assert v < t
    # bands cover the certification beta1 range
    box = CERTIFICATION_BOX
    assert mo.M_BANDS[0][0] <= box.beta1_min and mo.M_BANDS[-1][1] >= box.beta1_max


def _bracket_sum_reference(consts, w_min, uv_floor, inv_v, k_minus_lam_phi):
    """K - lambda phi - sum_{p>=1, x-2p>=w_min} kt (x-2p) [1 - 1/(1 + q^(x-2p) (1 - r^p))],
    written out in pow form on the raw tables, independent of the cell kernel."""
    mask = (consts.ps >= 1) & (consts.w >= w_min)
    kt, w, p = consts.kt[mask], consts.w[mask], consts.ps[mask]
    bracket = 1.0 - 1.0 / (1.0 + uv_floor**w.astype(float) * (1.0 - inv_v**p.astype(float)))
    return k_minus_lam_phi - math.fsum((kt * w * bracket).tolist())


def test_eq1_star_majorant_matches_pow_form(system, consts, params):
    box = params.a_priori
    q = (3.0 * math.sqrt(3.0) / 2.0) * (1.0 - box.phi_max) / (3.0 * box.phi_max - 1.0)
    want = _bracket_sum_reference(consts, 2, q, math.sqrt(3.0) / 2.0,
                                  consts.K_tilde - params.lam * box.phi_min)
    assert mo.eq1_star_majorant(system) == pytest.approx(want, rel=1e-15)


def test_m_bound_matches_pow_form(system, consts, params):
    for lo, hi in mo.M_BANDS:
        u_lo, v_lo = mo.uv_star(lo)
        _, v_hi = mo.uv_star(hi)
        want = _bracket_sum_reference(consts, 3, u_lo / v_lo, 1.0 / v_hi,
                                      consts.K_tilde - params.lam * mo.phi_star(hi))
        assert mo.m_bound(lo, hi, system) == pytest.approx(want, rel=1e-15)


# -- polygon extremization -------------------------------------------------------------------

def test_polygon_extremize_values():
    box = CERTIFICATION_BOX
    v_min2, uv_max2 = mo.polygon_extremize(box)
    assert v_min2 == pytest.approx(1.126983, abs=1e-6)
    assert uv_max2 == pytest.approx(1.64966, abs=1e-5)
    # V_min is V at the vertex (beta2_min, beta3_max)
    b1 = 1.0 - box.beta2_min - box.beta3_max
    vertex = st.derive_point((1.0 + box.beta2_min + 2.0 * box.beta3_max) / 3.0, b1)
    assert vertex.V == pytest.approx(v_min2, rel=1e-12)


@pytest.mark.parametrize("box", [
    CERTIFICATION_BOX, ModelParams(c=3.0).a_priori, ModelParams(c=4.6).a_priori,
], ids=["certification", "c3.0", "c4.6"])
def test_polygon_brute_force_grid(box):
    # 10^6-point grid over the polygon never undercuts V_min2 nor exceeds (U/V)_max2
    v_min2, uv_max2 = mo.polygon_extremize(box)
    phis = np.linspace(box.phi_min, box.phi_max, 1000)
    b1s = np.linspace(box.beta1_min, box.beta1_max, 1000)
    ff, bb = np.meshgrid(phis, b1s)
    beta2 = 3.0 * (1.0 - ff) - 2.0 * bb
    beta3 = bb - 2.0 + 3.0 * ff
    feas = ((beta2 >= box.beta2_min) & (beta2 <= box.beta2_max)
            & (beta3 >= box.beta3_min) & (beta3 <= box.beta3_max))
    y = 3.0 * ff - bb
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 9.0 * (1.0 - ff) * beta3 / (y * beta2)
        v = 1.0 + beta2**2 / (3.0 * y * beta3)
    assert feas.sum() > 10_000
    assert np.min(v[feas]) >= v_min2 - 1e-9
    assert np.max((u / v)[feas]) <= uv_max2 + 1e-9


@pytest.mark.parametrize("change, needed", [
    ({"beta2_min": 0.0}, "beta2_min > 0"),
    ({"beta3_min": -0.01}, "beta3_min > 0"),
    ({"beta2_max": 1.6}, "beta2_max \\+ 2 beta3_max < 2"),
], ids=["beta2_min", "beta3_min", "beta2_max"])
def test_polygon_extremize_names_broken_precondition(change, needed):
    box = dataclasses.replace(CERTIFICATION_BOX, **change)
    with pytest.raises(DomainError, match=needed):
        mo.polygon_extremize(box)


# -- E factorization and the grid report ---------------------------------------------------------

def test_E_factorization(box, rng):
    # E_(x,p) = (U/V)^(x-2p-2) E_(4,1) (1 + 1/V + ... + 1/V^(p-1))
    for _ in range(40):
        phi = rng.uniform(box.phi_min, box.phi_max)
        b1 = rng.uniform(box.beta1_min, box.beta1_max)
        if not box.contains(phi, b1):
            continue
        pt = st.derive_point(phi, b1)
        uv = pt.U / pt.V

        def E(x, p):
            return uv ** (x - 2 * p) * (1.0 - pt.V ** (-p))

        e41 = E(4, 1)
        for x, p in ((6, 1), (8, 2), (9, 2), (12, 4)):
            geo = sum(pt.V**-i for i in range(p))
            assert E(x, p) == pytest.approx(uv ** (x - 2 * p - 2) * e41 * geo, rel=1e-10)


def test_monotone_grid_report(system):
    report = monotone_grid_report(system, n=25)
    assert report["ok"]
    assert report["eq2"] and report["U"] and report["V"] and report["eq1_where_positive"]
    assert report["feasible_points"] > 200
