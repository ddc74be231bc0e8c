import dataclasses
import math

import numpy as np
import pytest

from typsat import distribution as dist
from typsat import intervals
from typsat import ledger as lg
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.errors import DomainError, SingularPointError
from typsat.intervals import Interval
from typsat.params import ModelParams

from oracles import (alpha_closed_form, beta1_of_mu, eq1_over, eq2_eqb1, g2, gradient_f1,
                     h_weight, interval_equations, log_den, mp_cell_terms, mp_log_base,
                     mu_closed_form, mu_index, mu_table, objective_f1, phi_of_mu,
                     projected_gradient)

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
    def uv(phi, b1):
        pt = st.derive_point(phi, b1)
        return pt.U, pt.V

    phis, b1s = np.array([0.56, 0.57, 0.60]), np.array([0.44, 0.45, 0.40])
    u, v = uv(phis, b1s)
    for k in range(3):
        uk, vk = uv(float(phis[k]), float(b1s[k]))
        iu, iv = uv(Interval(phis[k]), Interval(b1s[k]))
        assert (u[k], v[k]) == (uk, vk)
        assert iu.contains(uk) and iv.contains(vk)
    with pytest.raises(SingularPointError):
        uv(np.array([0.56, 0.12]), np.array([0.44, 0.36]))
    with pytest.raises(SingularPointError):
        uv(Interval(0.12), Interval(0.36))


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
    # the x = 2p cells of Eq2 added to the cells Eq1 sums change nothing
    diag = system.cells_eq2.w == 0
    cells = st.Cells(*(np.concatenate([d[diag], k])
                       for d, k in zip(system.cells_eq2, system.cut_eq1[0])))
    with_diag = eq1_over(cells, root_point, system)
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


@pytest.mark.parametrize("c", ["3", "4.506", "5"])
def test_log_base_against_product_form_oracle(c):
    # the paper's product form, with kt from 50-digit factorials, against the
    # base constant EqSystem reads off kt: enclosed in interval mode, within
    # 1e-13 in float
    mp = pytest.importorskip("mpmath")
    params = ModelParams(c=float(c), x_max=56)
    base = st.EqSystem.build(params, dist.build_tables(params)).log_base
    base_iv = st.EqSystem.build(params, dist.kappa_tilde_intervals(params)).log_base
    with mp.workdps(50):
        exact = mp_log_base(mp, c, params.x_max)
        assert mp.mpf(float(base_iv.lo)) <= exact <= mp.mpf(float(base_iv.hi))
        assert abs(mp.mpf(base) - exact) < 1e-13


def test_interval_system_encloses_float_system(params, consts, consts_iv, system, trace):
    system_iv = st.EqSystem.build(params, consts_iv)
    base = system_iv.log_base
    assert base.lower() - 1e-12 <= system.log_base <= base.upper() + 1e-12
    points = (list(zip(trace.phi_minus, trace.beta_plus))
              + list(zip(trace.phi_plus, trace.beta_minus)))
    for phi, b1 in points:
        for f, f_iv in ((system.eq1, system_iv.eq1), (system.eq2, system_iv.eq2)):
            val, enc = f(phi, b1), f_iv(phi, b1)
            assert enc.upper() - enc.lower() < 1e-9
            assert enc.lower() - 1e-12 <= val <= enc.upper() + 1e-12
    with pytest.raises(ValueError):  # the mode comes from the constants, and is checked
        st.EqSystem.build(params, dataclasses.replace(consts, mode="decimal"))


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_equations_at_no_points_return_empty(mode, params, consts, consts_iv):
    system = st.EqSystem.build(params, consts if mode == "float" else consts_iv)
    for fn in (system.eq1, system.eq2):
        val = fn(np.array([]), np.array([]))
        ends = (val.lo, val.hi) if mode == "interval" else (val,)
        assert all(isinstance(e, np.ndarray) and e.shape == (0,) for e in ends)


# -- interval mode: the cell sums from two float corners -----------------------------

@pytest.fixture(scope="module")
def system_iv(params, consts_iv):
    return st.EqSystem.build(params, consts_iv)


@pytest.fixture(scope="module")
def budget_iv(params, consts_iv):
    return lg.build_budget(params, consts_iv)


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


#: Each equation's (low, high) corners of (log(U/V), log V), as `_eq1_core`
#: and `_eq2_core` pass them to `_enclose`.
CORNERS = {"eq1": (("lo", "lo"), ("hi", "hi")), "eq2": (("lo", "hi"), ("hi", "lo"))}


@pytest.fixture(scope="module")
def signed_points(box, checks):
    """Each equation's (phis, betas, signs): its trace checks, then 300
    random feasible points with random signs."""
    gen = np.random.default_rng(4506)
    phis = gen.uniform(box.phi_min, box.phi_max, 2000)
    betas = gen.uniform(box.beta1_min, box.beta1_max, 2000)
    feasible = [k for k in range(2000) if box.contains(phis[k], betas[k])][:300]
    assert len(feasible) == 300
    signs = gen.choice([-1, 1], 300)
    return {eq: tuple(np.concatenate([a, b[feasible] if b is not signs else signs])
                      for a, b in zip(checks[eq], (phis, betas, signs)))
            for eq in ("eq1", "eq2")}


def test_a_sign_check_computes_only_the_end_it_reads(system_iv, signed_points):
    # a sign of +1 reads the lower end of Eq, -1 the upper end: that end is
    # the two-sided one bit for bit, batched or at a single point, and the
    # other end only widens the enclosure.  Eq1 falls and Eq2 grows with the
    # cell sum, so the unread end is infinite where the sum's unread end is
    # +inf (Eq1's lower end, Eq2's upper end) and finite where it is 0
    for eq, fn in (("eq1", system_iv.eq1), ("eq2", system_iv.eq2)):
        phis, betas, signs = signed_points[eq]
        both, one = fn(phis, betas), fn(phis, betas, signs)
        read = signs > 0
        assert one.lo[read].tobytes() == both.lo[read].tobytes()
        assert one.hi[~read].tobytes() == both.hi[~read].tobytes()
        assert np.all(one.lo <= both.lo) and np.all(both.hi <= one.hi)
        unread = np.where(read, one.hi, one.lo)
        infinite = ~read if eq == "eq1" else read
        assert np.all(np.isinf(unread[infinite])) and np.all(np.isfinite(unread[~infinite]))
        for k in (0, len(signs) // 2, len(signs) - 1):
            single = fn(phis[k], betas[k], int(signs[k]))
            assert (single.lo if read[k] else single.hi) == (one.lo if read[k] else one.hi)[k]


def test_an_unread_cell_sum_end_is_the_trivial_bound(system_iv, signed_points):
    # `_enclose` sums each corner only at the points whose side reads it: the
    # end read is the two-sided one bit for bit, the other is 0 below or
    # +inf above, the bounds of a sum of positive terms
    for eq, terms, (cells, tail) in (("eq1", st._eq1_terms, system_iv.cut_eq1),
                                     ("eq2", st._eq2_terms, system_iv.cut_eq2)):
        phis, betas, signs = signed_points[eq]
        pt = system_iv.point(phis, betas)
        log_uv, log_v = st._logs(pt.U, pt.V)
        count = st._term_count(log_uv, log_v, cells)
        low, high = ((getattr(log_uv, a), getattr(log_v, b)) for a, b in CORNERS[eq])
        both = st._enclose(terms, cells, count, low, high, tail)
        one = st._enclose(terms, cells, count, low, high, tail, signs)
        up = signs > 0
        assert one.hi[up].tobytes() == both.hi[up].tobytes()
        assert one.lo[~up].tobytes() == both.lo[~up].tobytes()
        assert np.all(one.lo[up] == 0.0) and np.all(one.hi[~up] == np.inf)
        assert np.all(0.0 < both.lo) and np.all(both.hi < np.inf)


@pytest.fixture(scope="module")
def corner_rounding(system, system_iv, checks):
    """At the first, worst-margin and last check of each equation and at both
    corners: (eq, float terms, 50-digit terms, K, float sum, pad)."""
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
                K = float(st._term_count(log_uv, log_v, cells))
                for weight_end, ends in zip(("lo", "hi"), CORNERS[eq]):
                    corner = (float(getattr(log_uv, ends[0])), float(getattr(log_v, ends[1])))
                    at = cells._replace(weight=getattr(cells.weight, weight_end))
                    s = st._row_sums(terms, at, *corner)
                    out.append((eq, terms(at, *corner), mp_cell_terms(mp, eq, at, *corner),
                                K, s, float(st._pad(s, at.w.size, K))))
    return mp, out


def test_rounding_lemma_bounds_every_cell_term(corner_rounding):
    # |float term - exact term| <= gamma_K exact term, per cell, at the exact
    # corner inputs, with one K for both equations
    mp, cases = corner_rounding
    u = 2.0 ** -53
    worst = {}
    for eq, floats, exact, K, _, _ in cases:
        gamma = K * u / (1 - K * u)
        assert 0 < K < 1000
        with mp.workdps(50):
            ratio = max(abs(mp.mpf(f) - t) / (gamma * t) for f, t in zip(floats.tolist(), exact))
        worst[eq] = max(worst.get(eq, 0.0), float(ratio))
    print(f"largest |error| / (gamma_K exact): {worst}")
    assert all(0.0 < r <= 1.0 for r in worst.values())


def test_widened_corner_sums_hold_the_exact_sums(corner_rounding):
    mp, cases = corner_rounding
    for _, _, exact, _, s, pad in cases:
        with mp.workdps(50):
            assert abs(mp.mpf(s) - mp.fsum(exact)) <= pad
        assert 0.0 < pad < 1e-12


def _cell_keys(cells: st.Cells) -> np.ndarray:
    """One integer per cell, (x, p) = (w + 2p, p) packed."""
    return ((cells.w + 2 * cells.p) * 4096 + cells.p).astype(np.int64)


def test_tails_bound_the_dropped_cells_and_enclosures_hold_the_whole_triangle(
        system, system_iv, checks, box):
    # at the first, worst-margin and last check of each equation and at the
    # three regular corners of the box, in 50 digits at the exact point: the
    # dropped cells' terms (weights at their upper ends) sum to at most the
    # stored tail (times F = max(1, 1/log V) for Eq2), and the interval
    # enclosure holds the equation over the whole triangle at both ends of
    # the enclosed constants
    mp = pytest.importorskip("mpmath")
    corners = [(box.phi_min, box.beta1_max), (box.phi_max, box.beta1_min),
               (box.phi_max, box.beta1_max)]
    K, lam, c = (tuple(mp.mpf(float(e)) for e in (v.lo, v.hi))
                 for v in (system_iv.K_tilde, system_iv.lam, system_iv.c))
    for eq in ("eq1", "eq2"):
        cells = getattr(system_iv, f"cells_{eq}")
        kept, tail = getattr(system_iv, f"cut_{eq}")
        drop = ~np.isin(_cell_keys(cells), _cell_keys(kept))
        assert 0 < np.count_nonzero(drop) == cells.w.size - kept.w.size
        phis, betas, signs = checks[eq]
        worst = int(np.argmin(signs * getattr(system, eq)(phis, betas)))
        points = [(phis[k], betas[k]) for k in (0, worst, len(phis) - 1)] + corners
        with mp.workdps(50):
            for phi, b1 in points:
                enc = getattr(system_iv, eq)(phi, b1)
                pt = st.derive_point(mp.mpf(float(phi)), mp.mpf(float(b1)))
                a, b = mp.log(pt.U / pt.V), mp.log(pt.V)

                def total(sub, end):
                    at = st.Cells(*(f[sub] for f in cells))
                    return mp.fsum(mp_cell_terms(mp, eq, at._replace(
                        weight=getattr(at.weight, end)), a, b))

                bound = tail if eq == "eq1" else tail * max(1, 1 / b)
                assert 0 < total(drop, "hi") <= bound
                s_lo, s_hi = total(slice(None), "lo"), total(slice(None), "hi")
                if eq == "eq1":
                    ends = (K[0] - lam[1] * pt.phi - s_hi, K[1] - lam[0] * pt.phi - s_lo)
                else:
                    ends = (-pt.beta1 * c[1] + (1 - 1 / pt.V) * (lam[0] * pt.phi + s_lo),
                            -pt.beta1 * c[0] + (1 - 1 / pt.V) * (lam[1] * pt.phi + s_hi))
                assert mp.mpf(float(enc.lo)) <= ends[0], (eq, phi, b1)
                assert ends[1] <= mp.mpf(float(enc.hi)), (eq, phi, b1)


def test_interval_equations_carry_the_tail_on_one_side(system_iv, checks):
    # the dropped cells raise the cell sum's upper end by T (Eq1) or by at
    # least F T, F = max(1, 1/log V's lower end) (Eq2), and leave its lower end
    for eq in ("eq1", "eq2"):
        phis, betas, _ = checks[eq]
        kept, tail = getattr(system_iv, f"cut_{eq}")
        untailed = dataclasses.replace(system_iv, **{f"cut_{eq}": (kept, 0.0)})
        new, old = (getattr(s, eq)(phis, betas) for s in (system_iv, untailed))
        if eq == "eq1":  # K_tilde - lam phi - sum
            assert np.array_equal(new.hi, old.hi) and np.all(old.lo - new.lo >= 0.99 * tail)
        else:  # -beta1 c + (1 - 1/V)(lam phi + sum)
            pt = system_iv.point(phis, betas)
            f_tail = tail * np.maximum(1.0, 1.0 / st._logs(pt.U, pt.V)[1].lo)
            assert np.array_equal(new.lo, old.lo)
            assert np.all(new.hi - old.hi >= 0.99 * (1.0 - 1.0 / pt.V).lo * f_tail)


def test_one_cut_for_both_modes_and_every_x_max(system, system_iv):
    # the same (x, p) cells are kept whatever the mode and x_max
    for eq in ("eq1", "eq2"):
        keys = _cell_keys(getattr(system, f"cut_{eq}")[0])
        for x_max in (56, 100, 320):
            params = ModelParams(c=4.506, x_max=x_max, epsilon=1e-15)
            for consts in (dist.build_tables(params), dist.kappa_tilde_intervals(params)):
                kept, tail = getattr(st.EqSystem.build(params, consts), f"cut_{eq}")
                assert np.array_equal(_cell_keys(kept), keys), (eq, x_max, consts.mode)
                assert 0.0 < tail < 1e-12


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


def test_eq2_form_equivalence_at_root(root, box, system, consts):
    pt = st.derive_point(root["phi"], root["beta1"])
    assert abs(st.eq1(pt, system)) < 1e-10
    mod2 = st.eq2(pt, system)
    eqb1 = eq2_eqb1(pt, system, consts)
    assert abs(mod2 - eqb1) < 1e-8


def test_eq2_form_equivalence_across_grid(box, system, consts, rng):
    for _ in range(150):
        phi = rng.uniform(box.phi_min, box.phi_max)
        b1 = rng.uniform(box.beta1_min, box.beta1_max)
        try:
            pt = st.derive_point(phi, b1)
        except SingularPointError:
            continue
        e1 = st.eq1(pt, system)
        gap = abs(eq2_eqb1(pt, system, consts)
                  - st.eq2(pt, system))
        assert gap <= 1e-6 + 10.0 * abs(e1)


# -- g2 ---------------------------------------------------------------------------

def test_g2_finite_and_positive(root_point, system):
    val = st.log_g2(root_point, system)
    assert math.isfinite(val)
    assert g2(root_point, system) > 0.0


def test_g2_origin_factor_is_one(root_point, consts):
    log_uv = math.log(root_point.U / root_point.V)
    log_dens = log_den(log_uv, math.log(root_point.V), consts.w, consts.ps)
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
        got = log_den(log_uv, log_v, consts.w, consts.ps)
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

#: Feasible points away from the root, where grad f is far from 0.
GRADIENT_POINTS = ((0.57, 0.45), (0.6, 0.4), (0.55, 0.47), (0.58, 0.42))


def _central(fn, phi, b1, h=1e-6):
    """Central differences (d/dphi, d/dbeta1) of fn(phi, beta1)."""
    return ((fn(phi + h, b1) - fn(phi - h, b1)) / (2.0 * h),
            (fn(phi, b1 + h) - fn(phi, b1 - h)) / (2.0 * h))


def test_entropy_partials_cancel_the_explicit_terms():
    # c dF/dbeta1 = c log(V-1) and c dF/dphi = -lam log U (lam = 3c): the
    # terms that the gradient identity drops
    def entropy(phi, b1):
        return st._entropy_f(phi, *lg.point_fields(phi, b1))

    for phi, b1 in GRADIENT_POINTS:
        pt = st.derive_point(phi, b1)
        d_phi, d_b1 = _central(entropy, phi, b1)
        assert d_b1 == pytest.approx(math.log(pt.V - 1.0), rel=1e-7, abs=1e-8)
        assert d_phi == pytest.approx(-3.0 * math.log(pt.U), rel=1e-7, abs=1e-8)


def test_log_rate_gradient_matches_central_differences(root_point, system, budget):
    def log_rate(phi, b1):
        return st._log_rate(st.derive_point(phi, b1), system, budget)

    for phi, b1 in GRADIENT_POINTS + ((root_point.phi, root_point.beta1),):
        grad = st._grad_log_rate(st.derive_point(phi, b1), system)
        for got, want in zip(grad, _central(log_rate, phi, b1)):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)
    # at the root both equations vanish, and so does the gradient
    assert np.all(np.abs(st._grad_log_rate(root_point, system)) < 1e-12)


def test_box_gradient_encloses_the_point_gradients(system, system_iv):
    # G over a box, in either mode, holds the float gradient at its points
    phi, b1 = GRADIENT_POINTS[0]
    box = st.derive_point(Interval(phi - 1e-4, phi + 1e-4), Interval(b1 - 1e-4, b1 + 1e-4))
    for sys in (system, system_iv):
        g_phi, g_b1 = st._grad_log_rate(box, sys)
        for t in (-1e-4, 0.0, 1e-4):
            for s in (-1e-4, 1e-4):
                p_phi, p_b1 = st._grad_log_rate(st.derive_point(phi + t, b1 + s), system)
                assert g_phi.contains(p_phi) and g_b1.contains(p_b1)


def test_rate_point_mode_continuous_and_dominated(trace, budget, rng, system, root_point):
    rect = trace.rectangle
    rate_rect, centre_rate = st.rate_bound_rectangle(*rect, system, budget)
    assert 0.99 < st.rate_bound_point(root_point, system, budget) < 1.0
    assert 0.99 < centre_rate < rate_rect < 1.0
    # the centre term is the point rate at the rectangle's centre
    centre = st.derive_point(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))
    assert centre_rate == st.rate_bound_point(centre, system, budget)
    samples = []
    for _ in range(25):
        phi = rng.uniform(rect[0], rect[1])
        b1 = rng.uniform(rect[2], rect[3])
        pt = st.derive_point(phi, b1)
        samples.append(st.rate_bound_point(pt, system, budget))
    samples = np.array(samples)
    # the rectangle rate dominates every interior sample; the point rate
    # carries the unbalancing factor too, so both are the one f
    assert np.all(samples <= rate_rect + 1e-12)
    assert samples.max() - samples.min() < 1e-9  # continuity at rectangle scale


@pytest.mark.parametrize("width", [2e-7, 1e-5, 1e-4, 1e-3])
def test_rectangle_rate_dominates_the_grid(width, root, system, budget, system_iv, budget_iv):
    # squares around the reference root: in both modes the centred bound is at
    # least the largest point rate of a 9 x 9 grid over the square
    r = (root["phi"] - width / 2, root["phi"] + width / 2,
         root["beta1"] - width / 2, root["beta1"] + width / 2)
    grid = max(st.rate_bound_point(st.derive_point(phi, b1), system, budget)
               for phi in np.linspace(r[0], r[1], 9) for b1 in np.linspace(r[2], r[3], 9))
    rate, _ = st.rate_bound_rectangle(*r, system, budget)
    rate_iv, _ = st.rate_bound_rectangle(*r, system_iv, budget_iv)
    assert grid <= rate <= rate_iv.upper()
    assert rate_iv.lower() <= rate


def test_rate_on_target_rectangle(system, budget):
    # the paper's rectangle: the centred bound lands well below its 0.9999885
    # (computed: 0.99991852304...), and 6.5e-10 above the point rate at the centre
    rate, centre_rate = st.rate_bound_rectangle(0.56383217, 0.56383249, 0.44651403,
                                                0.44651478, system, budget)
    assert 0.99991 < rate < 0.9999885
    assert rate == pytest.approx(0.9999185230426495, rel=1e-10)
    assert rate - centre_rate == pytest.approx(6.5e-10, rel=0.05)


def test_interval_rectangle_rate_encloses_the_float_rate(monkeypatch, trace, system, budget,
                                                         system_iv, budget_iv):
    # interval mode encloses every point it derives, the box and its centre,
    # and its enclosure holds the float rate
    calls = []

    def recording(fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(st, "point_fields", recording(st.point_fields))
    rate_iv, centre_iv = st.rate_bound_rectangle(*trace.rectangle, system_iv, budget_iv)
    monkeypatch.undo()
    assert len(calls) == 2
    assert all(isinstance(a, Interval) for args in calls for a in args)
    rate, centre_rate = st.rate_bound_rectangle(*trace.rectangle, system, budget)
    assert rate_iv.lower() <= rate <= rate_iv.upper()
    assert centre_iv.lower() <= centre_rate <= centre_iv.upper()


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
