import math

import pytest

from typsat import ledger as lg
from typsat.distribution import big_d, build_tables, kappa_tilde_intervals, p2, p3
from typsat.errors import ConfigurationError, DomainError
from typsat.intervals import Interval, upper
from typsat.params import CERTIFICATION_BOX, GENERIC_GAMMA_PSI, ModelParams

from oracles import mp_rho, mp_rho_bound, mp_slack_factors


def test_L_domain_guard():
    # log_L admits 0, L's eta -> 0+ limit, and refuses eta below 0, above 0.05 and NaN
    assert lg.log_L(0.0) == 0.0
    assert lg.log_L(Interval(0.0)) == 0.0
    reaching_zero = lg.log_L(Interval(-5e-324, 1e-9))  # an outward-rounded eps = 0 term
    assert reaching_zero.lower() == 0.0 and reaching_zero.upper() >= lg.log_L(1e-9)
    for bad in (0.5, 0.0500001, -1e-3, math.nan, Interval(-1e-3, -1e-4), Interval(0.0, 0.06)):
        with pytest.raises(DomainError):
            lg.log_L(bad)


def test_L_small_eta_expansion():
    # log L(eta) = 2 eta log(1/(2 eta)) ~ 4e-8 at eta = 1e-9
    assert 0.0 < lg.log_L(1e-9) < 5e-8


def test_L_sandwich_property(rng):
    # y^y/x^x between L(eta)^-1 and L(eta) whenever |x-y| <= eta <= 0.05, x <= 30
    for _ in range(10_000):
        eta = float(rng.uniform(1e-12, 0.05))
        x = float(rng.uniform(1e-6, 30.0))
        y = x + float(rng.uniform(-eta, eta))
        if y <= 0.0:
            continue
        ratio = math.exp(y * math.log(y) - x * math.log(x))
        big = math.exp(lg.log_L(eta))
        assert 1.0 / big <= ratio <= big


def test_r_bounds_reproduce_paper_values():
    # quoted at the top of the density range (lambda = 15)
    assert lg.r2(1e-15, 56, 15.0) < 1.54e-8
    assert lg.r3(1e-15, 56, 15.0) < 1.035e-9
    # and at the certified density
    assert lg.r2(1e-15, 56, 3 * 4.506) < 1.54e-8
    assert lg.r3(1e-15, 56, 3 * 4.506) < 1.104e-11


def test_r_bounds_at_zero_eps_are_pure_tails():
    assert lg.r1(0.0, 56, 15.0) > 0.0
    assert lg.r2(0.0, 56, 15.0) > 0.0
    assert lg.r1(0.0, 56, 15.0) == pytest.approx(15.0**57 / math.factorial(57), rel=1e-12)


def test_widen_intervals_shifts():
    box = lg.widen_intervals(GENERIC_GAMMA_PSI, 1e-9)
    assert box.beta1_min == pytest.approx(0.21 - 3e-9, abs=1e-15)
    assert box.beta1_max == pytest.approx(0.65 + 3e-9, abs=1e-15)
    assert box.beta2_min == pytest.approx(0.21 - 9e-9, abs=1e-15)
    assert box.beta3_max == pytest.approx(0.32 + 6e-9, abs=1e-15)
    assert box.phi_min == pytest.approx(0.47 - 1e-9, abs=1e-15)
    unchanged = lg.widen_intervals(GENERIC_GAMMA_PSI, 0.0)
    assert unchanged.beta1_min == 0.21 and unchanged.phi_max == 0.68


def test_widened_generic_box_contains_certification_constants():
    r3 = lg.r3(1e-15, 56, 3 * 4.506)
    box = lg.widen_intervals(GENERIC_GAMMA_PSI, r3)
    c = CERTIFICATION_BOX
    assert box.beta1_min <= c.beta1_min and c.beta1_max <= box.beta1_max
    assert box.beta2_min <= c.beta2_min and c.beta2_max <= box.beta2_max
    assert box.beta3_min <= c.beta3_min and c.beta3_max <= box.beta3_max
    assert box.phi_min <= c.phi_min and c.phi_max <= box.phi_max


def test_gb_dominates_exact_product(consts):
    eps = 1e-8  # large enough that the product is visibly above 1
    exact = 1.0
    for x in range(57):
        exact *= (1.0 + eps) ** (x // 2)
    budget = lg.build_budget(ModelParams(c=4.506, x_max=56, epsilon=eps), consts)
    assert 1.0 < exact <= upper(budget.gb) * (1 + 1e-12)


def test_g_factors_rejects_coarse_eps(consts, consts_iv):
    for constants in (consts, consts_iv):
        with pytest.raises(ConfigurationError, match="slack-factor domain"):
            lg.build_budget(ModelParams(c=4.506, x_max=56, epsilon=1e-6), constants)


def test_g_factors_at_zero_eps(consts):
    budget = lg.build_budget(ModelParams(c=4.506, x_max=56, epsilon=0.0), consts)
    assert upper(budget.ga) == 1.0
    assert upper(budget.gb) == 1.0
    assert upper(budget.gc) == 1.0
    # G1 keeps the pure Poisson-tail contributions, barely above 1
    assert 1.0 < upper(budget.g1) < 1.0 + 1e-7


ULP = 2.0 ** -52  # one ulp of 1.0


@pytest.mark.parametrize("eps", ["0", "1e-15", "1e-12"])
def test_slack_factors_against_the_50_digit_products(eps):
    # each factor is one exp of a sum of logs: a float factor lies within
    # 4 ulps of the paper's product of powers, an interval one encloses it
    # (GB's e^(k eps) dominates the paper's (1+eps)^k) at most 16 ulps wide
    mp = pytest.importorskip("mpmath")
    params = ModelParams(c=4.506, x_max=56, epsilon=float(eps))
    flt = lg.build_budget(params, build_tables(params))
    biv = lg.build_budget(params, kappa_tilde_intervals(params))
    with mp.workdps(50):
        for key, exact in mp_slack_factors(mp, "4.506", 56, eps).items():
            assert abs(mp.mpf(float(getattr(flt, key))) - exact) <= 4 * ULP, key
            iv = getattr(biv, key)
            assert key == "gb" or mp.mpf(float(iv.lo)) <= exact, key
            assert exact <= mp.mpf(float(iv.hi)), key
            assert iv.upper() - iv.lower() <= 16 * ULP, key


def test_budget_values(params, consts, budget):
    assert all(upper(getattr(budget, k)) >= 1.0 for k in ("ga", "gb", "gc", "g1", "g2"))
    assert upper(budget.prefactor) < 1.0 + 1e-7
    assert math.isfinite(upper(budget.prefactor))
    # the factor itself is within ~50 ulp of 1; its excess carries the digits
    assert 1.0 < upper(budget.unbalancing) < 1.0 + 1.1e-14
    assert 1.005e-14 < upper(budget.unbalancing_excess) < 1.006e-14


def test_float_budget_reuses_the_stored_tail(params, consts, budget):
    # build_tables stores a bound on the diagonal tail, between the exact
    # 50-digit tail and that tail over 1 - q1; the float ledger takes it from there
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        exact = mp_rho(mp, params.x_max, 3 * mp.mpf("4.506"))
        assert exact <= consts.rho <= exact / (1 - (params.lam / (params.x_max + 4)) ** 2)
    assert budget.unbalancing_log == (consts.rho + params.epsilon * consts.delta) * math.log(2.0)


def test_budget_monotone_in_eps(consts):
    uppers = []
    for eps in (1e-16, 1e-15, 1e-12):
        p = ModelParams(c=4.506, x_max=56, epsilon=eps)
        b = lg.build_budget(p, consts)
        uppers.append(upper(b.prefactor))
    assert uppers[0] <= uppers[1] <= uppers[2]


def test_interval_budget_is_pessimistic_but_close(params, consts, consts_iv, budget):
    biv = lg.build_budget(params, consts_iv)
    assert isinstance(biv.prefactor, Interval)
    assert biv.prefactor.contains(upper(budget.prefactor))
    assert upper(biv.prefactor) < 1.0 + 2e-7
    assert biv.r3.contains(upper(budget.r3))
    # 2^(rho + eps*Delta) at 50 digits, rho the closed-form bound on the
    # diagonal tail, within 1/(1 - q1) of the exact tail
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        lam = 3 * mp.mpf("4.506")
        rho, exact = mp_rho_bound(mp, params.x_max, lam), mp_rho(mp, params.x_max, lam)
        assert exact <= rho <= exact / (1 - (lam / (params.x_max + 4)) ** 2)
        expo = (rho + mp.mpf(params.epsilon) * mp.mpf(consts.delta)) * mp.log(2)
        excess = mp.expm1(expo)
        for iv, value in ((biv.unbalancing_log, expo), (biv.unbalancing_excess, excess)):
            assert mp.mpf(float(iv.lo)) <= value <= mp.mpf(float(iv.hi))
    assert upper(biv.unbalancing_excess) < float(excess) * (1.0 + 1e-12)
    assert math.isclose(upper(budget.unbalancing_excess), float(excess), rel_tol=1e-14)


@pytest.mark.parametrize("eps_text", ["1e-15", "3e-15", "1e-14"])
def test_interval_budget_encloses_decimal_eps(eps_text):
    # the double nearest 3e-15 or 1e-14 lies below the decimal; the interval
    # ledger must enclose R1 and R3 at the decimal the user asked for
    mp = pytest.importorskip("mpmath")
    params = ModelParams(c=4.506, x_max=56, epsilon=float(eps_text))
    biv = lg.build_budget(params, kappa_tilde_intervals(params))
    x = params.x_max
    with mp.workdps(50):
        eps, lam = mp.mpf(eps_text), 3 * mp.mpf("4.506")
        r1 = lam ** (x + 1) / mp.factorial(x + 1) + eps * big_d(x)
        r3 = lam ** x / mp.factorial(x) + eps / lam * (mp.mpf(p2(x)) + mp.mpf(p3(x)))
        for iv, exact in ((biv.r1, r1), (biv.r3, r3)):
            assert mp.mpf(float(iv.lo)) <= exact <= mp.mpf(float(iv.hi))


def test_budget_as_dict_directions(budget):
    # each entry is an upper end, as a decimal string that reads back exactly
    d = budget.as_dict()
    for key, entry in d.items():
        assert entry["dir"] == "upper"
        assert float(entry["v"]) == upper(getattr(budget, key))
    assert float(d["prefactor"]["v"]) > 1.0
    assert "G1 * G2" in d["prefactor"]["formula"]
    assert d["prefactor"]["target"] == 1.0 + 1e-7
    assert d["prefactor"]["margin"] > 0.0
    assert d["unbalancing"]["target"] == lg.LEDGER_TARGETS["unbalancing_excess"]
    assert d["unbalancing"]["excess"] == upper(budget.unbalancing_excess)
    assert d["unbalancing"]["margin"] > 0.0
