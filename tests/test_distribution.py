import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from typsat import distribution as dist
from typsat.errors import ConfigurationError, DomainError
from typsat.intervals import Interval
from typsat.params import ModelParams

from oracles import mp_rho, mp_rho_bound

LAM = 3 * 4.506

# oracle: exact rational binomial times a 50-digit exponential (mpmath), frozen
KAPPA_3_1 = 0.00020788566223329597
# oracle: 50-digit partial sum of the Poisson mass beyond x = 56, frozen
POISSON_TAIL_56 = 1.25329244645e-18


def test_kappa_at_origin_is_poisson_mass():
    assert dist.kappa(0, 0, LAM) == pytest.approx(math.exp(-LAM), rel=1e-15)


def test_kappa_symmetry_bit_exact():
    for x in range(57):
        for p in range(x + 1):
            assert dist.kappa(x, p, LAM) == dist.kappa(x, x - p, LAM)


def test_kappa_3_1_against_high_precision_oracle():
    assert dist.kappa(3, 1, LAM) == pytest.approx(KAPPA_3_1, rel=1e-13)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    lam = mp.mpf(13518) / 1000
    oracle = mp.mpf(3) / 8 * mp.e ** (-lam) * lam**3 / 6
    assert dist.kappa(3, 1, LAM) == pytest.approx(float(oracle), rel=1e-13)


def test_kappa_domain_errors():
    with pytest.raises(DomainError):
        dist.kappa(3, 4, LAM)
    with pytest.raises(DomainError):
        dist.kappa(-1, 0, LAM)
    with pytest.raises(DomainError):
        dist.kappa(3, 1, 0.0)


def test_kappa_tilde_cases():
    assert dist.kappa_tilde(4, 1, LAM) == 2.0 * dist.kappa(4, 1, LAM)
    assert dist.kappa_tilde(4, 2, LAM) == dist.kappa(4, 2, LAM)
    assert dist.kappa_tilde(4, 3, LAM) == 0.0


def _kt_row(consts, x):
    return consts.kt[consts.xs == x]


def test_row_sums_match_poisson(consts, kappa_rows):
    # a kappa row and its fold onto p <= x/2 both hold the Poisson mass of x
    for x, row in enumerate(kappa_rows):
        mass = math.exp(dist.poisson_log_pmf(x, LAM))
        assert abs(math.fsum(row) - mass) / mass < 1e-12
        assert abs(math.fsum(_kt_row(consts, x)) - mass) / mass < 1e-12


def test_mass_conservation_under_unbalancing(consts, kappa_rows):
    s1, s2 = math.fsum(math.fsum(row) for row in kappa_rows), math.fsum(consts.kt)
    assert abs(s1 - s2) / s1 < 1e-12


def test_triangle_sum_vs_explicit_poisson_tail(consts, kappa_rows):
    # the triangle holds everything except the Poisson tail beyond x_max
    for s in (math.fsum(math.fsum(row) for row in kappa_rows), math.fsum(consts.kt)):
        assert 1.0 - POISSON_TAIL_56 - 1e-13 < s < 1.0 + 1e-13


def test_unbalanced_column_pattern(consts):
    # kt holds no cell above the diagonal: the fold leaves them empty
    assert np.all(2 * consts.ps <= consts.xs)
    assert consts.ps[consts.xs == 6].tolist() == [0, 1, 2, 3]
    kt6 = _kt_row(consts, 6)
    for p in (0, 1, 2):
        assert kt6[p] == 2.0 * dist.kappa(6, p, LAM)
    assert kt6[3] == dist.kappa(6, 3, LAM)


def test_tables_match_cellwise_formula(consts, kappa_rows):
    # reference: the cell mass written out per cell with scalar libm calls;
    # numpy's vector exp may round one ulp away from math.exp
    kt = dict(zip(zip(consts.xs.tolist(), consts.ps.tolist()), consts.kt.tolist()))
    for x in range(57):
        for p in range(x + 1):
            log_k = (math.log(math.comb(x, p)) - x * math.log(2.0)
                     + (-LAM + x * math.log(LAM) - math.log(math.factorial(x))))
            k = math.exp(log_k)
            assert kappa_rows[x][p] == pytest.approx(k, rel=4.5e-16, abs=0.0)
            fold = 2.0 if x > 2 * p else 1.0 if x == 2 * p else 0.0
            assert kt.get((x, p), 0.0) == pytest.approx(fold * k, rel=4.5e-16, abs=0.0)


def test_derived_constants(consts):
    assert consts.D == 1653
    assert consts.N == 32103
    assert consts.delta == 14.5
    assert 0.0 < consts.rho < 1e-14
    # oracle value from a 50-digit evaluation of the full double sum, frozen
    assert consts.K_tilde == pytest.approx(8.212023535312346, rel=1e-13)


def test_big_n_is_exact_at_every_even_x_max():
    # the closed form over 24 is an integer at every even x_max (the only kind
    # check_x_max admits), so the floor division is exact; it counts the
    # (x, p, j) with 0 <= 2p <= x <= x_max and 0 <= j <= x
    for x_max in range(2, 2001, 2):
        exact = Fraction((x_max + 2) * (4 * x_max**2 + 13 * x_max + 12), 24)
        assert exact.denominator == 1 and dist.big_n(x_max) == exact, x_max
    assert dist.big_n(56) == sum((x // 2 + 1) * (x + 1) for x in range(57))


def test_rho_monotone_in_x_max():
    rhos = [dist.rho_tail(x, LAM, dist.kappa(x, x // 2, LAM)) for x in range(40, 62, 2)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_rho_matches_partial_sum_oracle(consts):
    # rho is a geometric bound on the diagonal tail, not a sum: it lies
    # between the exact tail (50 digits, summed until it converges) and the
    # exact tail over 1 - q1, q1 = (lambda/60)^2, the bound's stated slack
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        exact = mp_rho(mp, 56, 3 * mp.mpf("4.506"))
        assert exact <= consts.rho <= exact / (1 - (LAM / 60) ** 2)


def test_build_tables_config_errors():
    with pytest.raises(ConfigurationError, match="xmaxlb2"):
        ModelParams(c=4.506, x_max=2)
    with pytest.raises(ConfigurationError, match="even"):
        ModelParams(c=4.506, x_max=57)
    with pytest.raises(ConfigurationError, match="positive even integer, got 56.0"):
        ModelParams(c=4.506, x_max=56.0)
    with pytest.raises(ConfigurationError):
        ModelParams(c=2.0)


@pytest.mark.parametrize("c, largest", [(3.0, 284), (4.506, 320), (5.0, 330)])
def test_check_x_max_admits_up_to_the_row_tolerance(c, largest):
    # the largest x_max whose last-row Poisson mass the tables stage can check
    dist.check_x_max(largest, 3.0 * c)
    with pytest.raises(ConfigurationError, match="too large"):
        dist.check_x_max(largest + 2, 3.0 * c)


@pytest.mark.parametrize("x_max", [10**6, 4 * 10**6])
def test_check_x_max_refuses_a_huge_x_max_at_once(x_max):
    # past the cached factorials the mass at CACHED_X_MAX bounds the mass at
    # x_max, so no x_max! is taken; 10^6 took ~10 s when it was
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="too large.*but is at most 0.000e"):
        ModelParams(c=4.506, x_max=x_max)
    assert time.perf_counter() - start < 1.0


def test_h_tilde_and_polynomials(consts):
    assert dist.p2(56) == 56 * 57 * 58 / 3
    assert dist.p3(56) == 56 * 58 * 115 / 8


def test_both_producers_return_derived_constants_on_one_triangle(params, consts, consts_iv):
    # one type from both producers, over the same shared triangle arrays: the
    # mode differs, each interval value encloses its float, the rest is equal
    triangle = dict(zip(("xs", "ps", "w"), dist.triangle(params.x_max)))
    for field in dataclasses.fields(dist.DerivedConstants):
        f, iv = getattr(consts, field.name), getattr(consts_iv, field.name)
        if field.name in triangle:
            assert f is triangle[field.name] and iv is triangle[field.name]
        elif field.name == "mode":
            assert (f, iv) == ("float", "interval")
        elif isinstance(iv, Interval):
            assert iv.contains(f), field.name
        else:
            assert f == iv, field.name


def test_interval_tables_enclose_float_tables(consts, consts_iv):
    # one producer per mode: the interval constants enclose the float ones
    assert (consts.mode, consts_iv.mode) == ("float", "interval")
    kt, k_tilde = consts_iv.kt, consts_iv.K_tilde
    assert np.all(kt.lo <= consts.kt)
    assert np.all(consts.kt <= kt.hi)
    assert k_tilde.contains(consts.K_tilde)
    assert k_tilde.hi - k_tilde.lo < 1e-10


def test_rho_interval_encloses_float(consts, consts_iv):
    rho_iv = consts_iv.rho
    assert rho_iv.contains(consts.rho)
    # and the 50-digit closed form, which bounds the exact tail within its slack
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        lam = 3 * mp.mpf("4.506")
        bound = mp_rho_bound(mp, 56, lam)
        assert mp.mpf(float(rho_iv.lo)) <= bound <= mp.mpf(float(rho_iv.hi))
        exact = mp_rho(mp, 56, lam)
        assert exact <= bound <= exact / (1 - (lam / 60) ** 2)
