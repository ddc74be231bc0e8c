import dataclasses
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from typsat import intervals as iv_mod
from typsat import ledger as lg
from typsat import stationarity as st
from typsat.intervals import (LIBM_ULPS, Interval, log_of_int, next_down, next_up, sum_slack,
                              xexp, xlog, xsum)
from typsat.params import DELTA_NUM
from typsat.rootbox import verify_exclusion

DBL_MAX = np.finfo(np.float64).max
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 2e-323, -2e-323,
                        2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310,
                        1.0, -1.0, DBL_MAX, -DBL_MAX, np.nextafter(DBL_MAX, 0.0),
                        -np.nextafter(DBL_MAX, 0.0), np.inf, -np.inf, np.nan])


def test_from_decimal_encloses_exact_value():
    iv = Interval.from_decimal("4.506")
    from fractions import Fraction
    v = Fraction("4.506")
    assert Fraction(float(iv.lo)) <= v <= Fraction(float(iv.hi))
    assert iv.hi - iv.lo <= 2 * np.finfo(float).eps * 4.506


def test_arithmetic_enclosure_random(rng):
    for _ in range(300):
        a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
        ia, ib = Interval(a), Interval(b)
        for op, iop in ((lambda x, y: x + y, ia + ib),
                        (lambda x, y: x - y, ia - ib),
                        (lambda x, y: x * y, ia * ib)):
            assert iop.contains(op(a, b))
        if abs(b) > 1e-3:
            assert (ia / ib).contains(a / b)


def test_division_by_zero_crossing_interval():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0) / Interval(-1.0, 1.0)
    with pytest.raises(ZeroDivisionError):  # one entry of an array divisor contains 0
        Interval([1.0, 1.0]) / Interval([1.0, -1.0], [2.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        2.0 / Interval([1.0, 0.0], [2.0, 1.0])


def test_nan_entries_reach_nan_ends_in_division_and_log():
    # a NaN divisor or log argument holds no 0: its entry gets NaN ends, as a
    # NaN product or sum does, and every other entry its own enclosure
    nan = math.nan
    q = Interval([1.0, 1.0]) / Interval([2.0, nan], [4.0, nan])
    whole = Interval(1.0) / Interval(2.0, 4.0)
    assert (q.lo[0], q.hi[0]) == (whole.lo, whole.hi)
    assert np.isnan(q.lo[1]) and np.isnan(q.hi[1])
    logs = Interval([2.0, nan]).log()
    assert (logs.lo[0], logs.hi[0]) == (Interval(2.0).log().lo, Interval(2.0).log().hi)
    assert np.isnan(logs.lo[1]) and np.isnan(logs.hi[1])
    for iv in (Interval(1.0) / Interval(nan), 1.0 / Interval(nan), Interval(nan) / Interval(2.0),
               Interval(nan).log(), Interval(-1.0, 1.0) / Interval(nan)):
        assert np.isnan(iv.lo) and np.isnan(iv.hi)


def test_division_by_entries_of_mixed_sign():
    # each divisor entry excludes 0, but they are not all of one sign
    q = Interval([1.0, 1.0]) / Interval([1.0, -2.0], [2.0, -1.0])
    assert q.contains(np.array([1.0, -1.0])) and q.contains(np.array([0.5, -0.5]))
    assert q.lo[1] <= -1.0 and q.hi[1] >= -0.5
    r = 3.0 / Interval([1.0, -2.0], [2.0, -1.0])
    assert r.contains(np.array([1.5, -3.0])) and r.contains(np.array([3.0, -1.5]))


def _nextafter_k(x, k, toward):
    with np.errstate(all="ignore"):
        for _ in range(k):
            x = np.nextafter(x, toward)
    return x


@pytest.mark.parametrize("k", [1, LIBM_ULPS])
def test_outward_step_matches_nextafter_bit_for_bit(k, rng):
    patterns = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=100_000,
                            dtype=np.int64, endpoint=True)
    subnormals = np.arange(0, 64, dtype=np.int64)
    for x in (EDGE_VALUES, patterns.view(np.float64), subnormals.view(np.float64),
              -subnormals.view(np.float64)):
        for step, toward in ((next_down, -math.inf), (next_up, math.inf)):
            got = np.asarray(step(x, k))
            assert np.array_equal(got.view(np.int64), _nextafter_k(x, k, toward).view(np.int64))
    for v in EDGE_VALUES:  # the 0-d path: Python floats, numpy scalars, 0-d arrays
        for step, toward in ((next_down, -math.inf), (next_up, math.inf)):
            want = np.asarray(_nextafter_k(v, k, toward)).view(np.int64)
            for x in (float(v), np.float64(v), np.asarray(v)):
                got = step(x, k)
                assert type(got) is np.float64  # keeps .ndim for Interval endpoints
                assert np.asarray(got).view(np.int64) == want


def _edge_intervals(keep=lambda lo: True):
    """(lo, hi) arrays of every interval [a, b], a <= b, over the non-NaN
    EDGE_VALUES whose lower end passes `keep`."""
    vals = EDGE_VALUES[~np.isnan(EDGE_VALUES)]
    pairs = [(a, b) for a in vals for b in vals if a <= b and keep(a)]
    return tuple(np.array(col) for col in zip(*pairs))


def test_scalar_endpoints_are_float64_scalars(params, consts_iv):
    budget = lg.build_budget(params, consts_iv)
    ivs = [Interval(0.3), Interval(0.3, 0.4), Interval.from_decimal("4.506"), log_of_int(3, True),
           *(getattr(budget, f.name) for f in dataclasses.fields(budget))]
    for iv in ivs:
        assert isinstance(iv, Interval)
        assert type(iv.lo) is np.float64 and type(iv.hi) is np.float64  # not 0-d ndarrays


def _four_products(op, alo, ahi, blo, bhi):
    """The general form: the hull of the four endpoint results, one ulp outward
    by np.nextafter; NaN where any of the four is NaN."""
    with np.errstate(all="ignore"):
        p = (op(alo, blo), op(alo, bhi), op(ahi, blo), op(ahi, bhi))
        lo = np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3]))
        hi = np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
        return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _cross(a, b):
    """Every pairing of the intervals a with the intervals b, as flat arrays."""
    return ([np.repeat(end, b[0].size) for end in a]
            + [np.tile(end, a[0].size) for end in b])


def _assert_matches_general_form(got, op, alo, ahi, blo, bhi, *, least=1000):
    ref_lo, ref_hi = _four_products(op, alo, ahi, blo, bhi)
    defined = ~(np.isnan(ref_lo) | np.isnan(ref_hi))
    assert np.count_nonzero(defined) >= least
    assert np.array_equal(got.lo[defined].view(np.int64), ref_lo[defined].view(np.int64))
    assert np.array_equal(got.hi[defined].view(np.int64), ref_hi[defined].view(np.int64))


@pytest.fixture
def hull_calls(monkeypatch):
    """Count the calls of the general four-product form."""
    calls = [0]
    general = iv_mod._hull4

    def counted(*args):
        calls[0] += 1
        return general(*args)

    monkeypatch.setattr(iv_mod, "_hull4", counted)
    return calls


def test_nonnegative_product_and_quotient_fast_paths_are_bit_exact(hull_calls):
    nonneg = _edge_intervals(lambda lo: lo >= 0.0)
    positive = _edge_intervals(lambda lo: lo > 0.0)
    alo, ahi, blo, bhi = _cross(nonneg, nonneg)
    with np.errstate(all="ignore"):
        got = Interval(alo, ahi) * Interval(blo, bhi)
    _assert_matches_general_form(got, np.multiply, alo, ahi, blo, bhi)
    alo, ahi, blo, bhi = _cross(nonneg, positive)
    with np.errstate(all="ignore"):
        got = Interval(alo, ahi) / Interval(blo, bhi)
    _assert_matches_general_form(got, np.divide, alo, ahi, blo, bhi)
    for num in np.unique(nonneg[0]):  # exact nonnegative numerators, as in 1 / (1 + E)
        with np.errstate(all="ignore"):
            got = float(num) / Interval(*positive)
        _assert_matches_general_form(got, np.divide, num, num, *positive, least=1)
    assert hull_calls[0] == 0


def test_exact_operand_product_is_bit_exact(hull_calls):
    edge = _edge_intervals()
    vals = EDGE_VALUES[~np.isnan(EDGE_VALUES)]
    alo, ahi, b, _ = _cross(edge, (vals, vals))
    with np.errstate(all="ignore"):
        a = Interval(alo, ahi)
        for got in (a * b, b * a, a * Interval(b)):
            _assert_matches_general_form(got, np.multiply, alo, ahi, b, b)
    assert hull_calls[0] == 0


def test_mixed_sign_products_and_quotients_take_the_general_form(hull_calls, rng):
    edge = _edge_intervals()
    alo, ahi, blo, bhi = _cross(edge, edge)
    with np.errstate(all="ignore"):
        got = Interval(alo, ahi) * Interval(blo, bhi)
    _assert_matches_general_form(got, np.multiply, alo, ahi, blo, bhi)
    lo = rng.standard_normal((4, 500)) * np.logspace(-300, 300, 500)
    hi = lo + rng.uniform(0.0, 2.0, lo.shape) * np.abs(lo)
    a, b = Interval(lo[0], hi[0]), Interval(lo[1], hi[1])
    away = np.where(rng.random(500) < 0.5, 1.0, -1.0)  # divisors of both signs, none holding 0
    d = Interval(np.where(away > 0, np.abs(lo[2]), -np.abs(hi[3]) - np.abs(lo[3])),
                 np.where(away > 0, np.abs(lo[2]) + np.abs(hi[2]), -np.abs(hi[3])))
    calls = hull_calls[0]
    with np.errstate(all="ignore"):
        _assert_matches_general_form(a * b, np.multiply, a.lo, a.hi, b.lo, b.hi, least=400)
        _assert_matches_general_form(a / d, np.divide, a.lo, a.hi, d.lo, d.hi, least=400)
    assert hull_calls[0] == calls + 2


def _same_ends(scalar, array):
    """Whether a scalar Interval has the ends of a 1-entry array Interval, bit
    for bit, where both ends are NaN when either form's is."""
    for s, a in ((scalar.lo, array.lo), (scalar.hi, array.hi)):
        a = np.ravel(a)  # the sum of a 1-entry array is a scalar
        assert type(s) is np.float64 and a.shape == (1,)
        if not (np.isnan(s) and np.isnan(a[0])) and s.view(np.int64) != a.view(np.int64)[0]:
            return False
    return True


def test_scalar_and_one_entry_array_forms_agree_bit_for_bit():
    edge = list(zip(*(end.tolist() for end in _edge_intervals())))
    forms = [(Interval(a, b), Interval([a], [b]), not a <= 0.0 <= b) for a, b in edge]
    unary = [Interval.__neg__, Interval.exp, Interval.sum]
    binary = [operator.add, operator.sub, operator.mul]
    # with an exact float operand v, the reversed forms included
    exact = [operator.add, operator.sub, lambda x, v: v - x, operator.mul, lambda x, v: v * x]
    checked = 0
    with np.errstate(all="ignore"):
        for scalar, array, no_zero in forms:
            for op in unary + ([Interval.log] if scalar.lo > 0.0 else []):
                assert _same_ends(op(scalar), op(array))
            for v in EDGE_VALUES.tolist():  # NaN included
                for op in (exact + ([operator.truediv] if v != 0.0 else [])
                           + ([lambda x, v: v / x] if no_zero else [])):
                    assert _same_ends(op(scalar, v), op(array, v))
            for other_scalar, other_array, other_no_zero in forms:
                for op in binary + ([operator.truediv] if other_no_zero else []):
                    assert _same_ends(op(scalar, other_scalar), op(array, other_array))
                checked += 1
    assert checked == len(edge) ** 2


def test_transcendentals_contain_mpmath_values(rng):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for _ in range(100):
        x = float(rng.uniform(0.01, 30.0))
        assert Interval(x).exp().contains(float(mp.exp(mp.mpf(x))))
        assert Interval(x).log().contains(float(mp.log(mp.mpf(x))))


def test_log_of_int_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    ns = (2, 3, 6, math.factorial(56), math.factorial(57))
    for n in ns:
        iv = log_of_int(n, True)
        assert iv.contains(float(mp.log(mp.mpf(n))))
        assert iv.hi - iv.lo < 1e-12 * max(1.0, float(iv.hi))
    one = log_of_int(1, True)
    assert float(one.lo) == 0.0 and float(one.hi) == 0.0
    arr = log_of_int(np.array((1,) + ns, dtype=object), True)
    for k, n in enumerate((1,) + ns):
        assert arr.lo[k] == log_of_int(n, True).lo and arr.hi[k] == log_of_int(n, True).hi


def test_array_sum_encloses_fsum(rng):
    vals = rng.standard_normal(1000) * np.logspace(-8, 8, 1000)
    iv = Interval(vals, vals)
    s = iv.sum()
    assert s.contains(math.fsum(vals.tolist()))


def test_row_sums_enclose_exact_fraction_sums(rng):
    rows = rng.standard_normal((6, 300)) * np.logspace(-6, 6, 300)
    rows[1] = np.concatenate([rows[0, :150], -rows[0, :150]])  # cancels to exactly 0
    rows[2, 1::2] = -rows[2, ::2] * (1.0 + 2.0 ** -40)           # near-cancelling pairs
    widths = rng.uniform(0.0, 1e-9, rows.shape) * np.abs(rows)
    iv = Interval(rows - widths, rows + widths)
    sums = iv.sum(axis=-1)
    assert sums.lo.shape == (6,)
    for i in range(rows.shape[0]):
        lo_exact = sum(Fraction(float(v)) for v in iv.lo[i])
        hi_exact = sum(Fraction(float(v)) for v in iv.hi[i])
        assert Fraction(float(sums.lo[i])) <= lo_exact and hi_exact <= Fraction(float(sums.hi[i]))
        whole = iv[i].sum()
        assert sums.lo[i] == whole.lo and sums.hi[i] == whole.hi
    assert xsum(iv, axis=-1).lo.tolist() == sums.lo.tolist()


def _within_slack(rows, sums):
    """|sum - fsum| <= sum_slack for each row of terms (the exactly rounded
    fsum is the reference)."""
    for row, got in zip(rows, np.atleast_1d(sums).tolist()):
        assert abs(got - math.fsum(row.tolist())) <= sum_slack(row)


def test_float_row_sums_within_a_priori_slack(rng):
    rows = rng.standard_normal((6, 200)) * np.logspace(-8, 8, 200)
    rows[1] = np.concatenate([rows[0, :100], -rows[0, :100]])  # cancels to exactly 0
    rows[2, 1::2] = -rows[2, ::2] * (1.0 + 2.0 ** -40)           # near-cancelling pairs
    got = xsum(rows, axis=-1)
    assert got.shape == (6,)
    _within_slack(rows, got)
    for k, row in enumerate(rows):
        assert xsum(row, axis=-1) == got[k]  # one row alone sums as it does in the batch
    _within_slack(rows.ravel()[None, :], xsum(rows))


def test_trace_sums_within_a_priori_slack(system, trace, box, monkeypatch):
    """Every Eq1/Eq2 sign check of the certified trace sums its cell terms with
    an a priori error bound far below the sign margin DELTA_NUM."""
    rows, sums = [], []

    def recording_xsum(z, axis=None):
        out = xsum(z, axis)
        rows.extend(np.atleast_2d(z))
        sums.extend(np.atleast_1d(out).tolist())
        return out

    monkeypatch.setattr(st, "xsum", recording_xsum)
    report = verify_exclusion(trace, system.eq1, system.eq2, box)
    assert report.ok and len(rows) == report.checks == 254
    assert max(sum_slack(row) for row in rows) < DELTA_NUM / 1000.0
    _within_slack(rows, sums)


def test_mixed_scalar_array_broadcast():
    arr = np.arange(1.0, 6.0)
    iv = Interval(2.0)
    out = arr * iv + 1.0
    assert out.lo.shape == (5,)
    assert out.contains(arr * 2.0 + 1.0)


def test_dispatchers_on_floats():
    assert xexp(0.0) == 1.0
    assert xlog(1.0) == 0.0
    assert xsum(np.array([0.1] * 10)) == pytest.approx(1.0, abs=1e-15)


def test_deep_composition_keeps_enclosure():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    x = Interval.from_decimal("13.518")
    expr = (x.log() * 56.0 - log_of_int(math.factorial(56), True)).exp()
    truth = mp.mpf("13.518") ** 56 / mp.factorial(56)
    assert expr.contains(float(truth))
    assert (expr.hi - expr.lo) / float(truth) < 1e-10
