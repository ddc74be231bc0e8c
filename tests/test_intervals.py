import math

import numpy as np
import pytest

from typsat.intervals import Interval, log_of_int, xexp, xlog, xsum


def test_from_decimal_encloses_exact_value():
    iv = Interval.from_decimal("4.506")
    from fractions import Fraction
    v = Fraction("4.506")
    assert Fraction(float(iv.lo)) <= v <= Fraction(float(iv.hi))
    assert iv.width <= 2 * np.finfo(float).eps * 4.506


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


def test_transcendentals_contain_mpmath_values(rng):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for _ in range(100):
        x = float(rng.uniform(0.01, 30.0))
        assert Interval(x).exp().contains(float(mp.exp(mp.mpf(x))))
        assert Interval(x).log().contains(float(mp.log(mp.mpf(x))))
        assert Interval(x).sqrt().contains(float(mp.sqrt(mp.mpf(x))))


def test_log_of_int_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    ns = (2, 3, 6, math.factorial(56), math.factorial(57))
    for n in ns:
        iv = log_of_int(n, True)
        assert iv.contains(float(mp.log(mp.mpf(n))))
        assert iv.width < 1e-12 * max(1.0, float(iv.hi))
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


def test_monotone_comparisons():
    iv = Interval(1.0, 2.0)
    assert iv.surely_lt(2.5)
    assert not iv.surely_lt(1.5)
    assert iv.surely_gt(0.5)
    assert iv.contains(1.5)


def test_deep_composition_keeps_enclosure():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    x = Interval.from_decimal("13.518")
    expr = (x.log() * 56.0 - log_of_int(math.factorial(56), True)).exp()
    truth = mp.mpf("13.518") ** 56 / mp.factorial(56)
    assert expr.contains(float(truth))
    assert expr.width / float(truth) < 1e-10
