"""Outward-rounded interval arithmetic for interval-mode certificates.

Every elementary operation rounds its lower endpoint down and its upper
endpoint up, so the enclosure property is preserved through arbitrary
compositions.  IEEE 754 guarantees correct rounding for +, -, * and /,
so one ulp outward (`next_down`, `next_up`) is enough there.  exp and log go
through libm, which is accurate to about 1 ulp on mainstream platforms but
carries no formal guarantee; those results are widened by ``LIBM_ULPS`` ulps
per side (tests cross-check the enclosures against 50-digit mpmath values).

An :class:`Interval` holds either scalar endpoints or numpy arrays of
endpoints; all operations broadcast the same way numpy does.  Mixing with
plain floats or ndarrays treats them as exact (degenerate) intervals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import DomainError

LIBM_ULPS = 4

_ADD = np.add.reduce


def _step(x, k: int):
    """x moved |k| ulps toward +inf (k > 0) or -inf (k < 0), elementwise: |k|
    calls of ``nextafter``.  A scalar takes ``math.nextafter`` and comes back
    as an ``np.float64``; an array takes ``np.nextafter`` (`_nextafter`)."""
    toward = [math.copysign(math.inf, k)] * abs(k)
    if isinstance(x, float) or np.ndim(x) == 0:
        return np.float64(reduce(math.nextafter, toward, float(x)))
    return _nextafter(np.asarray(x, dtype=np.float64), toward)


@np.errstate(invalid="ignore", over="ignore")
def _nextafter(x: np.ndarray, toward: list):
    """np.nextafter(x, t) for each t of `toward` in turn.  It flags a signaling
    NaN as invalid and a step to +-inf as overflow, so it runs with those
    flags off: no entry, +-inf and NaN included, warns.  The decorator sets
    them once a call, for less than a ``with`` block costs."""
    return reduce(np.nextafter, toward, x)


def next_down(x, k: int = 1):
    """x rounded k ulps toward -inf (the outward step of a lower endpoint)."""
    return _step(x, -k)


def next_up(x, k: int = 1):
    """x rounded k ulps toward +inf (the outward step of an upper endpoint)."""
    return _step(x, k)


def _endpoint(v):
    """v as an endpoint: an np.float64 scalar, or a float64 array if v has a dimension."""
    if isinstance(v, (float, int)) or np.ndim(v) == 0:
        return np.float64(v)
    return np.asarray(v, dtype=np.float64)


def _all(mask) -> bool:
    """Whether every entry of a comparison's result holds (a NaN compares False)."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def _any(mask) -> bool:
    """Whether some entry of a comparison's result holds."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _hull2(p, q):
    """(min, max) of p and q, NaN at both ends where either is NaN, as
    np.minimum and np.maximum give; two scalars skip those ufuncs."""
    if isinstance(p, np.ndarray) or isinstance(q, np.ndarray):
        return np.minimum(p, q), np.maximum(p, q)
    return (p, q) if p <= q else (q, p) if q < p else (math.nan, math.nan)


def _hull4(p1, p2, p3, p4):
    """(min, max) of four products or quotients: the general, mixed-sign case.

    Rounding is monotone, so when the signs are known fewer products suffice
    and give the same endpoints after the outward step (Moore, Kearfott and
    Cloud 2009, sec. 2.3); `Interval.__mul__` and `__truediv__` take those
    paths first.
    """
    (lo1, hi1), (lo2, hi2) = _hull2(p1, p2), _hull2(p3, p4)
    return _hull2(lo1, lo2)[0], _hull2(hi1, hi2)[1]


class Interval:
    """Closed interval(s) [lo, hi]; endpoints are np.float64 scalars or float64 arrays."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # keep numpy from elementwise-wrapping us

    def __init__(self, lo, hi=None):
        lo = _endpoint(lo)
        hi = lo if hi is None else _endpoint(hi)
        if _any(lo > hi):
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    @classmethod
    def _ordered(cls, lo, hi) -> "Interval":
        """Interval from float64 endpoints whose order the caller guarantees
        (an outward-rounded result); skips the conversion and the order check."""
        out = object.__new__(cls)
        out.lo = lo
        out.hi = hi
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_decimal(cls, text: str) -> "Interval":
        """Tightest float enclosure of an exact decimal literal."""
        v = Fraction(text)
        f = float(v)
        if Fraction(f) == v:
            return cls(f, f)
        if Fraction(f) < v:
            return cls(f, float(next_up(f)))
        return cls(float(next_down(f)), f)

    # -- views -------------------------------------------------------------

    def lower(self) -> float:
        """The least lower end; +inf for an empty array of intervals."""
        return float(self.lo if self.lo.ndim == 0 else self.lo.min(initial=math.inf))

    def upper(self) -> float:
        """The greatest upper end; -inf for an empty array of intervals."""
        return float(self.hi if self.hi.ndim == 0 else self.hi.max(initial=-math.inf))

    def contains(self, x) -> bool:
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def __repr__(self):
        if self.lo.ndim == 0:
            return f"Interval({float(self.lo)!r}, {float(self.hi)!r})"
        return f"Interval(<{self.lo.shape}>)"

    def __getitem__(self, key):
        return Interval._ordered(self.lo[key], self.hi[key])

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Interval):
            return other.lo, other.hi
        end = _endpoint(other)
        return end, end

    def __add__(self, other):
        blo, bhi = self._coerce(other)
        return Interval._ordered(next_down(self.lo + blo), next_up(self.hi + bhi))

    __radd__ = __add__

    def __neg__(self):
        return Interval._ordered(-self.hi, -self.lo)

    def __sub__(self, other):
        blo, bhi = self._coerce(other)
        return Interval._ordered(next_down(self.lo - bhi), next_up(self.hi - blo))

    def __rsub__(self, other):
        blo, bhi = self._coerce(other)
        return Interval._ordered(next_down(blo - self.hi), next_up(bhi - self.lo))

    def __mul__(self, other):
        blo, bhi = self._coerce(other)
        if blo is bhi:  # an exact operand: lo*blo == lo*bhi and hi*blo == hi*bhi
            lo, hi = _hull2(self.lo * blo, self.hi * blo)
        elif _all(self.lo >= 0.0) and _all(blo >= 0.0):
            lo, hi = self.lo * blo, self.hi * bhi
        else:
            lo, hi = _hull4(self.lo * blo, self.lo * bhi, self.hi * blo, self.hi * bhi)
        return Interval._ordered(next_down(lo), next_up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        blo, bhi = self._coerce(other)
        if _all(blo > 0.0) and _all(self.lo >= 0.0):
            return Interval._ordered(next_down(self.lo / bhi), next_up(self.hi / blo))
        if _any((blo <= 0.0) & (0.0 <= bhi)):  # NaN entries go on to NaN ends
            raise ZeroDivisionError("interval division by a set containing 0")
        lo, hi = _hull4(self.lo / blo, self.lo / bhi, self.hi / blo, self.hi / bhi)
        return Interval._ordered(next_down(lo), next_up(hi))

    def __rtruediv__(self, other):
        blo, bhi = self._coerce(other)
        return Interval._ordered(blo, bhi) / self

    # -- elementary functions ------------------------------------------------

    def exp(self) -> "Interval":
        return Interval._ordered(next_down(np.exp(self.lo), LIBM_ULPS),
                                 next_up(np.exp(self.hi), LIBM_ULPS))

    def log(self) -> "Interval":
        if _any(self.lo <= 0.0):  # NaN entries go on to NaN ends
            raise DomainError(f"log of an interval reaching down to {self.lower()}")
        return Interval._ordered(next_down(np.log(self.lo), LIBM_ULPS),
                                 next_up(np.log(self.hi), LIBM_ULPS))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None) -> "Interval":
        """Enclosure of the exact sum of all entries, or of each row along `axis`:
        the float sums of the endpoints widened by their `sum_slack` and one
        ulp.  A scalar is one term and sums as a 1-entry array does."""
        lo = _ADD(self.lo, axis=axis) - sum_slack(self.lo, axis)
        hi = _ADD(self.hi, axis=axis) + sum_slack(self.hi, axis)
        return Interval._ordered(next_down(lo), next_up(hi))


def sum_slack(t, axis=None):
    """Bound (n-1) eps sum|t| 1.125 on the rounding error of np.add.reduce over n
    terms t (each row along `axis`): any order of additions errs by at most
    (n-1) u sum|t| to first order (u = eps/2; Higham 2002, ch. 4); 1.125 covers
    the bound's rounding."""
    n = np.size(t) if axis is None else np.shape(t)[axis]
    return slack_of_sum(n, _ADD(np.abs(t), axis=axis))


def slack_of_sum(n: int, abs_sum):
    """`sum_slack` from the number of terms n and sum|t| (the float sum itself
    when every term is >= 0)."""
    return (n - 1) * np.finfo(np.float64).eps * abs_sum * 1.125


# -- generic dispatchers (shared formula code runs on floats or intervals) ----

def xexp(z):
    if isinstance(z, Interval):
        return z.exp()
    return np.exp(z)


def xlog(z):
    if isinstance(z, Interval):
        return z.log()
    return np.log(z)


def log_of_int(n, as_interval: bool):
    """log(n) for an exact (big) integer n >= 1, or elementwise over a sequence of them.

    Returns floats, or Intervals widened LIBM_ULPS ulps per side when
    as_interval; log(1) is an exact 0 in both.
    """
    ints = [int(v) for v in np.ravel(n)]
    if any(v < 1 for v in ints):
        raise ValueError("log_of_int needs n >= 1")
    r = np.array([math.log(v) for v in ints]).reshape(np.shape(n))
    if not as_interval:
        return float(r) if r.ndim == 0 else r
    exact = r == 0.0
    return Interval(np.where(exact, 0.0, next_down(r, LIBM_ULPS)),
                    np.where(exact, 0.0, next_up(r, LIBM_ULPS)))


def xsum(z, axis=None):
    """Sum of all entries, or of each row along `axis`.

    Floats go through np.add.reduce (`_ADD`), the reduction np.sum runs,
    without its wrapper; its rounding error stays within `sum_slack` of the
    terms.  Intervals get the enclosure of `Interval.sum`, widened by that slack.
    """
    if isinstance(z, Interval):
        return z.sum(axis)
    z = np.asarray(z, dtype=np.float64)
    if axis is None or z.ndim <= 1:
        return float(_ADD(z, axis=None))
    return _ADD(z, axis=axis)


def upper(z) -> float:
    """Largest value of z: an Interval's upper end, an array's maximum (-inf
    when empty), or z itself."""
    if isinstance(z, Interval):
        return z.upper()
    return float(z.max(initial=-math.inf)) if isinstance(z, np.ndarray) else float(z)


def lower(z) -> float:
    """Smallest value of z: an Interval's lower end, an array's minimum (+inf
    when empty), or z itself."""
    if isinstance(z, Interval):
        return z.lower()
    return float(z.min(initial=math.inf)) if isinstance(z, np.ndarray) else float(z)
