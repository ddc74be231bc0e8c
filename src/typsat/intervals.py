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
_MAX = np.maximum.reduce


def _step(x, k: int):
    """x moved |k| ulps toward +inf (k > 0) or -inf (k < 0), elementwise.

    Bit-identical to |k| calls of ``np.nextafter``.  A 0-d input takes |k|
    calls of ``math.nextafter``.  An array goes through its int64 view, about
    half the cost of one ``nextafter``: the low 63 bits of a float64 are the
    magnitude, so a step toward +inf is +1 on the bit pattern of a positive
    value and -1 on that of a negative one.  A step that would cross 0 or go
    past an infinity lands on a NaN pattern; those entries, and NaN inputs,
    go through ``nextafter`` itself.  Such a pattern may be a signaling NaN,
    so they are found by np.maximum and its reduction, which propagate NaN and
    raise no floating-point flag, and ``nextafter`` runs with its invalid and
    overflow flags off: no entry, +-inf and NaN included, warns.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        v, toward = float(x), math.copysign(math.inf, k)
        for _ in range(abs(k)):
            v = math.nextafter(v, toward)
        return np.float64(v)
    x = np.asarray(x, dtype=np.float64)
    bits = x.view(np.int64)
    y = (bits + (k - ((bits >> 63) & (2 * k)))).view(np.float64)
    if math.isnan(_MAX(np.maximum(x, y), axis=None, initial=-math.inf)):
        # nextafter flags a signaling NaN as invalid and a step to +-inf as overflow
        with np.errstate(invalid="ignore", over="ignore"):
            y = np.where(np.isnan(np.maximum(x, y)),
                         reduce(np.nextafter, [math.copysign(math.inf, k)] * abs(k), x), y)
    return y


def next_down(x, k: int = 1):
    """x rounded k ulps toward -inf (the outward step of a lower endpoint)."""
    return _step(x, -k)


def next_up(x, k: int = 1):
    """x rounded k ulps toward +inf (the outward step of an upper endpoint)."""
    return _step(x, k)


def _nonneg(a) -> bool:
    """Whether every entry of a is >= 0 (False if any is NaN)."""
    return bool((a >= 0.0).all())


def _positive(a) -> bool:
    """Whether every entry of a is > 0 (False if any is NaN)."""
    return bool((a > 0.0).all())


def _hull4(p1, p2, p3, p4):
    """(min, max) of four products or quotients: the general, mixed-sign case.

    Rounding is monotone, so when the signs are known fewer products suffice
    and give the same endpoints after the outward step (Moore, Kearfott and
    Cloud 2009, sec. 2.3); `Interval.__mul__` and `__truediv__` take those
    paths first.
    """
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


class Interval:
    """Closed interval(s) [lo, hi]; endpoints are floats or float64 arrays."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # keep numpy from elementwise-wrapping us

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo if hi is None else np.asarray(hi, dtype=np.float64)
        if np.any(lo > hi):
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
        arr = np.asarray(other, dtype=np.float64)
        return arr, arr

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
            p1 = self.lo * blo
            p3 = self.hi * blo
            lo, hi = np.minimum(p1, p3), np.maximum(p1, p3)
        elif _nonneg(self.lo) and _nonneg(blo):
            lo, hi = self.lo * blo, self.hi * bhi
        else:
            lo, hi = _hull4(self.lo * blo, self.lo * bhi, self.hi * blo, self.hi * bhi)
        return Interval._ordered(next_down(lo), next_up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        blo, bhi = self._coerce(other)
        if _positive(blo) and _nonneg(self.lo):
            return Interval._ordered(next_down(self.lo / bhi), next_up(self.hi / blo))
        if not np.all((blo > 0.0) | (bhi < 0.0)):
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
        if not np.all(self.lo > 0.0):
            raise DomainError(f"log of an interval reaching down to {self.lower()}")
        return Interval._ordered(next_down(np.log(self.lo), LIBM_ULPS),
                                 next_up(np.log(self.hi), LIBM_ULPS))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None) -> "Interval":
        """Enclosure of the exact sum of all entries, or of each row along `axis`:
        the float sums of the endpoints widened by their `sum_slack`."""
        if self.lo.ndim == 0:
            return self
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
