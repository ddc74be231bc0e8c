"""Outward-rounded interval arithmetic for the certified re-verification pass.

Every elementary operation rounds its lower endpoint down and its upper
endpoint up, so the enclosure property is preserved through arbitrary
compositions.  IEEE 754 guarantees correct rounding for +, -, *, / and sqrt,
so one `nextafter` step outward is enough there.  exp and log go through
libm, which is accurate to about 1 ulp on mainstream platforms but carries no
formal guarantee; those results are widened by ``LIBM_ULPS`` ulps per side
(tests cross-check the enclosures against 50-digit mpmath values).

An :class:`Interval` holds either scalar endpoints or numpy arrays of
endpoints; all operations broadcast the same way numpy does.  Mixing with
plain floats or ndarrays treats them as exact (degenerate) intervals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

LIBM_ULPS = 4

_NEG_INF = -math.inf
_POS_INF = math.inf


def _dn(x):
    return np.nextafter(x, _NEG_INF)


def _up(x):
    return np.nextafter(x, _POS_INF)


def _dn_k(x, k):
    for _ in range(k):
        x = np.nextafter(x, _NEG_INF)
    return x


def _up_k(x, k):
    for _ in range(k):
        x = np.nextafter(x, _POS_INF)
    return x


class Interval:
    """Closed interval(s) [lo, hi]; endpoints are floats or float64 arrays."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # keep numpy from elementwise-wrapping us

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
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
            return cls(f, float(np.nextafter(f, _POS_INF)))
        return cls(float(np.nextafter(f, _NEG_INF)), f)

    # -- views -------------------------------------------------------------

    @property
    def width(self):
        return self.hi - self.lo

    def lower(self) -> float:
        return float(self.lo if self.lo.ndim == 0 else self.lo.min())

    def upper(self) -> float:
        return float(self.hi if self.hi.ndim == 0 else self.hi.max())

    def contains(self, x) -> bool:
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def surely_lt(self, x) -> bool:
        return bool(np.all(self.hi < x))

    def surely_gt(self, x) -> bool:
        return bool(np.all(self.lo > x))

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
        return Interval._ordered(_dn(self.lo + blo), _up(self.hi + bhi))

    __radd__ = __add__

    def __neg__(self):
        return Interval._ordered(-self.hi, -self.lo)

    def __sub__(self, other):
        blo, bhi = self._coerce(other)
        return Interval._ordered(_dn(self.lo - bhi), _up(self.hi - blo))

    def __rsub__(self, other):
        blo, bhi = self._coerce(other)
        return Interval._ordered(_dn(blo - self.hi), _up(bhi - self.lo))

    def __mul__(self, other):
        blo, bhi = self._coerce(other)
        p1 = self.lo * blo
        p2 = self.lo * bhi
        p3 = self.hi * blo
        p4 = self.hi * bhi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return Interval._ordered(_dn(lo), _up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        blo, bhi = self._coerce(other)
        if not (np.all(blo > 0.0) or np.all(bhi < 0.0)):
            raise ZeroDivisionError("interval division by a set containing 0")
        p1 = self.lo / blo
        p2 = self.lo / bhi
        p3 = self.hi / blo
        p4 = self.hi / bhi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return Interval._ordered(_dn(lo), _up(hi))

    def __rtruediv__(self, other):
        blo, bhi = self._coerce(other)
        return Interval(blo, bhi) / self

    # -- elementary functions ------------------------------------------------

    def exp(self) -> "Interval":
        return Interval._ordered(_dn_k(np.exp(self.lo), LIBM_ULPS),
                                _up_k(np.exp(self.hi), LIBM_ULPS))

    def log(self) -> "Interval":
        if not np.all(self.lo > 0.0):
            raise DomainError(f"log of an interval reaching down to {self.lower()}")
        return Interval._ordered(_dn_k(np.log(self.lo), LIBM_ULPS),
                                _up_k(np.log(self.hi), LIBM_ULPS))

    def sqrt(self) -> "Interval":
        if not np.all(self.lo >= 0.0):
            raise DomainError("sqrt of an interval reaching below 0")
        return Interval(_dn(np.sqrt(self.lo)), _up(np.sqrt(self.hi)))

    # -- reductions ----------------------------------------------------------

    def sum(self) -> "Interval":
        """Enclosure of the exact sum of all entries (rigorous rounding slack)."""
        if self.lo.ndim == 0:
            return Interval(float(self.lo), float(self.hi))
        n = self.lo.size
        eps = np.finfo(np.float64).eps
        slack_lo = (n - 1) * eps * float(np.sum(np.abs(self.lo))) * 1.125
        slack_hi = (n - 1) * eps * float(np.sum(np.abs(self.hi))) * 1.125
        lo = _dn(float(np.sum(self.lo)) - slack_lo)
        hi = _up(float(np.sum(self.hi)) + slack_hi)
        return Interval(float(lo), float(hi))


# -- generic dispatchers (shared formula code runs on floats or intervals) ----

def xexp(z):
    if isinstance(z, Interval):
        return z.exp()
    return np.exp(z)


def xlog(z):
    if isinstance(z, Interval):
        return z.log()
    return np.log(z)


def xlog1p(z):
    if isinstance(z, Interval):
        return (1.0 + z).log()
    return math.log1p(z)


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
    return Interval(np.where(exact, 0.0, _dn_k(r, LIBM_ULPS)),
                    np.where(exact, 0.0, _up_k(r, LIBM_ULPS)))


def xsum(z):
    """Compensated sum: math.fsum for float arrays, rigorous sum for intervals."""
    if isinstance(z, Interval):
        return z.sum()
    if np.ndim(z) == 0:
        return float(z)
    return math.fsum(np.asarray(z, dtype=np.float64).tolist())


def upper(z) -> float:
    """Largest value of z: an Interval's upper end, an array's maximum, or z itself."""
    if isinstance(z, Interval):
        return z.upper()
    return float(np.max(z)) if isinstance(z, np.ndarray) else float(z)


def lower(z) -> float:
    """Smallest value of z: an Interval's lower end, an array's minimum, or z itself."""
    if isinstance(z, Interval):
        return z.lower()
    return float(np.min(z)) if isinstance(z, np.ndarray) else float(z)
