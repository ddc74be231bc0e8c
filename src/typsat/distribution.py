"""Signed-occurrence distributions of random 3-SAT variables.

A random formula with clause density c assigns each variable a number of
occurrences x that is asymptotically Poisson with mean lambda = 3c, and each
occurrence an independent fair sign.  The typical cell mass is therefore

    kappa(x, p) = 2^-x * C(x, p) * e^-lambda * lambda^x / x!

for 0 <= p <= x.  Renaming every positively unbalanced variable folds the
mass of (x, p) onto (x, x-p), giving the totally unbalanced counterpart
kappa_tilde: doubled below the diagonal x = 2p, unchanged on it, zero above.

Binomials and factorials are kept in exact integer arithmetic (56! needs
~250 bits); probabilities are then evaluated as log-domain reals, which makes
the p <-> x-p symmetry bit-exact and keeps rounding out of the certificate's
error ledger.  Those lambda-free logs are taken once per process and mode,
for the cells a certification uses.  One formula, `log_kappa`, serves float
and interval lambda alike, and each mode has one producer of kt, K_tilde and
rho: `build_tables` in float, `kappa_tilde_intervals` in interval mode; rho
is a geometric bound read off kt's last cell, not a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .intervals import Interval, log_of_int, xexp, xlog, xsum

#: The tables stage's relative tolerance on each kt row against the Poisson
#: mass of x; `check_x_max` keeps row x_max's underflow within it.
ROW_TOL = 1e-12

#: log x! is cached up to here: past every x_max + 1 that `check_x_max` admits
#: (x_max <= 330 for 3 <= c <= 5).
CACHED_X_MAX = 400


_comb = np.frompyfunc(math.comb, 2, 1)
_factorial = np.frompyfunc(math.factorial, 1, 1)


def _read_only(v):
    """v (an array, or an Interval of arrays) with its arrays made read-only."""
    for arr in (v.lo, v.hi) if isinstance(v, Interval) else (v,):
        arr.flags.writeable = False
    return v


@lru_cache(maxsize=None)
def _log_factorials(as_iv: bool):
    """log x! for 0 <= x <= CACHED_X_MAX, floats or Intervals.  Shared, so read-only."""
    return _read_only(log_of_int(_factorial(np.arange(CACHED_X_MAX + 1)), as_iv))


def log_factorial(x, as_iv: bool):
    """log x! of integers x >= 0, elementwise: floats, or Intervals when as_iv."""
    if 0 <= np.min(x, initial=0) and np.max(x, initial=0) <= CACHED_X_MAX:
        return _log_factorials(as_iv)[x]
    return log_of_int(_factorial(x), as_iv)


def _log_binom(x, p, as_iv: bool):
    """log C(x, p) - x log 2, elementwise from exact integers."""
    return log_of_int(_comb(x, p), as_iv) - x * log_of_int(2, as_iv)


@lru_cache(maxsize=None)
def _log_binoms(x_max: int, as_iv: bool):
    """`_log_binom` over triangle(x_max).  Shared, so read-only."""
    xs, ps, _ = triangle(x_max)
    return _read_only(_log_binom(xs, ps, as_iv))


def poisson_log_pmf(x, lam):
    """log of the Poisson(lam) mass at integers x: -lam + x log lam - log x!,
    enclosed for an Interval lam."""
    return -lam + x * xlog(lam) - log_factorial(x, isinstance(lam, Interval))


def log_kappa(log_binom, x, lam):
    """log kappa(x, p) = (log C(x, p) - x log 2) + log Poisson(lam)(x) from the
    cells' `_log_binom`, elementwise: the one cell-mass formula of kappa and
    of kt in both modes."""
    return log_binom + poisson_log_pmf(x, lam)


def _unbalanced(w):
    """Multiplicity of kappa in kappa_tilde by w = x - 2p: 2 below the diagonal, 1 on it, 0 above."""
    return np.sign(w) + 1.0


def kappa(x: int, p: int, lam: float) -> float:
    """Typical mass of the cell (x total occurrences, p of them positive)."""
    if x < 0 or p < 0 or p > x:
        raise DomainError(f"kappa needs 0 <= p <= x, got (x={x}, p={p})")
    if lam <= 0:
        raise DomainError("kappa needs lambda > 0")
    return float(np.exp(log_kappa(_log_binom(x, p, False), x, lam)))


def kappa_tilde(x: int, p: int, lam: float) -> float:
    """Totally unbalanced mass: 2*kappa below the diagonal, kappa on it, 0 above."""
    return float(_unbalanced(x - 2 * p) * kappa(x, p, lam))


# -- small exact combinatorial constants --------------------------------------

def big_d(x_max: int) -> int:
    """Number of cells (x, p) with 0 <= p <= x <= x_max."""
    return (x_max + 1) * (x_max + 2) // 2


def big_n(x_max: int) -> int:
    """Number of unknowns mu_(x,p,j) with 0 <= 2p <= x <= x_max, 0 <= j <= x;
    24 divides the product for every even x_max, the only kind check_x_max admits."""
    return (x_max + 2) * (4 * x_max * x_max + 13 * x_max + 12) // 24


def p2(xi: int) -> float:
    return float(Fraction(xi * (xi + 1) * (xi + 2), 3))


def p3(xi: int) -> float:
    return float(Fraction(xi * (xi + 2) * (2 * xi + 3), 8))


def rho_tail(x_max: int, lam, kt_last):
    """A bound on the diagonal tail mass sum_{2p > x_max} kappa(2p, p), from
    kt_last = kappa(x_max, x_max/2), kt's last cell; enclosed for Intervals.

    Consecutive diagonal terms have ratio (lambda/(2p+2))^2, so the tail is at
    most kt_last q0/(1 - q1), q0 = (lambda/(x_max+2))^2, q1 = (lambda/(x_max+4))^2
    < 1 (`check_x_max` keeps x_max > lambda): at most the exact tail over 1 - q1.
    """
    q0, q1 = lam / float(x_max + 2), lam / float(x_max + 4)
    return kt_last * (q0 * q0) / (1.0 - q1 * q1)


@lru_cache(maxsize=None)
def triangle(x_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, ps, w = x - 2p) over the cells 0 <= 2p <= x <= x_max in (x, p) order.

    The one triangle index: kt in both modes and the stationarity mu index
    derive from it.  Shared, so read-only.
    """
    cells = [(x, p) for x in range(x_max + 1) for p in range(x // 2 + 1)]
    xs, ps = (np.array(col, dtype=np.int64) for col in zip(*cells))
    return _read_only(xs), _read_only(ps), _read_only(xs - 2 * ps)


# -- derived constants ----------------------------------------------------------

@dataclass(frozen=True)
class DerivedConstants:
    """The constants of one (lambda, x_max) in one mode, floats from
    `build_tables` or enclosures from `kappa_tilde_intervals`.  xs, ps, kt run
    over the lower triangle 0 <= 2p <= x <= x_max in (x, p) order; w = x - 2p.
    Everything downstream of the stationarity system is computed from these."""

    mode: str
    lam: object
    x_max: int
    rho: object
    delta: float
    D: int
    N: int
    K_tilde: object
    xs: np.ndarray
    ps: np.ndarray
    w: np.ndarray
    kt: object          # ndarray, or an Interval of arrays


def check_x_max(x_max: int, lam: float) -> None:
    """Validate the truncation degree against its two structural lower bounds
    and one upper bound: a Poisson mass at x_max that the tables stage can
    check to its row tolerance ROW_TOL.  Each of the x_max + 1 cells of row
    x_max may lose 2^-1075 to underflow, so that mass must exceed
    (x_max + 1) 2^-1075 / ROW_TOL; the mass falls beyond lambda < x_max, so
    row x_max is the row nearest the bound, and past the cached factorials
    the mass at CACHED_X_MAX bounds it at a cost that does not grow with x_max."""
    if not isinstance(x_max, (int, np.integer)) or x_max % 2 != 0 or x_max <= 0:
        raise ConfigurationError(f"x_max must be a positive even integer, got {x_max}")
    if not x_max > lam:
        raise ConfigurationError(f"xmaxlb2 violated: x_max = {x_max} must exceed lambda = {lam}")
    need = (2.0 * lam - math.log(2.0)) / (math.log(lam) - math.log(2.0))
    if not x_max >= need:
        raise ConfigurationError(f"xmaxlb1 violated: x_max = {x_max} < (2*lambda - log 2)/"
                                 f"(log lambda - log 2) = {need:.3f} at lambda = {lam}")
    at = min(x_max, CACHED_X_MAX)
    mass = math.exp(poisson_log_pmf(at, lam))
    floor = (x_max + 1) / ROW_TOL * 2.0**-1074 / 2.0  # the literal 2.0**-1075 is 0
    if not mass > floor:
        raise ConfigurationError(f"x_max = {x_max} too large: the Poisson mass at x_max must "
                                 f"exceed (x_max + 1) 2^-1075 / {ROW_TOL:g} = {floor:.3e}, but is "
                                 f"{'at most ' if at < x_max else ''}{mass:.3e} at lambda = {lam}")


def _constants(params, mode: str) -> DerivedConstants:
    """The DerivedConstants of params in mode, from kappa over the triangle index."""
    x_max = params.x_max
    _, lam, _ = params.decimals(mode)
    xs, ps, w = triangle(x_max)
    kt = _unbalanced(w) * xexp(log_kappa(_log_binoms(x_max, mode == "interval"), xs, lam))
    return DerivedConstants(
        mode=mode, lam=lam, x_max=x_max, rho=rho_tail(x_max, lam, kt[-1]),
        delta=0.5 * (x_max / 2 + 1), D=big_d(x_max), N=big_n(x_max),
        K_tilde=xsum((xs - ps) * kt), xs=xs, ps=ps, w=w, kt=kt)


def build_tables(params) -> DerivedConstants:
    """The float-mode derived constants.  The name predates them: the
    benchmark's tracer (perfbench/tracer.py) wraps this function by name."""
    return _constants(params, "float")


def kappa_tilde_intervals(params) -> DerivedConstants:
    """The interval-mode derived constants: `build_tables`' kt, K_tilde and rho
    enclosed from the exact decimal density (ModelParams.decimals)."""
    return _constants(params, "interval")
