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
error ledger.  One formula, `log_kappa`, serves float and interval lambda
alike, so the certified pass encloses the same expression the float tables
evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .intervals import Interval, log_of_int, upper, xexp, xlog, xsum

LOG2 = math.log(2.0)

RHO_CUTOFF = 400  # explicit summation of the diagonal tail up to x = 2p = 400


_comb = np.frompyfunc(math.comb, 2, 1)
_factorial = np.frompyfunc(math.factorial, 1, 1)


def poisson_log_pmf(x, lam):
    """log of the Poisson(lam) mass at x: -lam + x log lam - log x!.

    x is an integer or an integer array; lam is a float, or an Interval for
    an enclosing Interval.
    """
    return -lam + x * xlog(lam) - log_of_int(_factorial(x), isinstance(lam, Interval))


def log_kappa(x, p, lam):
    """log kappa(x, p) = log C(x, p) - x log 2 + log Poisson(lam)(x), elementwise.

    The one cell-mass formula behind kappa, the tables, their interval
    enclosures and rho: x, p are integers or equal-shape integer arrays, lam
    a float or an Interval.
    """
    as_iv = isinstance(lam, Interval)
    return log_of_int(_comb(x, p), as_iv) - x * log_of_int(2, as_iv) + poisson_log_pmf(x, lam)


def _unbalanced(w):
    """Multiplicity of kappa in kappa_tilde by w = x - 2p: 2 below the diagonal, 1 on it, 0 above."""
    return np.sign(w) + 1.0


def kappa(x: int, p: int, lam: float) -> float:
    """Typical mass of the cell (x total occurrences, p of them positive)."""
    if x < 0 or p < 0 or p > x:
        raise DomainError(f"kappa needs 0 <= p <= x, got (x={x}, p={p})")
    if lam <= 0:
        raise DomainError("kappa needs lambda > 0")
    return float(np.exp(log_kappa(x, p, lam)))


def kappa_tilde(x: int, p: int, lam: float) -> float:
    """Totally unbalanced mass: 2*kappa below the diagonal, kappa on it, 0 above."""
    return float(_unbalanced(x - 2 * p) * kappa(x, p, lam))


# -- small exact combinatorial constants --------------------------------------

def big_d(x_max: int) -> int:
    """Number of cells (x, p) with 0 <= p <= x <= x_max."""
    return (x_max + 1) * (x_max + 2) // 2


def big_n(x_max: int) -> int:
    """Number of unknowns mu_(x,p,j) with 0 <= 2p <= x <= x_max, 0 <= j <= x."""
    num = (x_max + 2) * (4 * x_max * x_max + 13 * x_max + 12)
    frac = Fraction(num, 24)
    if frac.denominator != 1:
        raise ConfigurationError(f"N({x_max}) is not an integer")
    return int(frac)


def p2(xi: int) -> float:
    return float(Fraction(xi * (xi + 1) * (xi + 2), 3))


def p3(xi: int) -> float:
    return float(Fraction(xi * (xi + 2) * (2 * xi + 3), 8))


def rho_tail(x_max: int, lam, cutoff: int = RHO_CUTOFF):
    """Diagonal tail mass sum_{2p > x_max} kappa(2p, p), enclosed for an Interval lam.

    Explicit terms up to 2p = cutoff, then a geometric remainder: the term
    ratio is (lambda / (2p+2))^2 <= (lambda / cutoff)^2 past the cutoff.
    """
    if cutoff <= x_max or cutoff <= upper(lam):
        raise DomainError("rho cutoff must exceed x_max and lambda")
    two_p = np.arange(x_max + 2, cutoff + 1, 2)
    terms = xexp(log_kappa(two_p, two_p // 2, lam))
    # floats keep the running sum in the order of 2p, which a naive partial sum
    # of the same terms reproduces bit for bit; Intervals take one enclosure
    total = terms.sum() if isinstance(terms, Interval) else np.cumsum(terms)[-1]
    q = lam / float(cutoff)
    ratio = q * q
    return total + terms[-1] * ratio / (1.0 - ratio)


@lru_cache(maxsize=None)
def triangle(x_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, ps, w = x - 2p) over the cells 0 <= 2p <= x <= x_max in (x, p) order.

    The one triangle index: the tables, their interval enclosures and the
    stationarity mu index derive from it.  Shared, so read-only.
    """
    cells = [(x, p) for x in range(x_max + 1) for p in range(x // 2 + 1)]
    xs, ps = (np.array(col, dtype=np.int64) for col in zip(*cells))
    w = xs - 2 * ps
    for arr in (xs, ps, w):
        arr.flags.writeable = False
    return xs, ps, w


def _cells(x_max: int, lam):
    """kappa and kappa_tilde over the triangle index, and K_tilde = sum (x-p) kappa_tilde."""
    xs, ps, w = triangle(x_max)
    kappas = xexp(log_kappa(xs, ps, lam))
    kt = _unbalanced(w) * kappas
    return kappas, kt, xsum((xs - ps) * kt)


# -- tables --------------------------------------------------------------------

@dataclass(frozen=True)
class OccurrenceTable:
    """Triangular table of cell masses over 0 <= p <= x <= x_max."""

    lam: float
    x_max: int
    entries: np.ndarray  # shape (x_max+1, x_max+1); entries[x, p], 0 for p > x

    def value(self, x: int, p: int) -> float:
        if not (0 <= p <= x <= self.x_max):
            raise DomainError(f"cell ({x}, {p}) outside the table triangle")
        return float(self.entries[x, p])

    def row_sum(self, x: int) -> float:
        return xsum(self.entries[x, : x + 1])

    def triangle_sum(self) -> float:
        return xsum(self.entries[np.tril_indices(self.x_max + 1)])


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants and flattened index arrays derived from (lambda, x_max).

    xs, ps, kt run over the lower triangle 0 <= 2p <= x <= x_max in (x, p)
    lexicographic order; w = x - 2p.  Everything downstream of the
    stationarity system is computed from these arrays.
    """

    lam: float
    x_max: int
    rho: float
    delta: float
    D: int
    N: int
    K_tilde: float
    xs: np.ndarray
    ps: np.ndarray
    w: np.ndarray
    kt: np.ndarray


def check_x_max(x_max: int, lam: float) -> None:
    """Validate the truncation degree against its two structural lower bounds."""
    if x_max % 2 != 0 or x_max <= 0:
        raise ConfigurationError(f"x_max must be a positive even integer, got {x_max}")
    if not x_max > lam:
        raise ConfigurationError(f"xmaxlb2 violated: x_max = {x_max} must exceed lambda = {lam}")
    need = (2.0 * lam - LOG2) / (math.log(lam) - LOG2)
    if not x_max >= need:
        raise ConfigurationError(f"xmaxlb1 violated: x_max = {x_max} < (2*lambda - log 2)/"
                                 f"(log lambda - log 2) = {need:.3f} at lambda = {lam}")


def build_tables(params) -> tuple[OccurrenceTable, OccurrenceTable, DerivedConstants]:
    """Populate the typical table, the unbalanced table, and all derived constants."""
    x_max, lam = params.x_max, params.lam

    xs, ps, w = triangle(x_max)
    kappas, kt, k_tilde = _cells(x_max, lam)
    typ = np.zeros((x_max + 1, x_max + 1))
    typ[xs, ps] = kappas
    typ[xs, xs - ps] = kappas  # kappa(x, p) = kappa(x, x - p) bit for bit
    unb = np.zeros_like(typ)
    unb[xs, ps] = kt

    consts = DerivedConstants(
        lam=lam,
        x_max=x_max,
        rho=rho_tail(x_max, lam),
        delta=0.5 * (x_max / 2 + 1),
        D=big_d(x_max),
        N=big_n(x_max),
        K_tilde=k_tilde,
        xs=xs,
        ps=ps,
        w=w,
        kt=kt,
    )
    typical = OccurrenceTable(lam, x_max, typ)
    unbalanced = OccurrenceTable(lam, x_max, unb)
    return typical, unbalanced, consts


# -- interval-mode table -------------------------------------------------------

def kappa_tilde_intervals(x_max: int, lam: Interval) -> tuple[Interval, Interval]:
    """Enclosures of the kt array and K_tilde for the certified pass.

    lam encloses 3c from the exact decimal density (ModelParams.decimals);
    binomials and factorials enter as exact integers through log enclosures.
    """
    _, kt, k_tilde = _cells(x_max, lam)
    return kt, k_tilde
