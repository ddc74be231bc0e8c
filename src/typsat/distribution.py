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
error ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .intervals import Interval, xsum

LOG2 = math.log(2.0)

RHO_CUTOFF = 400  # explicit summation of the diagonal tail up to x = 2p = 400


@lru_cache(maxsize=None)
def log_factorial(n: int) -> float:
    return math.log(math.factorial(n)) if n > 1 else 0.0


@lru_cache(maxsize=None)
def log_comb(x: int, p: int) -> float:
    return math.log(math.comb(x, p)) if 0 < p < x else 0.0


def poisson_log_pmf(x: int, lam: float) -> float:
    return -lam + x * math.log(lam) - log_factorial(x)


def kappa(x: int, p: int, lam: float) -> float:
    """Typical mass of the cell (x total occurrences, p of them positive)."""
    if x < 0 or p < 0 or p > x:
        raise DomainError(f"kappa needs 0 <= p <= x, got (x={x}, p={p})")
    if lam <= 0:
        raise DomainError("kappa needs lambda > 0")
    return math.exp(log_comb(x, p) - x * LOG2 + poisson_log_pmf(x, lam))


def kappa_tilde(x: int, p: int, lam: float) -> float:
    """Totally unbalanced mass: 2*kappa below the diagonal, kappa on it, 0 above."""
    if x > 2 * p:
        return 2.0 * kappa(x, p, lam)
    if x == 2 * p:
        return kappa(x, p, lam)
    if p > x or x < 0:
        raise DomainError(f"kappa_tilde needs 0 <= p <= x, got (x={x}, p={p})")
    return 0.0


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


def rho_tail(x_max: int, lam: float, cutoff: int = RHO_CUTOFF) -> float:
    """Diagonal tail mass sum_{2p > x_max} kappa(2p, p).

    Explicit terms up to 2p = cutoff, then a geometric remainder: the term
    ratio is (lambda / (2p+2))^2 <= (lambda / cutoff)^2 past the cutoff.
    """
    if cutoff <= x_max or cutoff <= lam:
        raise DomainError("rho cutoff must exceed x_max and lambda")
    total = 0.0
    last = 0.0
    for two_p in range(x_max + 2, cutoff + 1, 2):
        last = kappa(two_p, two_p // 2, lam)
        total += last
    ratio = (lam / cutoff) ** 2
    return total + last * ratio / (1.0 - ratio)


def rho_tail_interval(x_max: int, lam_iv: Interval, cutoff: int = RHO_CUTOFF) -> Interval:
    """Outward-rounded enclosure of rho (same summation scheme as rho_tail)."""
    log_lam = lam_iv.log()
    log2 = Interval.log_of_int(2)
    total = Interval(0.0)
    last = Interval(0.0)
    for two_p in range(x_max + 2, cutoff + 1, 2):
        p = two_p // 2
        log_k = (
            Interval.log_of_int(math.comb(two_p, p))
            - two_p * log2
            - lam_iv
            + two_p * log_lam
            - Interval.log_of_int(math.factorial(two_p))
        )
        last = log_k.exp()
        total = total + last
    ratio = (lam_iv / float(cutoff)) * (lam_iv / float(cutoff))
    return total + last * ratio / (1.0 - ratio)


# -- tables --------------------------------------------------------------------

@dataclass(frozen=True)
class OccurrenceTable:
    """Triangular table of cell masses over 0 <= p <= x <= x_max."""

    kind: str  # "typical" | "unbalanced" | "measured"
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

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "lambda": self.lam,
            "x_max": self.x_max,
            "entries": [
                {"x": x, "p": p, "value": float(self.entries[x, p])}
                for x in range(self.x_max + 1)
                for p in range(x + 1)
            ],
        }


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

    def h_tilde(self, x: int, p: int) -> float:
        return (x - 2 * p) * kappa_tilde(x, p, self.lam)


def check_x_max(x_max: int, lam_min: float, lam_max: float) -> None:
    """Validate the truncation degree against its two structural lower bounds."""
    if x_max % 2 != 0 or x_max <= 0:
        raise ConfigurationError(f"x_max must be a positive even integer, got {x_max}")
    if not x_max > lam_max:
        raise ConfigurationError(
            f"xmaxlb2 violated: x_max = {x_max} must exceed lambda_max = {lam_max}"
        )
    # the bound grows with lambda on [9, 15]; check both ends anyway
    for lam in (lam_min, lam_max):
        need = (2.0 * lam - LOG2) / (math.log(lam) - LOG2)
        if not x_max >= need:
            raise ConfigurationError(
                f"xmaxlb1 violated: x_max = {x_max} < (2*lambda - log 2)/(log lambda - log 2)"
                f" = {need:.3f} at lambda = {lam}"
            )


def build_tables(params) -> tuple[OccurrenceTable, OccurrenceTable, DerivedConstants]:
    """Populate the typical table, the unbalanced table, and all derived constants."""
    check_x_max(params.x_max, params.lam_min, params.lam_max)
    x_max, lam = params.x_max, params.lam

    typ = np.zeros((x_max + 1, x_max + 1))
    unb = np.zeros((x_max + 1, x_max + 1))
    for x in range(x_max + 1):
        for p in range(x + 1):
            k = kappa(x, p, lam)
            typ[x, p] = k
            if x > 2 * p:
                unb[x, p] = 2.0 * k
            elif x == 2 * p:
                unb[x, p] = k

    xs, ps = [], []
    for x in range(x_max + 1):
        for p in range(x // 2 + 1):
            xs.append(x)
            ps.append(p)
    xs = np.array(xs, dtype=np.int64)
    ps = np.array(ps, dtype=np.int64)
    kt = unb[xs, ps].copy()
    w = xs - 2 * ps

    consts = DerivedConstants(
        lam=lam,
        x_max=x_max,
        rho=rho_tail(x_max, lam),
        delta=0.5 * (x_max / 2 + 1),
        D=big_d(x_max),
        N=big_n(x_max),
        K_tilde=xsum((xs - ps) * kt),
        xs=xs,
        ps=ps,
        w=w,
        kt=kt,
    )
    typical = OccurrenceTable("typical", lam, x_max, typ)
    unbalanced = OccurrenceTable("unbalanced", lam, x_max, unb)
    return typical, unbalanced, consts


# -- interval-mode table -------------------------------------------------------

def kappa_tilde_intervals(x_max: int, c_text: str) -> dict:
    """Enclosures of lambda, the kt array, and K_tilde for the certified pass.

    c_text is the exact decimal clause density (e.g. "4.506"); binomials and
    factorials enter as exact integers through log enclosures.
    """
    c_iv = Interval.from_decimal(c_text)
    lam_iv = 3.0 * c_iv
    log_lam = lam_iv.log()
    log2 = Interval.log_of_int(2)

    xs, ps, mult = [], [], []
    logc_lo, logc_hi, logf_lo, logf_hi = [], [], [], []
    logpf_lo, logpf_hi = [], []
    for x in range(x_max + 1):
        for p in range(x // 2 + 1):
            xs.append(x)
            ps.append(p)
            mult.append(1.0 if x == 2 * p else 2.0)
            lc = Interval.log_of_int(math.comb(x, p))
            lf = Interval.log_of_int(math.factorial(x)) if x > 1 else Interval(0.0)
            pf = math.factorial(p) * math.factorial(x - p)
            lpf = Interval.log_of_int(pf) if pf > 1 else Interval(0.0)
            logc_lo.append(float(lc.lo))
            logc_hi.append(float(lc.hi))
            logf_lo.append(float(lf.lo))
            logf_hi.append(float(lf.hi))
            logpf_lo.append(float(lpf.lo))
            logpf_hi.append(float(lpf.hi))
    xs = np.array(xs, dtype=np.int64)
    ps = np.array(ps, dtype=np.int64)
    log_comb_iv = Interval(np.array(logc_lo), np.array(logc_hi))
    log_fact_iv = Interval(np.array(logf_lo), np.array(logf_hi))

    log_kappa = log_comb_iv - xs * log2 - lam_iv + xs * log_lam - log_fact_iv
    kt_iv = np.array(mult) * log_kappa.exp()
    k_tilde_iv = ((xs - ps) * kt_iv).sum()
    return {
        "c": c_iv,
        "lam": lam_iv,
        "kt": kt_iv,
        "K_tilde": k_tilde_iv,
        "log_pfact": Interval(np.array(logpf_lo), np.array(logpf_hi)),
    }
