"""Two-variable reduction of the constrained entropy maximization.

The stationary proportions mu_(x,p,j) of a locally maximal solution can all
be expressed through two aggregates of themselves,

    U = 9(1-phi) b3 / ((3 phi - b1) b2),
    V = 1 + b2^2 / (3 (3 phi - b1) b3) = (b1 + 6 phi - 3)^2 / (3 b3 (3 phi - b1)),

with b2 = 3(1-phi) - 2 b1 and b3 = b1 - 2 + 3 phi, which turns the full
N-dimensional Lagrange system into two scalar equations Eq1(phi, b1) = 0 and
Eq2(phi, b1) = 0 over the occurrence triangle.  This module evaluates those
equations, the log of the normalizing product g2 and the per-variable
expectation-rate bound in point and rectangle (corner-majorized) modes.
The mu-space forms the reduction starts from (closed-form mu and alpha, the
objective and its gradient) are test oracles in tests/oracles.py.

Every triangle quantity is built from one cell kernel, the excess
E = (U/V)^(x-2p) (1 - V^-p) of `cell_excess`, and summed in the log domain
by `intervals.xsum` (np.add.reduce, the reduction of np.sum, on floats,
within `intervals.sum_slack`).  The rate bounds run the same code on
outward-rounded intervals.  In interval mode Eq1 and Eq2 keep the point
quantities in interval arithmetic, but take their cell sums from two float
evaluations at the corners of the point's enclosure, widened by the
rounding lemma of `_pad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import distribution as dist
from .distribution import DerivedConstants
from .errors import DomainError, SingularPointError
from .intervals import (LIBM_ULPS, Interval, log_of_int, lower, next_down, next_up,
                        slack_of_sum, upper, xexp, xlog, xsum)
from .ledger import ErrorBudget, FeasibleBox, euler, point_fields

#: Points per (points x cells) float evaluation when eq1/eq2 get arrays of
#: points (in interval mode, per corner); bounds the working arrays.  On the
#: trace of 128 Eq1 and 126 Eq2 checks, one batch raised certify's peak RSS
#: from ~36.4 to ~40.6 MB and its time by ~20% in both modes, 32 points to
#: ~37.3 MB, also slower; 16 points matched 8 on float and RSS and was ~6%
#: faster on interval certify (perfbench/run.py, two 8 s runs a value).
CHUNK_POINTS = 8


# -- the (phi, beta1) point ----------------------------------------------------

class PhiBetaPoint(NamedTuple):
    """Derived fields at one point: floats, or Intervals in interval mode (a
    NamedTuple: one is built per equation evaluation)."""

    phi: float
    beta1: float
    beta2: float
    beta3: float
    Y: float
    U: float
    V: float


class Cells(NamedTuple):
    """The triangle cells one equation sums over, with its per-cell weight
    formed once at build: kt * w for Eq1, p * kt for Eq2."""

    kt: object          # ndarray, or an Interval of arrays
    w: np.ndarray       # x - 2p, float64
    p: np.ndarray       # float64
    weight: object      # like kt


def _uv(phi, beta2, beta3, Y):
    if lower(Y) <= 0.0 or lower(beta2) <= 0.0 or lower(beta3) <= 0.0:
        raise SingularPointError(
            f"U/V undefined at phi={phi}: Y={lower(Y):.6g}, "
            f"beta2={lower(beta2):.6g}, beta3={lower(beta3):.6g}")
    return 9.0 * (1.0 - phi) * beta3 / (Y * beta2), 1.0 + beta2 * beta2 / (3.0 * Y * beta3)


def uv(phi, beta1):
    """(U, V) at (phi, beta1) for floats, ndarrays or Intervals.

    Raises SingularPointError unless Y, beta2 and beta3 are positive
    throughout, which is where U and V are defined.
    """
    return _uv(phi, *point_fields(phi, beta1))


def derive_point(phi, beta1) -> PhiBetaPoint:
    """Compute all derived fields (outward-rounded for Interval coordinates);
    raises SingularPointError where U/V is undefined."""
    beta2, beta3, Y = point_fields(phi, beta1)
    U, V = _uv(phi, beta2, beta3, Y)
    return PhiBetaPoint(phi, beta1, beta2, beta3, Y, U, V)


# -- the two stationarity equations ---------------------------------------------

@dataclass(frozen=True)
class EqSystem:
    """The stationarity system of one configuration, in float or interval mode.

    Holds lambda, c, K_tilde, the triangle cell arrays (x, p, w = x - 2p,
    kt), their Eq1 and Eq2 subsets (w and p as float64, so the per-cell
    products cast nothing), and the log of the n-free base constant
    3^c (lam/6e)^lam 2^(sum_{x>2p} kt) / prod [p!(x-p)! kt]^kt.  Float mode
    takes the tables from build_tables; interval mode encloses them from the
    exact decimal density, so the rectangle rate bound runs the same code
    outward-rounded, and eq1 and eq2 return enclosures: the point fields in
    interval arithmetic, the cell sums from the float kernel at two corners
    (`_enclose`).  Evaluation points are exact floats in both modes; eq1 and
    eq2 also take equal-shape arrays of them and return one value per point:
    the point fields are derived once for all the points, whose float cell
    terms are then formed CHUNK_POINTS points at a time.
    """

    mode: str
    box: FeasibleBox
    lam: object
    c: object
    K_tilde: object
    xs: np.ndarray
    ps: np.ndarray
    w: np.ndarray
    kt: object          # ndarray, or an Interval of arrays
    cells_eq1: Cells    # p >= 1, x > 2p; weight kt * w
    cells_eq2: Cells    # p >= 1; weight p * kt
    log_base: object

    @classmethod
    def build(cls, params, consts: DerivedConstants, mode: str = "float") -> "EqSystem":
        xs, ps, w = consts.xs, consts.ps, consts.w
        c, lam, _, _, _ = params.decimals(mode)
        as_iv = mode == "interval"
        if as_iv:
            kt, k_tilde = dist.kappa_tilde_intervals(params.x_max, lam)
        else:
            k_tilde, kt = consts.K_tilde, consts.kt
        log_fact = log_of_int([math.factorial(n) for n in range(consts.x_max + 1)], as_iv)
        log_pfact = log_fact[ps] + log_fact[xs - ps]
        pos = consts.kt > 0.0  # kt^kt = 1 where a mass underflows to 0
        log_base = (c * log_of_int(3, as_iv) + lam * (xlog(lam) - log_of_int(6, as_iv) - 1.0)
                    + xsum(kt[w > 0]) * log_of_int(2, as_iv)
                    - xsum(kt[pos] * (log_pfact[pos] + xlog(kt[pos]))))
        p1 = ps >= 1
        strict = p1 & (w > 0)
        wf, pf = w.astype(np.float64), ps.astype(np.float64)
        kt1, w1, pf1 = kt[strict], wf[strict], pf[strict]
        kt2, w2, pf2 = kt[p1], wf[p1], pf[p1]
        return cls(mode=mode, box=params.a_priori, lam=lam, c=c, K_tilde=k_tilde,
                   xs=xs, ps=ps, w=w, kt=kt,
                   cells_eq1=Cells(kt1, w1, pf1, kt1 * w1),
                   cells_eq2=Cells(kt2, w2, pf2, pf2 * kt2), log_base=log_base)

    def point(self, phi: float, beta1: float) -> PhiBetaPoint:
        """The derived point at (phi, beta1), enclosed in interval mode."""
        if self.mode == "interval":
            phi, beta1 = Interval(phi), Interval(beta1)
        return derive_point(phi, beta1)

    # the bodies call the module-level eq1/eq2, the one entry point per equation
    def eq1(self, phi: float, beta1: float):
        """Eq1 at (phi, beta1): a float, or an enclosing Interval."""
        return eq1(self.point(phi, beta1), self)

    def eq2(self, phi: float, beta1: float):
        """Eq2 at (phi, beta1): a float, or an enclosing Interval."""
        return eq2(self.point(phi, beta1), self)


def cell_excess(log_uv, log_v, w, p):
    """E = (U/V)^w (1 - V^-p) per cell, w = x - 2p, from log(U/V) and log V.

    The one per-cell term of the reduction: the row denominator is
    U^w (V^p - 1) + V^(x-p) = V^(x-p) (1 + E) and the single-flip bracket is
    alpha = 1 - 1/(1 + E).  Generic over floats, ndarrays and Intervals.
    """
    return _excess(w * log_uv, p * -log_v)  # -(p log V) to the bit, one negation


def _excess(w_log_uv, neg_p_log_v):
    """E from its two exponent products, log (U/V)^w and log V^-p."""
    return xexp(w_log_uv) * (1.0 - xexp(neg_p_log_v))


def log_den(log_uv, log_v, w, p):
    """log of the row denominator U^w (V^p - 1) + V^(x-p): (x-p) log V + log(1 + E)."""
    return (w + p) * log_v + xlog(1.0 + cell_excess(log_uv, log_v, w, p))


def _logs(U, V):
    """(log(U/V), log V), the coordinates the cell kernel takes."""
    log_v = xlog(V)
    return xlog(U) - log_v, log_v


def _col(z):
    """A batch of points with a trailing length-1 axis, so its points axis
    broadcasts against the cell arrays; a single point stays a scalar."""
    return z[..., None] if isinstance(z, np.ndarray) and z.ndim else z


def _eq1_terms(cells: Cells, log_uv, log_v):
    """Eq1's cell terms weight (1 - 1/(1 + E)), a row of cells per point."""
    E = cell_excess(_col(log_uv), _col(log_v), cells.w, cells.p)
    return cells.weight * (1.0 - 1.0 / (1.0 + E))


def _eq2_terms(cells: Cells, V, log_uv, log_v, neg_log_v_den=None):
    """Eq2's cell terms weight (V - 1)/(V (V^p - 1)) (1 - 1/(1 + E)), a row of
    cells per point; V^p is exp(-p neg_log_v_den), by default from E's log_v."""
    log_uv, v = _col(log_uv), _col(V)
    neg_p_log_v = cells.p * -_col(log_v)  # shared by V^-p in E and by V^p - 1
    E = _excess(cells.w * log_uv, neg_p_log_v)
    if neg_log_v_den is not None:
        neg_p_log_v = cells.p * _col(neg_log_v_den)
    vp_minus_1 = xexp(-neg_p_log_v) - 1.0
    del neg_p_log_v  # freed before the terms, so the peak memory stays where it was
    return cells.weight * ((v - 1.0) / (v * vp_minus_1)) * (1.0 - 1.0 / (1.0 + E))


def _row_sums(terms, cells: Cells, *points):
    """xsum of terms(cells, *points) along the cells, CHUNK_POINTS points a call
    along the points' leading axis, the sums joined in order.  A single point,
    or a batch no larger than one chunk, is one direct call."""
    n = points[0].shape[0] if isinstance(points[0], np.ndarray) and points[0].ndim else 0
    if n <= CHUNK_POINTS:
        return xsum(terms(cells, *points), axis=-1)
    return np.concatenate([xsum(terms(cells, *(z[s:s + CHUNK_POINTS] for z in points)), axis=-1)
                           for s in range(0, n, CHUNK_POINTS)])


#: Unit roundoff of float64.
_U = 2.0 ** -53
#: One libm exp in units of u: within LIBM_ULPS ulps of its returned
#: value, the trust base of Interval.exp/log, so within 4 LIBM_ULPS u of it.
_LIBM_K = 4.0 * LIBM_ULPS
#: Largest |w a| and p b the rounding lemma admits: every exp in a cell term
#: stays within e^+-300, far from overflow and underflow.
_EXP_ARG_MAX = 300.0
#: Bound on one cell term's underflow error (see `_pad`).
_TINY = 2.0 ** -1000


def _term_count(log_uv: Interval, log_v: Interval, cells: Cells, V: Interval | None = None):
    """K of `_pad`'s lemma for every cell and both corners, one per point: an
    Eq1 term's, or with V an Eq2 term's; infinite outside the lemma's range."""
    wa = cells.w.max() * np.maximum(np.abs(log_uv.lo), np.abs(log_uv.hi))
    pb = cells.p.max() * log_v.hi
    k_p = pb + _LIBM_K  # e^(+-p b): its argument's rounding and libm
    amp = 1.0 / (1.0 - k_p * _U)
    k = wa + _LIBM_K + ((1.0 + _LIBM_K / log_v.lo) * amp + 1.0) + 1.0  # E = e^(w a) (1 - e^-pb)
    k += 4.0  # the bracket 1 - 1/(1 + E) and the product with the weight
    if V is not None:  # (V - 1)/(V (V^p - 1)) times the weight, and its bound F
        k_den = (k_p + 1.0 + _LIBM_K / log_v.lo) * amp + 1.0
        k = (k + k_den + 4.0) * np.maximum(1.0, (V.hi - 1.0) / (V.hi * log_v.lo))
    ok = (log_v.lo > 0.0) & (wa <= _EXP_ARG_MAX) & (pb <= _EXP_ARG_MAX)
    return np.where(ok, k, np.inf)


def _pad(row_sum, cells: Cells, count):
    """Bound on |computed - exact| of a float row sum of positive cell terms.

    Lemma.  Let u = 2^-53, Theta_k the factors in [1 - ku, 1/(1 - ku)] and
    gamma_k = ku/(1 - ku) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3, for real k >= 0).  Theta_j Theta_k lies in
    Theta_(j+k), 1/Theta_k = Theta_k, and |theta - 1| <= gamma_k on Theta_k.
    Take exact float inputs a = log(U/V), b = log V > 0, V, the weight, and
    the cells' integer w and p, with |w a| and p b at most 300.  Then:

    - each IEEE op is Theta_1; a libm exp is Theta_(4L), L = LIBM_ULPS (within
      L ulps of the returned value y, so within 4Lu y); exp of a rounded
      product fl(t) is exp(t) Theta_|t|, since e^(+-|t|u) lies in Theta_|t|.
    - From e^-pb computed as e Theta_k, k = pb + 4L, 1 - e^-pb is (1 - e)
      Theta_(km/(1-ku)) with m = 1/(e^pb - 1) <= 1/(p b); e^pb - 1 is likewise
      (e^pb - 1) Theta_(km/(1-ku)) with m = 1 + 1/(e^pb - 1).  So the computed
      E is E Theta_kE and Eq2's (V - 1)/(V (V^p - 1)) times the weight is
      exact times Theta_kg (`_term_count`; k_g = 0 for Eq1).
    - 1 - 1/(1 + E) rounds to alpha rho (1 + d) + zeta with rho in Theta_kE,
      |d| <= u and |zeta| <= gamma_2/(1 + E): the cancellation error is
      absolute, not relative to alpha = E/(1 + E) (E reaches e^-30 on the
      4.506 trace).
    - alpha <= 1, and Eq2's (V - 1)/(V (V^p - 1)) is at most
      F = max(1, (V_hi - 1)/(V_hi b_lo)) at either corner (e^x - 1 >= x),
      so every computed term is within gamma_K weight of the exact term,
      K = (k_E + k_g + 4) F (F = 1 for Eq1; gamma_k F <= gamma_(kF)).
    - Underflow adds at most 2^-1075 to a product or quotient (Higham eq.
      2.8), times at most 3 x_max + 3 in all through the rest of the term
      (weight <= x_max): under 2^-1000 a term for x_max < 2^70.

    Summing n terms, |S_float - S| <= gamma_K sum(weight) + n 2^-1000 +
    sum_slack.  The pad takes 1.125 times the first two parts, which covers
    the rounding of their own evaluation.  It is infinite where Ku >= 2^-20
    (so b > 2^-29 wherever it is finite) or the inputs leave the lemma's range.
    """
    ku = count * _U
    gamma = np.where(ku < 2.0 ** -20, ku / (1.0 - ku), np.inf)
    n = cells.w.size
    return 1.125 * (gamma * xsum(cells.weight) + n * _TINY) + slack_of_sum(n, row_sum)


def _enclose(terms, cells: Cells, count, low: tuple, high: tuple) -> Interval:
    """Enclosure of an equation's cell sums at Interval inputs, from two float
    evaluations of `terms`.

    Each term is positive and grows in each input, so every exact sum lies
    between the exact sums at the corner `low` of lower ends (weight.lo) and
    the corner `high` of upper ends (weight.hi).  Each corner is summed in
    float, widened by its `_pad` under the count K of its terms and stepped
    one ulp outward; only the (points,) sums are stepped.
    """
    at_lo, at_hi = cells._replace(weight=cells.weight.lo), cells._replace(weight=cells.weight.hi)
    s_lo, s_hi = _row_sums(terms, at_lo, *low), _row_sums(terms, at_hi, *high)
    return Interval._ordered(next_down(s_lo - _pad(s_lo, at_lo, count)),
                             next_up(s_hi + _pad(s_hi, at_hi, count)))


def _eq1_core(phi, log_uv, log_v, lam, k_tilde, cells: Cells):
    """Eq1 = K_tilde - lam phi - sum; on Interval coordinates the cell sum is
    enclosed by `_enclose`, everything else stays in Interval arithmetic."""
    if isinstance(log_uv, Interval):
        s = _enclose(_eq1_terms, cells, _term_count(log_uv, log_v, cells),
                     (log_uv.lo, log_v.lo), (log_uv.hi, log_v.hi))
    else:
        s = _row_sums(_eq1_terms, cells, log_uv, log_v)
    return k_tilde - lam * phi - s


def eq1(pt: PhiBetaPoint, system: EqSystem):
    """Residual of the first stationarity equation (diagonal terms vanish identically).

    At a point whose fields are arrays the residual is evaluated for every
    point, CHUNK_POINTS points at a time; the point fields and their logs are
    computed once for all of them.
    """
    return _eq1_core(pt.phi, *_logs(pt.U, pt.V), system.lam, system.K_tilde, system.cells_eq1)


def _eq2_core(phi, beta1, V, log_uv, log_v, lam, c, cells: Cells):
    """Eq2 = -beta1 c + lam phi (1 - 1/V) + sum, enclosed as in `_eq1_core`;
    the lower corner takes V^p - 1 at the upper end of log V, and the upper
    corner at its lower end."""
    if isinstance(log_uv, Interval):
        s = _enclose(_eq2_terms, cells, _term_count(log_uv, log_v, cells, V),
                     (V.lo, log_uv.lo, log_v.lo, -log_v.hi), (V.hi, log_uv.hi, log_v.hi, -log_v.lo))
    else:
        s = _row_sums(_eq2_terms, cells, V, log_uv, log_v)
    return -beta1 * c + lam * phi * (1.0 - 1.0 / V) + s


def eq2(pt: PhiBetaPoint, system: EqSystem):
    """Residual of the second stationarity equation, over the p >= 1 cells.

    Arrays of points are evaluated as in `eq1`.
    """
    if lower(pt.V) <= 1.0:
        raise SingularPointError(f"eq2 needs V > 1, got V = {pt.V}")
    return _eq2_core(pt.phi, pt.beta1, pt.V, *_logs(pt.U, pt.V), system.lam, system.c,
                     system.cells_eq2)


# -- expectation-rate bound ------------------------------------------------------

def log_g2(pt: PhiBetaPoint, system: EqSystem) -> float:
    """log of the normalizing product prod Den^kt / (U^(K-lam phi) (V-1)^(b1 c))."""
    if pt.V <= 1.0:
        raise DomainError(f"g2 needs V > 1, got V = {pt.V}")
    return float(xsum(system.kt * log_den(*_logs(pt.U, pt.V), system.w, system.ps))
                 - (system.K_tilde - system.lam * pt.phi) * np.log(pt.U)
                 - pt.beta1 * system.c * np.log(pt.V - 1.0))


def _entropy_f(phi, beta2, beta3, y) -> float:
    """F = Y log Y + 3(1-phi) log 3(1-phi) - beta2 log beta2 - beta3 log 3 beta3."""
    return (y * math.log(y) + 3.0 * (1.0 - phi) * math.log(3.0 * (1.0 - phi))
            - beta2 * math.log(beta2) - beta3 * math.log(3.0 * beta3))


def rate_bound_point(pt: PhiBetaPoint, system: EqSystem, budget: ErrorBudget) -> float:
    """Point-mode expectation rate: the n-independent factor, prefactors included,
    unbalancing factor excluded.  Exploratory only (float mode)."""
    if not system.box.contains(pt.phi, pt.beta1):
        raise DomainError("rate bound requires a feasible point")
    log_rate = (system.log_base + math.log(upper(budget.prefactor)) + log_g2(pt, system)
                + system.c * _entropy_f(pt.phi, pt.beta2, pt.beta3, pt.Y))
    return math.exp(log_rate)


def _xmax2(a, b):
    if isinstance(a, Interval) or isinstance(b, Interval):
        a = a if isinstance(a, Interval) else Interval(a)
        b = b if isinstance(b, Interval) else Interval(b)
        return Interval(np.maximum(a.lo, b.lo), np.maximum(a.hi, b.hi))
    return max(a, b)


def _max_xlogx(lo, hi):
    """max of t*log(t) over [lo, hi] (attained at an endpoint)."""
    return _xmax2(lo * xlog(lo), hi * xlog(hi))


def _max_neg_xlogsx(lo, hi, s: float):
    """max of -t*log(s*t) over [lo, hi]; interior peak value t* = 1/(s*e) at t = t*."""
    best = _xmax2(-(lo * xlog(s * lo)), -(hi * xlog(s * hi)))
    t_star = 1.0 / (s * euler(isinstance(lo, Interval)))
    if lower(lo) < upper(t_star) and lower(t_star) < upper(hi):
        best = _xmax2(best, t_star)
    return best


def _pow_box_max_log(alo, ahi, blo, bhi):
    """max of b*log(a) over the box [alo, ahi] x [blo, bhi] (corner-attained)."""
    la, lb = xlog(alo), xlog(ahi)
    return _xmax2(_xmax2(blo * la, blo * lb), _xmax2(bhi * la, bhi * lb))


def rate_bound_rectangle(phi_lo: float, phi_hi: float, b1_lo: float, b1_hi: float,
                         system: EqSystem, budget: ErrorBudget):
    """Uniform upper bound of the point rate over a feasibility rectangle.

    Corner monotonicity: the triangle product grows in U and V, so it is
    evaluated at (U_max, V_max); the U- and (V-1)-powers and the four
    x^x-style factors are majorized over their induced ranges corner by
    corner.  The unbalancing factor 2^(rho + eps*Delta) is included.  With an
    interval-mode system and ledger every step is outward-rounded: the corner
    coordinates are lifted to Intervals, so the corner U/V, beta2/beta3/Y and
    the x log x majorants are enclosed along with the table sums and constants.
    """
    for corner in ((phi_lo, b1_lo), (phi_lo, b1_hi), (phi_hi, b1_lo), (phi_hi, b1_hi)):
        if not system.box.contains(*corner):
            raise DomainError(f"rectangle corner {corner} is outside the feasible box")
    if system.mode == "interval":
        phi_lo, phi_hi, b1_lo, b1_hi = map(Interval, (phi_lo, phi_hi, b1_lo, b1_hi))
    lam, c, k_tilde = system.lam, system.c, system.K_tilde

    # U increases, V decreases in each variable
    u_max, v_min = uv(phi_hi, b1_hi)
    u_min, v_max = uv(phi_lo, b1_lo)
    log_big = xsum(system.kt * log_den(*_logs(u_max, v_max), system.w, system.ps))

    e_upow = _pow_box_max_log(u_min, u_max, lam * phi_lo - k_tilde, lam * phi_hi - k_tilde)
    e_vpow = _pow_box_max_log(v_min - 1.0, v_max - 1.0, -(c * b1_hi), -(c * b1_lo))

    # beta2 falls and beta3 rises in each variable; Y rises in phi, falls in beta1
    b2_lo, b3_hi, _ = point_fields(phi_hi, b1_hi)
    b2_hi, b3_lo, _ = point_fields(phi_lo, b1_lo)
    t_y = _max_xlogx(point_fields(phi_lo, b1_hi)[2], point_fields(phi_hi, b1_lo)[2])
    t_m = _max_xlogx(3.0 * (1.0 - phi_hi), 3.0 * (1.0 - phi_lo))
    t_b2 = _max_neg_xlogsx(b2_lo, b2_hi, 1.0)
    t_b3 = _max_neg_xlogsx(b3_lo, b3_hi, 3.0)

    log_rate = (system.log_base + xlog(budget.prefactor) + log_big + e_upow + e_vpow
                + c * (t_y + t_m + t_b2 + t_b3) + xlog(budget.unbalancing))
    return xexp(log_rate)

