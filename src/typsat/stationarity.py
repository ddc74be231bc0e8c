"""Two-variable reduction of the constrained entropy maximization.

The stationary proportions mu_(x,p,j) of a locally maximal solution can all
be expressed through two aggregates of themselves,

    U = 9(1-phi) b3 / ((3 phi - b1) b2),
    V = 1 + b2^2 / (3 (3 phi - b1) b3) = (b1 + 6 phi - 3)^2 / (3 b3 (3 phi - b1)),

with b2 = 3(1-phi) - 2 b1 and b3 = b1 - 2 + 3 phi, which turns the full
N-dimensional Lagrange system into two scalar equations Eq1(phi, b1) = 0 and
Eq2(phi, b1) = 0 over the occurrence triangle.  This module evaluates those
equations, the log of the normalizing product g2 and the per-variable
expectation rate: one log-rate f, taken at a point and, over a rectangle, in
its mean-value form around the centre, whose gradient is a combination of
Eq1 and Eq2.  Outside the feasibility polygon (Y, beta2, beta3 > 0) U and V,
and so Eq1 and Eq2, are undefined: a NaN entry in every shape and mode.
The mu-space forms the reduction starts from (closed-form mu and alpha, the
objective and its gradient) are test oracles in tests/oracles.py.

Every triangle quantity is built from two cell exponentials, t1 = (U/V)^(x-2p)
and t2 = V^-p: Eq1 and log g2 from the excess E = t1 (1 - t2) of
`cell_excess`, Eq2 from E/(V^p - 1) = t1 t2 with 1 - 1/V outside its sum.
At a single point each cell takes its own two exps.  A batch of points
takes them once per exponent (w = x - 2p in 0..x_max, p in 1..x_max/2,
against ~480 cells a row), over contiguous (points x exponents) tables
gathered to the cells (`_powers`); every exp and product has the
single-point operands, so a batch gives the single-point bits.
Sums go through `intervals.xsum` (np.add.reduce, the reduction of np.sum,
on floats, within `intervals.sum_slack`).  The rate bounds run the same code
on outward-rounded intervals.  In interval mode Eq1 and Eq2 keep the point
quantities in interval arithmetic, but take their cell sums from two float
evaluations at corners of the point's enclosure, widened by the rounding
lemma of `_pad`; a sign check, which reads one end of the enclosure, gets
only the corner that end needs.  Eq1 and Eq2 sum the cells `_cut` keeps; an
enclosure adds the dropped cells' bound as a one-sided tail, a float sum
adds no tail or pad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import DerivedConstants
from .errors import DomainError
from .intervals import (LIBM_ULPS, Interval, log_of_int, lower, next_down, next_up,
                        slack_of_sum, upper, xexp, xlog, xsum)
from .ledger import ErrorBudget, FeasibleBox, point_fields

#: Points per (points x cells) float evaluation when eq1/eq2 get arrays of
#: points (in interval mode, per corner); bounds the working arrays.  With
#: the exponent tables of `_powers`, certify's scaled op_s_p50 read 5.91 ms
#: (float) and 10.74 ms (interval) at 16 points, 6.01 and 11.39 ms at 8
#: (6.41 and 11.57 ms with one exp per cell at 8), and peak RSS ~37.0 MB at
#: all three (perfbench/run.py, 8 s runs, seeds 1-3, medians).  Before the
#: tables, one batch raised peak RSS from ~36.4 to ~40.6 MB and the time by
#: ~20%, and 32 points gave ~37.3 MB, also slower.
CHUNK_POINTS = 16


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


def _nan_unless_above(z, floor, *also):
    """z, NaN (at both ends of an Interval) where the lower end of z or of a
    field in `also` is not above `floor`; scalars stay np.float64 (`[()]`)."""
    ok = np.logical_and.reduce([getattr(f, "lo", f) > floor for f in (z, *also)])
    if isinstance(z, Interval):
        return Interval._ordered(*(np.where(ok, end, np.nan)[()] for end in (z.lo, z.hi)))
    return np.where(ok, z, np.nan)[()]


def _uv(phi, beta2, beta3, Y):
    """(U, V), NaN where Y, beta2 or beta3 reaches down to 0, outside the
    feasibility polygon.  The mask is built only when the whole-batch gate
    trips; NaN raises no flag, and Y is a factor of both denominators."""
    if not (lower(Y) > 0.0 and lower(beta2) > 0.0 and lower(beta3) > 0.0):
        Y = _nan_unless_above(Y, 0.0, beta2, beta3)
    return 9.0 * (1.0 - phi) * beta3 / (Y * beta2), 1.0 + beta2 * beta2 / (3.0 * Y * beta3)


def derive_point(phi, beta1) -> PhiBetaPoint:
    """Compute all derived fields (outward-rounded for Interval coordinates);
    U and V are NaN at each point where they are undefined (`_uv`)."""
    beta2, beta3, Y = point_fields(phi, beta1)
    U, V = _uv(phi, beta2, beta3, Y)
    return PhiBetaPoint(phi, beta1, beta2, beta3, Y, U, V)


# -- the two stationarity equations ---------------------------------------------

@dataclass(frozen=True)
class EqSystem:
    """The stationarity system of one configuration, in float or interval mode.

    Holds lambda, c, K_tilde, the Eq1 and Eq2 subsets of the triangle cells
    (kt, and w = x - 2p and p as float64, so the per-cell products cast
    nothing), and the log of the n-free base constant
    3^c (lam/6e)^lam 2^(sum_{x>2p} kt) / prod [p!(x-p)! kt]^kt.  Since
    p!(x-p)! kt = m 2^-x e^-lam lam^x (m = 2 below the diagonal, 1 on it), the
    2^(sum) cancels and the log is read off kt, with no factorial:
    c log 3 + lam (log lam - log 6 - 1) + sum kt (lam - x log(lam/2)).
    The mode is that of the derived constants: float from build_tables,
    interval from kappa_tilde_intervals, so the rectangle rate bound runs the
    same code outward-rounded, and eq1 and eq2 return enclosures: the point
    fields in interval arithmetic, the cell sums from the float kernel at two
    corners (`_enclose`), or at the one corner a sign check reads when given
    the check's `sign`.  eq1 and eq2 sum the cells `_cut` keeps; the
    monotone stage and log_g2 take the whole triangle.  Evaluation points are
    exact floats in both modes; eq1 and eq2 also take equal-shape arrays of
    them and return one value per point: the point fields are derived once
    for all the points, whose float cell terms are then formed CHUNK_POINTS
    points at a time, from exponent tables (`_powers`).
    """

    mode: str
    box: FeasibleBox
    lam: object
    c: object
    K_tilde: object
    cells_eq1: Cells    # p >= 1, x > 2p; weight kt * w
    cells_eq2: Cells    # p >= 1; weight p * kt
    log_base: object
    cut_eq1: tuple      # (the Cells eq1 sums, the bound T on the weight it drops): `_cut`
    cut_eq2: tuple      # the same for eq2

    @classmethod
    def build(cls, params, consts: DerivedConstants) -> "EqSystem":
        xs, ps, w, kt, lam = consts.xs, consts.ps, consts.w, consts.kt, consts.lam
        c = params.decimals(consts.mode)[0]
        as_iv = consts.mode == "interval"
        log_base = (c * log_of_int(3, as_iv) + lam * (xlog(lam) - log_of_int(6, as_iv) - 1.0)
                    + xsum(kt * (lam - xs * (xlog(lam) - log_of_int(2, as_iv)))))
        p1 = ps >= 1
        strict = p1 & (w > 0)
        wf, pf = w.astype(np.float64), ps.astype(np.float64)
        kt1, w1, pf1 = kt[strict], wf[strict], pf[strict]
        kt2, w2, pf2 = kt[p1], wf[p1], pf[p1]
        cells_eq1, cells_eq2 = Cells(kt1, w1, pf1, kt1 * w1), Cells(kt2, w2, pf2, pf2 * kt2)
        return cls(mode=consts.mode, box=params.a_priori, lam=lam, c=c, K_tilde=consts.K_tilde,
                   cells_eq1=cells_eq1, cells_eq2=cells_eq2, log_base=log_base,
                   cut_eq1=_cut(cells_eq1), cut_eq2=_cut(cells_eq2))

    def point(self, phi: float, beta1: float) -> PhiBetaPoint:
        """The derived point at (phi, beta1), enclosed in interval mode."""
        if self.mode == "interval":
            phi, beta1 = Interval(phi), Interval(beta1)
        return derive_point(phi, beta1)

    # the bodies call the module-level eq1/eq2, the one entry point per equation
    def eq1(self, phi: float, beta1: float, sign=None):
        """Eq1 at (phi, beta1): a float, or an enclosing Interval, of which
        a `sign` check reads one end (see `eq1`)."""
        return eq1(self.point(phi, beta1), self, sign)

    def eq2(self, phi: float, beta1: float, sign=None):
        """Eq2 at (phi, beta1): a float, or an enclosing Interval, of which
        a `sign` check reads one end (see `eq2`)."""
        return eq2(self.point(phi, beta1), self, sign)


def _cut(cells: Cells) -> tuple[Cells, float]:
    """The cells an equation sums, and T, a bound on the weight of those it drops.

    The dropped cells are the longest run of least weights (upper ends in
    interval mode) whose total fits within slack_of_sum(n kept, kept weight),
    which a float sum over the kept cells cannot resolve; the total rises and
    the slack falls with each cell dropped, so one count finds the run.  T
    bounds the exact total of those weights, the cumulative sum's rounding included.
    """
    weight = cells.weight.hi if isinstance(cells.weight, Interval) else cells.weight
    order = np.argsort(weight, kind="stable")
    dropped = np.cumsum(weight[order])
    k = int(np.count_nonzero(dropped <= slack_of_sum(np.arange(weight.size - 1, -1, -1),
                                                     xsum(weight) - dropped)))
    tail = float(next_up(dropped[k - 1] + slack_of_sum(k, dropped[k - 1]))) if k else 0.0
    return Cells(*(a[np.sort(order[k:])] for a in cells)), tail


def cell_excess(log_uv, log_v, w, p):
    """E = (U/V)^w (1 - V^-p) per cell, w = x - 2p, from log(U/V) and log V.

    The per-cell excess of the reduction: the row denominator is
    U^w (V^p - 1) + V^(x-p) = V^(x-p) (1 + E) and the single-flip bracket is
    alpha = E/(1 + E).  Generic over floats, ndarrays and Intervals.
    """
    return xexp(w * log_uv) * (1.0 - xexp(p * -log_v))  # -(p log V) to the bit, one negation


def _logs(U, V):
    """(log(U/V), log V), the coordinates the cell kernel takes."""
    log_v = xlog(V)
    return xlog(U) - log_v, log_v


def _powers(cells: Cells, log_uv, log_v, levels=None):
    """(t1, t2) = ((U/V)^w, V^-p) per cell, a row of cells per point.

    Without `levels` (a single point, or Interval inputs) each cell takes its
    own exp of w log(U/V) and of p (-log V).  A batch of rows passes
    `levels`, for w and then p the float exponents 0..max and each cell's
    index among them (`_row_sums`): each row's exps are taken once per
    exponent, over a contiguous (rows x levels) table, and gathered to the
    cells by one `take`.  Products and exps have the same operands either
    way, so t1 and t2 are the same bits.
    """
    if levels is None:
        return xexp(cells.w * log_uv), xexp(cells.p * -log_v)  # -(p log V) to the bit
    return tuple(np.exp(np.multiply.outer(z, exps)).take(at, axis=1)
                 for z, (exps, at) in zip((log_uv, -log_v), levels))


def _eq1_terms(cells: Cells, log_uv, log_v, levels=None):
    """Eq1's cell terms weight E/(1 + E), E = t1 (1 - t2) as in `cell_excess`,
    a row of cells per point; t1 and t2 from `_powers`."""
    t1, t2 = _powers(cells, log_uv, log_v, levels)
    E = t1 * (1.0 - t2)
    return cells.weight * E / (1.0 + E)


def _eq2_terms(cells: Cells, log_uv, log_v, levels=None):
    """Eq2's cell terms over 1 - 1/V, weight t1 t2/(1 + t1 (1 - t2)), a row
    of cells per point, t1 and t2 from `_powers`: E/(V^p - 1) is t1 t2,
    since V^p - 1 = V^p (1 - t2)."""
    t1, t2 = _powers(cells, log_uv, log_v, levels)
    return cells.weight * (t1 * t2) / (1.0 + t1 * (1.0 - t2))


def _row_sums(terms, cells: Cells, *points):
    """xsum of terms(cells, *points) along the cells.  A single point is one
    direct call.  A batch of points (1-D arrays) is summed CHUNK_POINTS
    points a call along their axis, the sums joined in order, and an empty
    batch is one empty call; the calls share the exponent levels and cell
    indices `_powers` gathers with, formed once here."""
    if np.ndim(points[0]) == 0:
        return xsum(terms(cells, *points), axis=-1)
    levels = tuple((np.arange(e.max() + 1.0), e.astype(np.intp)) for e in (cells.w, cells.p))
    return np.concatenate([xsum(terms(cells, *(z[s:s + CHUNK_POINTS] for z in points), levels),
                                axis=-1)
                           for s in range(0, max(len(points[0]), 1), CHUNK_POINTS)])


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


def _term_count(log_uv: Interval, log_v: Interval, cells: Cells):
    """K of `_pad`'s lemma, for Eq1 and Eq2, every cell and both corners, one
    per point; infinite outside the lemma's range."""
    wa = cells.w.max() * np.maximum(np.abs(log_uv.lo), np.abs(log_uv.hi))
    pb = cells.p.max() * log_v.hi
    k_p = pb + _LIBM_K  # t2 = e^-pb: its argument's rounding and libm
    k_m = (1.0 + _LIBM_K / log_v.lo) / (1.0 - k_p * _U) + 1.0  # 1 - t2
    k = wa + _LIBM_K + k_p + k_m + 5.0  # t1 = e^(w a), once, t2, 1 - t2 and five ops
    ok = (log_v.lo > 0.0) & (wa <= _EXP_ARG_MAX) & (pb <= _EXP_ARG_MAX)
    return np.where(ok, k, np.inf)


def _pad(row_sum, n: int, count):
    """Bound on |computed - exact| of a float sum of n positive cell terms.

    Lemma.  Let u = 2^-53, Theta_k the factors in [1 - ku, 1/(1 - ku)] and
    gamma_k = ku/(1 - ku) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3-4, for real k >= 0).  Theta_j Theta_k lies in
    Theta_(j+k), 1/Theta_k = Theta_k, and |theta - 1| <= gamma_k on Theta_k.
    Take exact float inputs a = log(U/V), b = log V > 0 and the weight, and
    the cells' integers w >= 0 and p >= 1, with |w a| and p b at most 300.

    - Each IEEE op is Theta_1; a libm exp is Theta_(4L), L = LIBM_ULPS (within
      L ulps of the returned value y, so within 4Lu y); exp of a rounded
      product fl(t) is exp(t) Theta_|t|, since e^(+-|t|u) lies in Theta_|t|.
      So t1 = e^(w a) is computed as t1 Theta_k1, k1 = |w a| + 4L, and
      t2 = e^-pb as t2 Theta_k2, k2 = p b + 4L.
    - 1 - t2 is computed as (1 - t2) Theta_km, k_m = k2 m/(1 - k2 u) + 1 with
      m = 1/(e^pb - 1); k2 m <= 1 + 4L/b, since x/(e^x - 1) <= 1 and p >= 1.
    - For y, z > 0 and s = yz/(1 + yz) in [0, 1), y theta/(1 + y theta z) is
      y/(1 + y z) times theta/(1 + s (theta - 1)), and 1 + y z theta is
      1 + y z times 1 + s (theta - 1); both factors lie between 1 and theta.
      So a Theta_k error of y, or of y z, reaches either form as one Theta_k.
    - Hence Eq2's term weight (t1 t2)/(1 + t1 (1 - t2)) is exact times
      Theta_K, K = k1 + k2 + k_m + 5 (t1 enters once; five ops round), and
      Eq1's weight E/(1 + E), E = t1 (1 - t2), with a smaller count k1 + k_m + 4.
    - No factor before the weight's product underflows (each lies in
      [e^-600, e^300]); that product and the quotient by 1 + ... >= 1 add at
      most 2^-1075 each (Higham eq. 2.8), under 2^-1000 a term.
    - Summed in any order, each term meets at most n - 1 additions, so the
      float sum is sum x_i Theta_(K+n-1) over the exact terms x_i > 0: their
      sum S times one Theta_(K+n-1), and S is S_float times Theta_(K+n-1).

    So |S_float - S| <= gamma_(K+n-1) S_float + n 2^-1000.  The pad counts
    2(n - 1) as `sum_slack` does and takes 1.125 times the bound for its own
    rounding; it is infinite where its count times u reaches 2^-20 (b > 2^-29
    wherever it is finite) or the inputs leave the lemma's range.
    """
    ku = (count + 2.0 * (n - 1)) * _U
    # the floor is never reached where gamma is used; it spares an infinite
    # count the invalid inf / -inf
    gamma = np.where(ku < 2.0 ** -20, ku / np.maximum(1.0 - ku, 0.5), np.inf)
    return 1.125 * (gamma * row_sum + n * _TINY)


def _corner(terms, cells: Cells, inputs: tuple, count, end: int, rows=None):
    """One end of `_enclose`'s sums, the lower for end -1 and the upper for
    +1, one value a point: the float sum of `terms` at the corner `inputs`,
    with the weights' matching end, widened by its `_pad` and stepped one
    ulp outward.  Given a mask `rows` over the points, only the points it
    selects are summed, and the others get the trivial end of a sum of
    positive terms: 0 below, +inf above."""
    if rows is None:
        s = _row_sums(terms, cells._replace(weight=getattr(cells.weight, "hi" if end > 0 else "lo",
                                                           cells.weight)), *inputs)
        return (next_up if end > 0 else next_down)(s + end * _pad(s, cells.w.size, count))
    out = np.full(np.shape(rows), np.inf if end > 0 else 0.0)
    out[rows] = _corner(terms, cells, tuple(np.asarray(z)[rows] for z in inputs), count[rows], end)
    return out


def _enclose(terms, cells: Cells, count, low: tuple, high: tuple, tail, side=None) -> Interval:
    """Enclosure of an equation's cell sums at Interval inputs, from float
    evaluations of `terms` at two corners.

    Each term is positive and monotone in each input, and the caller names
    the corners: `low`, the input ends where every term is least, and
    `high`, where every term is greatest.  So every exact sum lies between
    the exact sums at `low` with the weights' lower ends and at `high` with
    their upper ends; a float weight (a float system over a box) is its own
    two ends.  Each corner's float sum is widened by its `_pad` and stepped
    one ulp outward (`_corner`); the upper end also takes `tail`, a bound on
    the terms of the cells `_cut` dropped, each >= 0.  `side`, one entry per
    point, names the one end the caller reads: the upper for +1, the lower
    for -1.  Each corner is summed only at the points that read it; the end
    no one reads is 0 below or +inf above, so the result still encloses the
    sums.  With side None both corners are summed at every point.
    """
    rows = (None, None) if side is None else (side < 0, side > 0)
    return Interval._ordered(_corner(terms, cells, low, count, -1, rows[0]),
                             next_up(_corner(terms, cells, high, count, +1, rows[1]) + tail))


def _eq1_core(phi, log_uv, log_v, lam, k_tilde, cells: Cells, tail=0.0, sign=None):
    """Eq1 = K_tilde - lam phi - sum; on Interval coordinates the cell sum is
    enclosed by `_enclose` (a term grows in log(U/V) and in log V) with the
    `tail`, everything else stays in Interval arithmetic.  Eq1 falls as the
    sum grows, so its lower end, which a `sign` of +1 reads, takes the sum's
    upper end, and its upper end (sign -1) the sum's lower end."""
    if isinstance(log_uv, Interval):
        s = _enclose(_eq1_terms, cells, _term_count(log_uv, log_v, cells),
                     (log_uv.lo, log_v.lo), (log_uv.hi, log_v.hi), tail, sign)
    else:
        s = _row_sums(_eq1_terms, cells, log_uv, log_v)
    return k_tilde - lam * phi - s


def eq1(pt: PhiBetaPoint, system: EqSystem, sign=None):
    """Residual of the first stationarity equation (diagonal terms vanish identically).

    At a point whose fields are arrays the residual is evaluated for every
    point, CHUNK_POINTS points at a time; the point fields and their logs are
    computed once for all of them.  `sign`, +1 or -1 a point (or None), is
    the sign a check claims there: the check reads the lower end of
    sign * Eq1, and an interval system computes only that end's float
    corner.  The other end is then the trivial bound (from a cell sum of 0
    or +inf), so the result still encloses Eq1; the end read is bit for bit
    the two-sided one.  A float system ignores `sign`.
    """
    return _eq1_core(pt.phi, *_logs(pt.U, pt.V), system.lam, system.K_tilde, *system.cut_eq1,
                     sign)


def _eq2_core(phi, beta1, V, log_uv, log_v, lam, c, cells: Cells, tail, sign=None):
    """Eq2 = -beta1 c + (1 - 1/V) (lam phi + sum), enclosed as in `_eq1_core`;
    a term grows in log(U/V) and falls in log V, so the lower corner takes
    log V's upper end and the upper corner its lower end.  A term is its weight
    over e^pb (1 + e^-wa) - 1 > b, so the dropped cells' tail is F T, F = max(1, 1/b_lo).
    Both factors are positive, so Eq2 grows with the sum: a `sign` of +1
    reads the sum's lower end and -1 its upper end."""
    if isinstance(log_uv, Interval):
        s = _enclose(_eq2_terms, cells, _term_count(log_uv, log_v, cells),
                     (log_uv.lo, log_v.hi), (log_uv.hi, log_v.lo),
                     np.maximum(tail, (tail / log_v).hi), sign if sign is None else -sign)
    else:
        s = _row_sums(_eq2_terms, cells, log_uv, log_v)
    return -beta1 * c + (1.0 - 1.0 / V) * (lam * phi + s)


def eq2(pt: PhiBetaPoint, system: EqSystem, sign=None):
    """Residual of the second stationarity equation, over the p >= 1 cells.

    Arrays of points, and a `sign` a point, are taken as in `eq1`; Eq2 is
    NaN where U/V is undefined or V reaches down to 1.
    """
    if not lower(pt.V) > 1.0:
        pt = pt._replace(V=_nan_unless_above(pt.V, 1.0))
    return _eq2_core(pt.phi, pt.beta1, pt.V, *_logs(pt.U, pt.V), system.lam, system.c,
                     *system.cut_eq2, sign)


# -- expectation rate -----------------------------------------------------------

def log_g2(pt: PhiBetaPoint, system: EqSystem):
    """log of the normalizing product prod Den^kt / (U^(K-lam phi) (V-1)^(b1 c)),
    a float or, at an Interval point of an interval system, an enclosure.

    log Den = (x-p) log V + log(1 + E), and sum kt (x-p) is K_tilde over the
    triangle; E = 0 at p = 0, so the log(1 + E) sum runs over Eq2's cells.
    """
    if lower(pt.V) <= 1.0:
        raise DomainError(f"g2 needs V > 1, got V = {pt.V}")
    log_uv, log_v = _logs(pt.U, pt.V)
    cells = system.cells_eq2
    return (xsum(cells.kt * xlog(1.0 + cell_excess(log_uv, log_v, cells.w, cells.p)))
            + system.K_tilde * log_v - (system.K_tilde - system.lam * pt.phi) * xlog(pt.U)
            - pt.beta1 * system.c * xlog(pt.V - 1.0))


def _entropy_f(phi, beta2, beta3, y):
    """F = Y log Y + 3(1-phi) log 3(1-phi) - beta2 log beta2 - beta3 log 3 beta3."""
    m = 3.0 * (1.0 - phi)
    return y * xlog(y) + m * xlog(m) - beta2 * xlog(beta2) - beta3 * xlog(3.0 * beta3)


def _log_rate(pt: PhiBetaPoint, system: EqSystem, budget: ErrorBudget):
    """f, the log of the point rate: the n-free base constant, the logs of the
    prefactor and of the unbalancing factor 2^(rho + eps*Delta), log g2 and c F."""
    return (system.log_base + budget.prefactor_log + budget.unbalancing_log
            + log_g2(pt, system) + system.c * _entropy_f(pt.phi, pt.beta2, pt.beta3, pt.Y))


def _grad_log_rate(pt: PhiBetaPoint, system: EqSystem):
    """(df/dphi, df/dbeta1) at pt; an enclosure over the box when pt's fields
    are Intervals.

    f depends on (phi, beta1) explicitly and through a = log(U/V) and
    b = log V.  The explicit partials cancel: c dF/dphi = -lam log U and
    c dF/dbeta1 = c log(V-1), since lam = 3c.  The cell sums make
    df/da = -Eq1 and, because K_tilde = sum kt (x-p) over the triangle,
    df/d log(V-1) = Eq2.  So grad f = -Eq1 grad a + Eq2 grad log(V-1), with
    grad a = grad log U - ((V-1)/V) grad log(V-1).
    """
    e1, e2 = eq1(pt, system), eq2(pt, system)
    i2, i3, iy = 1.0 / pt.beta2, 1.0 / pt.beta3, 1.0 / pt.Y
    d_log_u = (3.0 * i2 + 3.0 * i3 - 3.0 * iy - 1.0 / (1.0 - pt.phi), 2.0 * i2 + i3 + iy)
    d_log_vm1 = (-6.0 * i2 - 3.0 * i3 - 3.0 * iy, -4.0 * i2 - i3 + iy)
    share = (pt.V - 1.0) / pt.V
    return tuple(e2 * dv - e1 * (du - share * dv) for du, dv in zip(d_log_u, d_log_vm1))


def rate_bound_point(pt: PhiBetaPoint, system: EqSystem, budget: ErrorBudget):
    """The expectation rate exp(f) at one feasible point, prefactors and
    unbalancing factor included; an enclosure at an Interval point of an
    interval system."""
    if not system.box.contains(pt.phi, pt.beta1):
        raise DomainError("rate bound requires a feasible point")
    return xexp(_log_rate(pt, system, budget))


def rate_bound_rectangle(phi_lo: float, phi_hi: float, b1_lo: float, b1_hi: float,
                         system: EqSystem, budget: ErrorBudget):
    """Upper bound of the point rate over a feasibility rectangle X, by the
    mean-value (centred) form (Moore, Kearfott & Cloud 2009, ch. 6):

        f(X) lies in f(m) + G_phi (Phi - m_phi) + G_beta1 (B - m_beta1),

    with m the rectangle's centre and G an enclosure of grad f over X
    (`_grad_log_rate` at the box point Phi x B: its Eq1 and Eq2 enclosures
    come from `_enclose`, whose two-corner argument holds over any box of
    inputs).  The excess over exp(f(m)) is second order in the width, since
    grad f vanishes at the root.  Returns (rate, centre_rate): exp(f(m) +
    the excess) and the centre term exp(f(m)).  A float system takes the
    excess's upper end and returns floats; an interval system returns
    enclosures, with f(m) outward-rounded too.
    """
    for corner in ((phi_lo, b1_lo), (phi_lo, b1_hi), (phi_hi, b1_lo), (phi_hi, b1_hi)):
        if not system.box.contains(*corner):
            raise DomainError(f"rectangle corner {corner} is outside the feasible box")
    phi, beta1 = Interval(phi_lo, phi_hi), Interval(b1_lo, b1_hi)
    m_phi, m_b1 = 0.5 * (phi_lo + phi_hi), 0.5 * (b1_lo + b1_hi)
    g_phi, g_b1 = _grad_log_rate(derive_point(phi, beta1), system)
    excess = g_phi * (phi - m_phi) + g_b1 * (beta1 - m_b1)
    log_rate = _log_rate(system.point(m_phi, m_b1), system, budget)
    return (xexp(log_rate + (excess if system.mode == "interval" else upper(excess))),
            xexp(log_rate))
