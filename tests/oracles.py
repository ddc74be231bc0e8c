"""Test-side oracles of the two-variable reduction (imported by tests, not collected).

The certificate runs only on Eq1/Eq2 in (phi, beta1) and the rate bounds.
The forms the reduction starts from and the ones it eliminates live here:
the stationary mu_(x,p,j) and alpha in closed form, the normalizing product
g2, the entropy objective f1 with its gradient, Eq1 over other cell sets,
the raw elimination output of Eq2, Eq1/Eq2 with every cell term in
interval arithmetic, and a finite-difference monotonicity grid over the
feasibility box.  Each is checked against the product code
by the tests that import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from typsat import distribution as dist
from typsat import stationarity as st
from typsat.errors import DomainError, SingularPointError
from typsat.intervals import log_of_int, xexp, xsum
from typsat.ledger import point_fields
from typsat.params import DELTA_NUM


# -- closed-form mu, alpha, g2 ---------------------------------------------------

@lru_cache(maxsize=4)
def mu_index(x_max: int):
    """Flattened (x, p, j) triples over 0 <= 2p <= x <= x_max, row-aligned with
    the DerivedConstants triangle order (each cell (x, p) expanded to j = 0..x)."""
    xs, ps, _ = dist.triangle(x_max)
    row = np.repeat(np.arange(xs.size), xs + 1)
    row_starts = np.flatnonzero(np.r_[1, np.diff(row)])
    tx, tp = xs[row], ps[row]
    tj = np.arange(row.size) - row_starts[row]
    return {
        "x": tx, "p": tp, "j": tj, "row": row, "lt": tj < tp,
        "pmj": np.abs(tp - tj), "w": tx - 2 * tp,
        "log_h": log_of_int(np.frompyfunc(h_weight, 3, 1)(tx, tp, tj), False),
        "row_starts": row_starts, "n_rows": xs.size,
    }


def h_weight(x: int, p: int, j: int) -> int:
    """Ways to pick the flip-preventing true literals of a type-(x, p, j) variable."""
    return math.comb(p, j) if j < p else math.comb(x - p, j - p)


def mu_closed_form(x: int, p: int, j: int, pt: st.PhiBetaPoint) -> float:
    """Stationary proportion of type-(x, p, j) variables at the point pt."""
    if not (0 <= 2 * p <= x) or not (0 <= j <= x):
        raise DomainError(f"mu needs 0 <= 2p <= x and 0 <= j <= x, got {(x, p, j)}")
    if pt.V <= 1.0:
        raise DomainError(f"mu closed form needs V > 1, got V = {pt.V}")
    den = st.log_den(*st._logs(pt.U, pt.V), x - 2 * p, p)
    logv1 = math.log(pt.V - 1.0)
    log_h = log_of_int(h_weight(x, p, j), False)
    if j < p:
        return math.exp(log_h + (x - 2 * p) * math.log(pt.U) + (p - j) * logv1 - den)
    return math.exp(log_h + (j - p) * logv1 - den)


def alpha_closed_form(x, p, pt: st.PhiBetaPoint):
    """sum_{j<p} mu in closed form: U^(x-2p)(V^p-1) / (U^(x-2p)(V^p-1)+V^(x-p)) = E/(1+E).

    x and p may be integers or equal-shape integer arrays.
    """
    E = st.cell_excess(*st._logs(pt.U, pt.V), x - 2 * p, p)
    return E / (1.0 + E)


@dataclass(frozen=True)
class MuTable:
    """Stationary mu over the flattened triple index, with row aggregates."""

    x_max: int
    mu: np.ndarray      # per (x, p, j) triple
    alpha: np.ndarray   # per (x, p) row: sum_{j<p} mu
    log_h: np.ndarray

    def row_sums(self) -> np.ndarray:
        idx = mu_index(self.x_max)
        return np.add.reduceat(self.mu, idx["row_starts"])


def mu_table(pt: st.PhiBetaPoint, consts: dist.DerivedConstants) -> MuTable:
    idx = mu_index(consts.x_max)
    logv1 = math.log(pt.V - 1.0)
    log_den_rows = st.log_den(*st._logs(pt.U, pt.V), consts.w, consts.ps)
    logmu = (idx["log_h"] + np.where(idx["lt"], idx["w"] * math.log(pt.U), 0.0)
             + idx["pmj"] * logv1 - log_den_rows[idx["row"]])
    return MuTable(x_max=consts.x_max, mu=np.exp(logmu),
                   alpha=alpha_closed_form(consts.xs, consts.ps, pt), log_h=idx["log_h"])


def g2(pt: st.PhiBetaPoint, system: st.EqSystem) -> float:
    return math.exp(st.log_g2(pt, system))


# -- objective and gradient -------------------------------------------------------

def beta1_of_mu(mu: np.ndarray, consts: dist.DerivedConstants) -> float:
    idx = mu_index(consts.x_max)
    kt_tri = consts.kt[idx["row"]]
    return xsum(kt_tri * idx["pmj"] * mu) / (consts.lam / 3.0)


def phi_of_mu(mu: np.ndarray, consts: dist.DerivedConstants) -> float:
    """phi through the alpha form: (K - sum (x-2p) kt alpha) / lambda."""
    idx = mu_index(consts.x_max)
    alpha_terms = np.where(idx["lt"], mu, 0.0)
    alpha = np.add.reduceat(alpha_terms, idx["row_starts"])
    s = xsum(consts.w * consts.kt * alpha)
    return (consts.K_tilde - s) / consts.lam


def objective_f1(mu: np.ndarray, consts: dist.DerivedConstants, params) -> float:
    """Entropy-style objective whose maximum bounds the expectation exponent."""
    if np.any(mu <= 0.0):
        raise DomainError("objective is only evaluated at strictly positive mu")
    idx = mu_index(consts.x_max)
    kt_tri = consts.kt[idx["row"]]
    ent = xsum(kt_tri * mu * (idx["log_h"] - np.log(mu)))
    phi, beta1 = phi_of_mu(mu, consts), beta1_of_mu(mu, consts)
    beta2, beta3, y = point_fields(phi, beta1)
    if min(y, beta2, beta3, 1.0 - phi) <= 0.0:
        raise DomainError(f"derived point infeasible: phi={phi}, beta1={beta1}")
    return ent + params.c * st._entropy_f(phi, beta2, beta3, y)


def gradient_f1(mu: np.ndarray, consts: dist.DerivedConstants, params) -> np.ndarray:
    """Per-(x, p, j) partials: kt [log(h/mu) - 1 + (x-2p) log U (j < p branch)
    + |p-j| log(V-1)]."""
    if np.any(mu <= 0.0):
        raise DomainError("gradient undefined at a null coordinate")
    idx = mu_index(consts.x_max)
    kt_tri = consts.kt[idx["row"]]
    phi, beta1 = phi_of_mu(mu, consts), beta1_of_mu(mu, consts)
    if phi >= 1.0:
        raise DomainError(f"derived point infeasible: phi={phi}, beta1={beta1}")
    u, v = st.uv(phi, beta1)
    return kt_tri * (idx["log_h"] - np.log(mu) - 1.0
                     + np.where(idx["lt"], idx["w"] * math.log(u), 0.0)
                     + idx["pmj"] * math.log(v - 1.0))


def projected_gradient(mu: np.ndarray, consts: dist.DerivedConstants, params) -> np.ndarray:
    """Gradient minus its per-row mean; vanishes at Lagrange-stationary mu."""
    g = gradient_f1(mu, consts, params)
    idx = mu_index(consts.x_max)
    starts = idx["row_starts"]
    sums = np.add.reduceat(g, starts)
    counts = np.add.reduceat(np.ones_like(g), starts)
    return g - (sums / counts)[idx["row"]]


# -- other forms of the two equations ---------------------------------------------

def eq1_over(cells: st.Cells, pt: st.PhiBetaPoint, system: st.EqSystem) -> float:
    """Eq1 at pt summed over the cells given, weighted kt * w whatever weight
    they carry: with system.cells_eq2 it adds the diagonal x = 2p, with
    monotone._partial_cells it is Eq1* or Eq1**, each >= Eq1."""
    return float(st._eq1_core(pt.phi, *st._logs(pt.U, pt.V), system.lam, system.K_tilde,
                              cells._replace(weight=cells.kt * cells.w)))


def eq2_eqb1(pt: st.PhiBetaPoint, system: st.EqSystem) -> float:
    """Eq2 as the raw elimination output over the full triangle; equal to Eq2
    (the p >= 1 form) wherever Eq1 vanishes."""
    log_uv, log_v = st._logs(pt.U, pt.V)
    kt, w, p = system.kt, system.w, system.ps
    d = 1.0 + st.cell_excess(log_uv, log_v, w, p)
    s = xsum(kt * (p * xexp(w * log_uv) + (w + p)) / d)
    return -pt.beta1 * system.c + ((pt.V - 1.0) / pt.V) * s



def interval_equations(system: st.EqSystem, phis: np.ndarray, betas: np.ndarray):
    """(Eq1, Eq2) at each point of an interval-mode system with every cell term
    in Interval arithmetic: the generic cell chains `_eq1_terms`/`_eq2_terms`
    on Interval columns, summed by `Interval.sum`.  The product encloses the
    same cell sums from two float corner evaluations (`stationarity._enclose`)."""
    pt = system.point(phis, betas)
    log_uv, log_v = st._logs(pt.U, pt.V)
    v, log_uv, log_v = pt.V[:, None], log_uv[:, None], log_v[:, None]
    s1 = xsum(st._eq1_terms(system.cells_eq1, log_uv, log_v), axis=-1)
    s2 = xsum(st._eq2_terms(system.cells_eq2, v, log_uv, log_v), axis=-1)
    return (system.K_tilde - system.lam * pt.phi - s1,
            -pt.beta1 * system.c + system.lam * pt.phi * (1.0 - 1.0 / pt.V) + s2)

# -- grid certifications ------------------------------------------------------------

def monotone_grid_report(system: st.EqSystem, n: int = 40) -> dict:
    """Finite-difference monotonicity certification on an n x n feasible grid.

    Checks, on adjacent feasible pairs: eq2 strictly decreasing in each
    variable; eq1 decreasing wherever positive; U increasing and V decreasing
    in each variable.  Returns the booleans plus the worst margins.
    """
    box = system.box
    grid = np.full((4, n, n), np.nan)  # eq1, eq2, U, V; NaN off the feasible set
    for i, f in enumerate(np.linspace(box.phi_min, box.phi_max, n)):
        for j, b in enumerate(np.linspace(box.beta1_min, box.beta1_max, n)):
            if not box.contains(f, b):
                continue
            try:
                pt = system.point(f, b)
            except SingularPointError:
                continue
            grid[:, i, j] = st.eq1(pt, system), st.eq2(pt, system), pt.U, pt.V

    report: dict = {"n": n, "feasible_points": int(np.count_nonzero(~np.isnan(grid[2])))}
    worst: dict = {}
    # U must rise and the others fall along each axis; eq1 only where it is positive
    for key, mat, sign in (("eq2", grid[1], -1), ("U", grid[2], +1), ("V", grid[3], -1),
                           ("eq1_where_positive", grid[0], -1)):
        flags = []
        for axis in (0, 1):
            diff = np.diff(mat, axis=axis)
            keep = ~np.isnan(diff)  # both ends feasible
            if key == "eq1_where_positive":
                keep &= (mat[:-1, :] if axis == 0 else mat[:, :-1]) > 0.0
            rise = sign * diff[keep]
            flags.append(bool(np.all(rise > DELTA_NUM)))
            name = key.split("_")[0]
            worst[f"{name}_axis{axis}"] = float(sign * rise.min()) if rise.size else math.nan
        report[key] = all(flags)
    report["worst_margins"] = worst
    report["ok"] = all(report[k] for k in ("eq2", "U", "V", "eq1_where_positive"))
    return report
