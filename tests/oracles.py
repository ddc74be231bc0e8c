"""Test-side oracles of the two-variable reduction (imported by tests, not collected).

The certificate runs only on Eq1/Eq2 in (phi, beta1) and the rate bounds.
The forms the reduction starts from and the ones it eliminates live here:
the stationary mu_(x,p,j) and alpha in closed form, the normalizing product
g2, the entropy objective f1 with its gradient, Eq1 over other cell sets,
the raw elimination output of Eq2, Eq1/Eq2 with every cell term in
interval arithmetic, the direct single-point form of the batched cell
kernel, the constants kappa, rho and the base constant and the
ledger's slack factors at mpmath's working precision, and a finite-difference monotonicity grid over
the feasibility box.  Each is checked against the product code
by the tests that import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from typsat import distribution as dist
from typsat import stationarity as st
from typsat.errors import DomainError
from typsat.intervals import log_of_int, xexp, xlog, xsum
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


def log_den(log_uv, log_v, w, p):
    """log of the row denominator U^w (V^p - 1) + V^(x-p): (x-p) log V + log(1 + E),
    w = x - 2p, from the product's cell kernel `stationarity.cell_excess`."""
    return (w + p) * log_v + xlog(1.0 + st.cell_excess(log_uv, log_v, w, p))


def mu_closed_form(x: int, p: int, j: int, pt: st.PhiBetaPoint) -> float:
    """Stationary proportion of type-(x, p, j) variables at the point pt."""
    if not (0 <= 2 * p <= x) or not (0 <= j <= x):
        raise DomainError(f"mu needs 0 <= 2p <= x and 0 <= j <= x, got {(x, p, j)}")
    if pt.V <= 1.0:
        raise DomainError(f"mu closed form needs V > 1, got V = {pt.V}")
    den = log_den(*st._logs(pt.U, pt.V), x - 2 * p, p)
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
    log_den_rows = log_den(*st._logs(pt.U, pt.V), consts.w, consts.ps)
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
    pt = st.derive_point(phi, beta1)
    u, v = pt.U, pt.V
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


def eq2_eqb1(pt: st.PhiBetaPoint, system: st.EqSystem, consts: dist.DerivedConstants) -> float:
    """Eq2 as the raw elimination output over consts' full triangle; equal to
    Eq2 (the p >= 1 form) wherever Eq1 vanishes."""
    log_uv, log_v = st._logs(pt.U, pt.V)
    kt, w, p = consts.kt, consts.w, consts.ps
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
    log_uv, log_v = log_uv[:, None], log_v[:, None]
    s1 = xsum(st._eq1_terms(system.cells_eq1, log_uv, log_v), axis=-1)
    s2 = xsum(st._eq2_terms(system.cells_eq2, log_uv, log_v), axis=-1)
    return (system.K_tilde - system.lam * pt.phi - s1,
            -pt.beta1 * system.c + (1.0 - 1.0 / pt.V) * (system.lam * pt.phi + s2))


def lemma_rows(rng, cells: st.Cells, n: int):
    """n random rows (a, b) = (log(U/V), log V) across the range of
    `stationarity._pad`'s lemma for the cells: |w a| and p b at most 300,
    b log-uniform from 2^-29.  Row n // 2 is NaN when n > 2."""
    a = rng.uniform(-1.0, 1.0, n) * 300.0 / max(cells.w.max(), 1.0)
    b = 2.0 ** rng.uniform(-29.0, math.log2(300.0 / cells.p.max()), n)
    if n > 2:
        a[n // 2] = b[n // 2] = math.nan
    return a, b


def batched_and_direct(terms, cells: st.Cells, a: np.ndarray, b: np.ndarray):
    """The cell terms and row sums `stationarity._row_sums` forms over the
    rows (a, b), and the same row by row in the direct single-point form,
    one exp of w a and of p (-b) per cell: (batched terms, direct terms,
    batched sums, direct sums), the terms as (rows x cells) arrays."""
    chunks = []

    def recorded(*args):
        chunks.append(terms(*args))
        return chunks[-1]

    sums = st._row_sums(recorded, cells, a, b)
    rows = [(terms(cells, x, y), st._row_sums(terms, cells, x, y)) for x, y in zip(a, b)]
    direct = np.reshape([t for t, _ in rows], (len(rows), cells.w.size))
    return np.concatenate(chunks), direct, sums, np.array([s for _, s in rows])


def kernel_cases(system: st.EqSystem):
    """(name, terms, cells) for both equations on the cells they sum (`_cut`)
    and on their whole cell sets; Eq2's whole set holds the w = 0 diagonal."""
    return [(f"{eq}_{part}", getattr(st, f"_{eq}_terms"), cells)
            for eq in ("eq1", "eq2")
            for part, cells in (("cut", getattr(system, f"cut_{eq}")[0]),
                                ("whole", getattr(system, f"cells_{eq}")))]


def mp_cell_terms(mp, eq: str, cells: st.Cells, a: float, b: float) -> list:
    """The cells' terms (weights included) at a = log(U/V), b = log V, in mp
    at its working precision: weight E/(1 + E) for Eq1, and for Eq2 the
    summand of `stationarity._eq2_terms`, weight t1 t2/(1 + E) with
    t1 = e^(w a), t2 = e^-pb and E = t1 (1 - t2)."""
    a, b = mp.mpf(a), mp.mpf(b)
    t1 = {w: mp.exp(w * a) for w in set(cells.w.tolist())}
    t2 = {p: mp.exp(-p * b) for p in set(cells.p.tolist())}
    terms = []
    for wt, w, p in zip(cells.weight.tolist(), cells.w.tolist(), cells.p.tolist()):
        E = t1[w] * (1 - t2[p])
        terms.append(mp.mpf(wt) * (E if eq == "eq1" else t1[w] * t2[p]) / (1 + E))
    return terms


# -- the constants at working precision ------------------------------------------

def mp_kappa(mp, x: int, p: int, lam):
    """kappa(x, p) = 2^-x e^-lam lam^x / (p! (x-p)!) in mp, from its factorials."""
    return mp.exp(-lam) * (lam / 2) ** x / (mp.factorial(p) * mp.factorial(x - p))


def mp_rho(mp, x_max: int, lam):
    """The exact diagonal tail sum_{2p > x_max} kappa(2p, p) in mp, summed until
    a term no longer moves the total (the terms fall geometrically past lam)."""
    total, two_p = mp.mpf(0), x_max + 2
    while total + (term := mp_kappa(mp, two_p, two_p // 2, lam)) != total:
        total, two_p = total + term, two_p + 2
    return total


def mp_rho_bound(mp, x_max: int, lam):
    """The closed form `distribution.rho_tail` takes, kappa(x_max, x_max/2)
    q0/(1 - q1) with q0 = (lam/(x_max+2))^2 and q1 = (lam/(x_max+4))^2, in mp."""
    return (mp_kappa(mp, x_max, x_max // 2, lam) * (lam / (x_max + 2)) ** 2
            / (1 - (lam / (x_max + 4)) ** 2))


def mp_log_base(mp, c: str, x_max: int):
    """log of the n-free base constant in the paper's product form,
    3^c (lam/6e)^lam 2^(sum_{x>2p} kt) / prod [p!(x-p)! kt]^kt over the
    triangle, with kt = 2 kappa below the diagonal and kappa on it, in mp at
    the decimal density c."""
    c = mp.mpf(c)
    lam = 3 * c
    total = c * mp.log(3) + lam * (mp.log(lam) - mp.log(6) - 1)
    for x in range(x_max + 1):
        for p in range(x // 2 + 1):
            kt = (2 if x > 2 * p else 1) * mp_kappa(mp, x, p, lam)
            total += (kt * mp.log(2) if x > 2 * p else 0) - kt * (
                mp.log(mp.factorial(p) * mp.factorial(x - p)) + mp.log(kt))
    return total


def mp_slack_factors(mp, c: str, x_max: int, eps: str) -> dict:
    """G1, GA, GB, GC, G2 = GA GB GC and the prefactor G1 G2 exp(2 eps D/e),
    each the paper's product of powers of L(eta) = (2 eta)^(-2 eta) and of
    e-powers, in mp at the decimal c and eps; GB is the paper's
    (1+eps)^((x_max/4)(x_max+1)).  L(0) is 0^0 = 1, the eta -> 0+ limit."""
    c, eps, x = mp.mpf(c), mp.mpf(eps), x_max
    lam = 3 * c

    def L(eta):
        return (2 * eta) ** (-2 * eta)

    p2 = mp.mpf(x * (x + 1) * (x + 2)) / 3
    p3 = mp.mpf(x * (x + 2) * (2 * x + 3)) / 8
    d = dist.big_d(x)
    r1 = lam ** (x + 1) / mp.factorial(x + 1) + eps * d
    r2 = lam ** (x + 1) / mp.factorial(x) + eps * p2
    r3 = lam ** x / mp.factorial(x) + eps / lam * (p2 + p3)
    g1 = (2 ** r1 * L(r1) * L(r2) * (18 * mp.e / lam) ** r2 * L(r2 / 6) ** 6
          * (L(3 * eps * p3 / lam) * L(6 * eps * p3 / lam)) ** c
          * (L(3 * r3) ** 2 * L(9 * r3) * L(6 * r3) * 3 ** r3) ** c)
    ga = (12 ** eps * 2 ** (mp.mpf(x) / 8 * (x**2 + 2 * x - 1) * eps)
          * L(eps) ** (mp.mpf(x) / 4 * (x + 3)))
    gb = (1 + eps) ** (mp.mpf(x) / 4 * (x + 1))
    gc = ((x + 1) ** (mp.mpf(x + 2) / 2) * 2 ** (mp.mpf(x) / 24 * (x + 1) * (x - 7))
          * (2 ** (x + 4) * (mp.exp(-lam) * (lam / 2) ** x) ** (x + 8)) ** (mp.mpf(x + 1) / 4)
          ) ** eps
    g2 = ga * gb * gc
    return {"g1": g1, "ga": ga, "gb": gb, "gc": gc, "g2": g2,
            "prefactor": g1 * g2 * mp.exp(2 * eps * d / mp.e)}


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
            pt = system.point(f, b)
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
