"""Separate-monotonicity certificates for the two stationarity equations.

Eq2 decreases strictly in each variable over the whole feasibility box; this
is certified by summing explicit per-cell derivative bounds (A and B below)
and comparing against lambda * phi_min.  Eq1 decreases wherever it is
positive; the exceptional index families (x = 2p+1 and x = 2p+2) are removed
to form Eq1* and Eq1**, which are then shown negative past the closed-form
turning points beta1*(phi) and phi*(beta1).  `verdict` runs the whole stage
and returns the certificate's record of every bound it compared.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .intervals import xsum
from .ledger import FeasibleBox
from .params import DELTA_NUM
from . import stationarity as st

SQRT3 = math.sqrt(3.0)


# -- the two R-functions of V and their tangents --------------------------------

def R_fixed_phi(V: float) -> float:
    """Logarithmic-derivative combination R for fixed phi, as a function of V alone:
    (3V^2 - 1 + 3V*sqrt(V(V-1))) / (3V + 1); concave, -> 1/2 as V -> 1+."""
    if V <= 1.0:
        raise DomainError(f"R is defined for V > 1, got {V}")
    s = math.sqrt(V * (V - 1.0))
    return (3.0 * V * V - 1.0 + 3.0 * V * s) / (3.0 * V + 1.0)


def dR_fixed_phi(V: float) -> float:
    if V <= 1.0:
        raise DomainError(f"R' is defined for V > 1, got {V}")
    s = math.sqrt(V * (V - 1.0))
    ds = (2.0 * V - 1.0) / (2.0 * s)
    num = 3.0 * V * V - 1.0 + 3.0 * V * s
    dnum = 6.0 * V + 3.0 * s + 3.0 * V * ds
    return (dnum * (3.0 * V + 1.0) - 3.0 * num) / (3.0 * V + 1.0) ** 2


def S_fixed_beta(V: float) -> float:
    """Upper bound S for R at fixed beta1: 1/2 + 3(V-1)[V-2+sqrt(V(V-1))]/(3V-4),
    in its rationalised form 1/2 + 3w/(t + 1 - w), w = V - 1, t = sqrt(w(w+1)).

    (w - 1 + t)(t + 1 - w) = 3w - 1, so the apparent pole at V = 4/3 is
    removable and the rationalised form is exact for every V > 1.
    """
    if V <= 1.0:
        raise DomainError(f"S is defined for V > 1, got {V}")
    w = V - 1.0
    return 0.5 + 3.0 * w / (math.sqrt(w * (w + 1.0)) + 1.0 - w)


def dS_fixed_beta(V: float) -> float:
    if V <= 1.0:
        raise DomainError(f"S' is defined for V > 1, got {V}")
    w = V - 1.0
    t = math.sqrt(w * (w + 1.0))
    dt = (2.0 * w + 1.0) / (2.0 * t)
    den = t + 1.0 - w
    return 3.0 * (den - w * (dt - 1.0)) / (den * den)


def tangent_fixed_phi(V0: float) -> tuple[float, float]:
    """Tangent line a1*V + b1 to R at V0; dominates R for V >= V0 by concavity."""
    a1 = dR_fixed_phi(V0)
    return a1, R_fixed_phi(V0) - a1 * V0


def tangent_fixed_beta(V0: float) -> tuple[float, float]:
    a1 = dS_fixed_beta(V0)
    return a1, S_fixed_beta(V0) - a1 * V0


def vfrac(V: float, p):
    """[p V^(p+1) - (p+1) V^p + 1] / (V^p - 1)^2 for an integer or an integer
    array p; decreasing in V > 1, -> (1 + 1/p)/2 as V -> 1+."""
    if np.any(np.asarray(p) < 1):
        raise DomainError("vfrac needs p >= 1")
    if V <= 1.0:
        raise DomainError("vfrac needs V > 1")
    vp = V**p
    return (p * vp * V - (p + 1) * vp + 1.0) / (vp - 1.0) ** 2


# -- the A and B derivative-sum bounds -------------------------------------------

def a_sum(v_low: float, uv_high: float, system: st.EqSystem) -> float:
    """Bound on the A part of -dEq2: sum over p >= 1, x >= 2p of
    p * kt * vfrac(v_low, p) * [1 - 1/(1 + uv_high^(x-2p))]."""
    _, w, p, p_kt = system.cells_eq2
    return xsum(p_kt * vfrac(v_low, p) * (1.0 - 1.0 / (1.0 + uv_high**w)))


def b_sum(a1: float, b1: float, v_low: float, system: st.EqSystem) -> float:
    """Bound on the B part of -dEq2 via the tangent a1*V + b1 >= R and
    r/(1+rs)^2 <= 1/(4s): sum over p >= 1, x >= 2p+1 of
    p (x-2p) kt (a1 v_low - |b1|) / (4 (v_low^p - 1))."""
    if not a1 > abs(b1):
        raise DomainError(
            f"homographic-monotonicity reduction needs a1 > |b1|, got ({a1}, {b1})")
    kt, w, p, _ = system.cells_eq1
    coeff = (a1 * v_low - abs(b1)) / 4.0
    return xsum(p * w * kt * coeff / (v_low**p - 1.0))


def eq2_monotone_verdict(system: st.EqSystem) -> dict:
    """Certify that Eq2 strictly decreases in each variable over the feasible
    set.  The record holds what both directions share, V_min, (U/V)_max, the
    A sum and the threshold lambda * phi_min, then per direction (eq2_fixed_phi,
    eq2_fixed_beta1) its tangent, B sum, extra term, total and verdict."""
    box = system.box
    v_min2, uv_max2 = polygon_extremize(box)
    a_bound = a_sum(v_min2, uv_max2, system)
    threshold = system.lam * box.phi_min
    record = {"v_min2": v_min2, "uv_max2": uv_max2, "A_bound": a_bound,
              "lambda_phi_min": threshold}
    for which, (a1, b1), extra in (
            ("fixed_phi", tangent_fixed_phi(v_min2), 0.0),
            ("fixed_beta1", tangent_fixed_beta(v_min2), system.lam * (1.0 - box.beta1_min) / 16.0)):
        b_bound = b_sum(a1, b1, v_min2, system)
        total = a_bound + b_bound + extra
        record[f"eq2_{which}"] = {"tangent": [a1, b1], "B_bound": b_bound, "extra_bound": extra,
                                  "total": total, "verdict": total + DELTA_NUM < threshold}
    return record


# -- polygon extremization --------------------------------------------------------

def polygon_extremize(box: FeasibleBox) -> tuple[float, float]:
    """(V_min, (U/V)_max) over the box's (beta2, beta3) rectangle, which
    contains the feasibility polygon.

    With Y = 2 beta2 + 3 beta3, V = 1 + beta2^2 / (3 beta3 Y) rises in beta2
    and falls in beta3; U/V = 9 (2 - beta2 - 2 beta3) beta3^2 / (beta2 (beta2 +
    3 beta3)^2) falls in beta2 and, at fixed beta2, rises in beta3 while
    g = 2 beta2 - beta2^2 - 3 beta2 beta3 - 3 beta3^2 > 0 and falls past the
    root beta3* of g.  So V_min = V(beta2_min, beta3_max) and
    (U/V)_max = U/V(beta2_min, clip(beta3*, beta3_min, beta3_max)).
    Raises DomainError naming the precondition of this argument that fails.
    """
    b2, b3_lo, b3_hi = box.beta2_min, box.beta3_min, box.beta3_max
    for holds, needed in ((b2 > 0.0, "beta2_min > 0"), (b3_lo > 0.0, "beta3_min > 0"),
                          (box.beta2_max + 2.0 * b3_hi < 2.0, "beta2_max + 2 beta3_max < 2")):
        if not holds:
            raise DomainError(f"closed-form polygon extremes need {needed}: {box}")
    v_min = 1.0 + b2**2 / (3.0 * b3_hi * (2.0 * b2 + 3.0 * b3_hi))
    peak = (math.sqrt(9.0 * b2**2 + 12.0 * b2 * (2.0 - b2)) - 3.0 * b2) / 6.0
    b3 = min(max(peak, b3_lo), b3_hi)
    return v_min, 9.0 * (2.0 * (1.0 - b3) - b2) * b3**2 / (b2 * (b2 + 3.0 * b3) ** 2)


# -- Eq1 exceptional-family analysis ----------------------------------------------

def phi_star(beta1: float) -> float:
    """Turning point of the 2p+1 <= x <= 2p+2 terms at fixed beta1; decreases
    from 3/4 at beta1 = 0 to 1/3 at beta1 = 1."""
    t = 2.0 - beta1
    return (15.0 - 9.0 / t - 2.0 * beta1
            - SQRT3 * (1.0 - beta1) * math.sqrt(4.0 * beta1 * beta1 + 4.0 * beta1 + 3.0) / t) / 12.0


def uv_star(beta1: float) -> tuple[float, float]:
    """(U, V) evaluated on the curve phi = phi_star(beta1), in closed form.

    With A = 9 - sqrt(3) sqrt(3 + 4 b1 + 4 b1^2) and B = 4 - 2 b1:
    V* = (4/3) A^2 / ((A-B)(A+3B)) and
    U*/V* = (3/8) (A-B)^2 [3(1+2 b1) + (9-A)] / (A (1-b1) (3B-A)).
    V* decreases and U*/V* increases over b1 in [0, 1].
    """
    a = 9.0 - SQRT3 * math.sqrt(3.0 + 4.0 * beta1 + 4.0 * beta1 * beta1)
    b = 4.0 - 2.0 * beta1
    v = (4.0 / 3.0) * a * a / ((a - b) * (a + 3.0 * b))
    if beta1 >= 1.0:
        return math.inf, v
    uv = (3.0 / 8.0) * (a - b) ** 2 * (3.0 * (1.0 + 2.0 * beta1) + (9.0 - a)) \
        / (a * (1.0 - beta1) * (3.0 * b - a))
    return uv * v, v


def _partial_cells(system: st.EqSystem, w_min: int) -> st.Cells:
    """Eq1's cells with x - 2p > w_min: Eq1* at 1 (without x = 2p+1), Eq1** at 2
    (without 2p+1 <= x <= 2p+2)."""
    cells = system.cells_eq1
    keep = cells.w > w_min
    return st.Cells(*(a[keep] for a in cells))


def eq1_star_majorant(system: st.EqSystem) -> float:
    """Upper bound of Eq1* along the turning line of the x = 2p+1 terms at fixed
    phi, beta1*(phi) = sqrt(3) - 3(sqrt(3)-1) phi, uniform in phi.

    There U = 3(1-phi)/(3phi-1) and V = 2/sqrt(3), so U/V decreases in phi and
    is bounded below by its value at phi_max; the negative sum is evaluated
    with that floor and lambda*phi with phi_min.
    """
    box = system.box
    uv_floor = (3.0 * SQRT3 / 2.0) * (1.0 - box.phi_max) / (3.0 * box.phi_max - 1.0)
    return float(st._eq1_core(box.phi_min, math.log(uv_floor), math.log(2.0 / SQRT3),
                              system.lam, system.K_tilde, _partial_cells(system, 1)))


def m_bound(b1_low: float, b1_high: float, system: st.EqSystem) -> float:
    """Upper bound of Eq1** on the band b1_low <= beta1 <= b1_high along phi_star:
    K - lambda phi*(b1_high) - sum_{p>=1, x>=2p+3} kt (x-2p)
    [1 - 1/(1 + (U*/V*)(b1_low)^(x-2p) (1 - V*(b1_high)^-p))]."""
    u_lo, v_lo = uv_star(b1_low)
    _, v_hi = uv_star(b1_high)
    return float(st._eq1_core(phi_star(b1_high), math.log(u_lo / v_lo), math.log(v_hi),
                              system.lam, system.K_tilde, _partial_cells(system, 2)))


#: Bands whose M-bounds certify Eq1** < 0 across the certification beta1 range.
M_BANDS = ((0.33, 0.39), (0.39, 0.428), (0.428, 0.468), (0.468, 0.529))


def verdict(system: st.EqSystem) -> tuple[bool, str, dict]:
    """The monotone stage: (ok, detail, record).  It passes when both Eq2
    directions hold, the Eq1* majorant and every M-band bound lie below
    -DELTA_NUM, and M_BANDS cover the box's beta1 range without a gap.  The
    record is `eq2_monotone_verdict`'s, then the Eq1* majorant and the M bands.
    Raises DomainError for a box outside the closed forms' domain."""
    record = eq2_monotone_verdict(system)
    phi, beta = record["eq2_fixed_phi"], record["eq2_fixed_beta1"]
    star = record["eq1_star_majorant"] = eq1_star_majorant(system)
    box = system.box
    covered = (M_BANDS[0][0] <= box.beta1_min and M_BANDS[-1][1] >= box.beta1_max
               and all(a[1] >= b[0] for a, b in zip(M_BANDS, M_BANDS[1:])))
    m_values = [m_bound(lo, hi, system) for lo, hi in M_BANDS]
    record["m_bands"] = [{"band": list(b), "value": v} for b, v in zip(M_BANDS, m_values)]
    ok = (phi["verdict"] and beta["verdict"] and star < -DELTA_NUM and covered
          and all(v < -DELTA_NUM for v in m_values))
    return ok, (f"eq2 totals=({phi['total']:.4f}, {beta['total']:.4f}) vs "
                f"{record['lambda_phi_min']:.4f}; eq1*={star:.4f}; "
                f"M={['%.4f' % v for v in m_values]}"), record
